"""The reference the one-panel and exact-zero shell paths are compared with."""

from varlp.quadrature import integrate_interval


def two_calls(g, lo, hi, tol):
    """The shell integral as two adaptive ``integrate_interval`` calls at
    tol / 2, with no one-panel path, no mirror and no exact zero."""
    return (integrate_interval(g, -hi, -lo, tol=tol / 2.0)
            + integrate_interval(g, lo, hi, tol=tol / 2.0))
