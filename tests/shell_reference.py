"""The reference the one-panel and exact-zero shell paths are compared with."""

from varlp.quadrature import integrate_interval, integrate_shell


def two_calls(g, lo, hi, tol, dim=1):
    """The shell integral as two adaptive ``integrate_interval`` calls at
    tol / 2 in dimension 1, with no one-panel path, no mirror and no exact
    zero; ``integrate_shell`` itself in higher dimensions."""
    if dim != 1:
        return integrate_shell(g, lo, hi, tol=tol, dim=dim)
    return (integrate_interval(g, -hi, -lo, tol=tol / 2.0)
            + integrate_interval(g, lo, hi, tol=tol / 2.0))
