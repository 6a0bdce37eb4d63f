"""Structured check reports and the trend-fitting helpers behind verdicts.

A finite computation can never certify a supremum over all radii, so
"bounded" and "divergent" verdicts are made reproducible: fit the log of
the observed quantity against the log of the scale over the top decade of
the sweep, and decide from the slope (and the fit quality for divergence
claims).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass
class CheckReport:
    """Outcome of one statement check.

    witnesses holds (input description, lhs, rhs) triples; passed is a pure
    function of the witnesses and the tolerance policy that produced them.
    """

    statement_id: str
    passed: bool
    empirical_constant: Optional[float] = None
    fitted_exponent: Optional[float] = None
    witnesses: list[tuple[str, float, float]] = field(default_factory=list)
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "statement_id": self.statement_id,
            "pass": self.passed,
            "empirical_constant": self.empirical_constant,
            "fitted_exponent": self.fitted_exponent,
            "witnesses": [[d, lhs, rhs] for d, lhs, rhs in self.witnesses],
            "notes": self.notes,
        }


def fit_loglog(scales: Sequence[float], values: Sequence[float],
               decades: float = 1.0) -> Optional[tuple[float, float]]:
    """Least-squares slope of log(value) vs log(scale) over the top decade(s).

    Only strictly positive (scale, value) pairs with scale within a factor
    10**decades of the largest scale participate; decades=math.inf fits
    them all.  Returns (slope, r2), or None when fewer than two usable
    points remain.
    """
    pts = [(s, v) for s, v in zip(scales, values)
           if s > 0.0 and v > 0.0 and math.isfinite(v)]
    if not pts:
        return None
    s_max = max(s for s, _ in pts)
    cut = s_max / (10.0 ** decades)
    window = [(math.log(s), math.log(v)) for s, v in pts if s >= cut]
    if len(window) < 2:
        return None
    n = len(window)
    mx = sum(x for x, _ in window) / n
    my = sum(y for _, y in window) / n
    sxx = sum((x - mx) ** 2 for x, _ in window)
    sxy = sum((x - mx) * (y - my) for x, y in window)
    syy = sum((y - my) ** 2 for _, y in window)
    if sxx == 0.0:
        return None
    slope = sxy / sxx
    r2 = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return slope, r2


def slope_is_flat(scales: Sequence[float], values: Sequence[float],
                  slope_tol: float = 0.05) -> bool:
    """True when the top-decade growth slope stays below slope_tol.

    An all-zero or single-point sweep counts as flat: nothing is growing.
    """
    fit = fit_loglog(scales, values)
    if fit is None:
        return True
    return fit[0] < slope_tol
