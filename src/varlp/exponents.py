"""Variable exponents p(.) on the line, their bounds, conjugates, and the
log-Holder regularity check.

An exponent is admissible when its essential bounds satisfy
1 < p_minus <= p(x) <= p_plus < infinity.  Bounds are exact for step
exponents (kind "piecewise-constant"; a constant exponent is the step
exponent with no steps) and, over the working box [-WORKING_RADIUS,
WORKING_RADIUS], for the named smooth formulas.  The norm layer uses them
as certified bounds, so there is no constructor for an arbitrary callable,
whose essential infimum is not computable; the conjugate or quotient of a
smooth formula (kind "custom-evaluable") maps that formula's bounds.  The
step and smooth constructors refuse a lower bound that is not positive,
and ``conjugate`` one that is not above 1.

Membership in the class of exponents whose maximal operator is bounded is
not decidable numerically; log-Holder continuity (local plus decay at
infinity) is the standard constructive sufficient condition, and it is
exposed here as an informational check rather than a gate, so experiments
can also run on irregular exponents and watch what breaks.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Optional, Sequence

from .report import CheckReport

WORKING_RADIUS = 2.0 ** 20
P_MEMBERSHIP_MARGIN = 1e-9
LOG_HOLDER_CAP = 10.0


class Exponent:
    """A variable exponent with an evaluator and cached essential bounds.

    ``even`` promises evaluate(-x) == evaluate(x) bit for bit at every
    finite x.  The constructors work it out and no caller passes it: it
    holds for the named smooth formulas (each reads |x| or x * x), for a
    step exponent with no breaks (a constant), and for a conjugate or a
    quotient of an even exponent; not for a step exponent with breaks,
    which is right-continuous and so not exactly even at a break.

    Immutable after construction; instances may be shared freely across
    threads.  Use the module-level constructors rather than __init__.
    """

    __slots__ = ("kind", "params", "p_minus", "p_plus", "breakpoints", "even", "_fn")

    def __init__(self, kind: str, params: dict, fn: Callable[[float], float],
                 p_minus: float, p_plus: float,
                 breakpoints: tuple[float, ...] = (), even: bool = False):
        self.kind = kind
        self.params = params
        self.p_minus = p_minus
        self.p_plus = p_plus
        self.breakpoints = tuple(sorted(breakpoints))
        self.even = even
        self._fn = fn

    def evaluate(self, x: float) -> float:
        if not math.isfinite(x):
            raise ValueError(f"exponent evaluated outside its domain: x={x}")
        return self._fn(x)

    def conjugate(self) -> "Exponent":
        """Pointwise conjugate p'(x) = p(x)/(p(x) - 1); bounds swap exactly.
        Refused for p_minus <= 1, where p' is infinite or negative."""
        if not self.p_minus > 1.0:
            raise ValueError(f"the conjugate needs p_minus > 1, got p_minus={self.p_minus}")
        return self._mapped(_conj, _conj(self.p_plus), _conj(self.p_minus),
                            {"derived": "conjugate", "of": self.kind})

    def divided_by(self, p0: float) -> "Exponent":
        """The exponent x -> p(x)/p0 (used by the power identity of the norm)."""
        if p0 <= 0:
            raise ValueError(f"divisor must be positive, got {p0}")
        return self._mapped(lambda v: v / p0, self.p_minus / p0, self.p_plus / p0,
                            {"derived": "scaled", "of": self.kind, "divisor": p0})

    def _mapped(self, g: Callable[[float], float], lo: float, hi: float,
                params: dict) -> "Exponent":
        """The exponent x -> g(p(x)) with bounds lo and hi: a step exponent
        maps its values, any other exponent wraps its formula and keeps its
        parity, since g reads p(x) alone."""
        if self.kind == "piecewise-constant":
            return piecewise_exponent(self.params["breaks"],
                                      [g(v) for v in self.params["values"]])
        fn = self._fn
        return Exponent("custom-evaluable", params, lambda x: g(fn(x)), lo, hi,
                        breakpoints=self.breakpoints, even=self.even)

    def sup_near(self, s: float) -> float:
        """The largest value p takes arbitrarily close to s.

        Exact for a step exponent (at a breakpoint both neighbouring pieces
        count); p_plus, a certified upper bound, for every other kind.
        """
        if self.kind != "piecewise-constant":
            return self.p_plus
        vals = self.params["values"]
        return max(vals[bisect_left(self.breakpoints, s)],
                   vals[bisect_right(self.breakpoints, s)])

    def constant_value_on(self, intervals: Sequence[tuple[float, float]]) -> Optional[float]:
        """The single value p takes on the given open intervals, or None.

        Detects when a closed-form |E|^(1/p) shortcut applies: no breakpoint
        may fall strictly inside any interval and all piece values must agree.
        """
        if self.kind != "piecewise-constant":
            return None
        values = []
        for a, b in intervals:
            for s in self.breakpoints:
                if a < s < b:
                    return None
            values.append(self._fn(0.5 * (a + b)))
        first = values[0]
        return first if all(v == first for v in values) else None


def _conj(p: float) -> float:
    return p / (p - 1.0)


def _require_positive(p_minus: float) -> None:
    """Refuse an exponent whose lower bound is not positive: |f|^p is not
    a modular there, and 1/p is infinite or negative."""
    if not p_minus > 0.0:
        raise ValueError(f"exponent values must be positive, got p_minus={p_minus}")


def r_p_constant(e: Exponent) -> float:
    """The duality-bracket constant 1 + 1/p_minus + 1/p_plus."""
    return 1.0 + 1.0 / e.p_minus + 1.0 / e.p_plus


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def constant_exponent(p: float) -> Exponent:
    """The constant exponent p: the step exponent with no steps."""
    return piecewise_exponent([], [p])


def piecewise_exponent(breaks: Sequence[float], values: Sequence[float]) -> Exponent:
    """Step exponent: values[i] on [breaks[i-1], breaks[i]).

    values must have exactly one more entry than breaks; the first value
    covers (-inf, breaks[0]) and the last [breaks[-1], inf).
    """
    breaks = [float(b) for b in breaks]
    values = [float(v) for v in values]
    if len(values) != len(breaks) + 1:
        raise ValueError("piecewise exponent needs len(values) == len(breaks) + 1")
    if not all(map(math.isfinite, (*breaks, *values))):
        raise ValueError(f"piecewise breaks and values must be finite, got "
                         f"breaks={breaks}, values={values}")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError("piecewise breaks must be strictly increasing")
    _require_positive(min(values))
    br = tuple(breaks)
    vals = tuple(values)

    def fn(x: float) -> float:
        return vals[bisect_right(br, x)]

    return Exponent("piecewise-constant", {"breaks": breaks, "values": values},
                    fn, min(values), max(values), breakpoints=br, even=not br)


def smooth_exponent(formula_id: str, params: Optional[dict] = None) -> Exponent:
    """Named smooth exponent formulas with exact bounds over the working box.

    inv_one_plus_abs:  base + amp / (1 + |x|)
    inv_one_plus_sq:   base + amp / (1 + x^2)
    sin_loglog:        base + amp * sin(log(log(shift + |x|)))
    """
    params = dict(params or {})
    base = float(params.get("base", 2.0))
    amp = float(params.get("amp", 1.0))
    R = WORKING_RADIUS
    if formula_id == "inv_one_plus_abs":
        fn = lambda x: base + amp / (1.0 + abs(x))
        lo, hi = base + amp / (1.0 + R), base + amp
    elif formula_id == "inv_one_plus_sq":
        fn = lambda x: base + amp / (1.0 + x * x)
        lo, hi = base + amp / (1.0 + R * R), base + amp
    elif formula_id == "sin_loglog":
        shift = float(params.get("shift", 10.0))
        if shift <= math.e:
            raise ValueError("sin_loglog needs shift > e so log(log(.)) is defined")
        fn = lambda x: base + amp * math.sin(math.log(math.log(shift + abs(x))))
        u0 = math.log(math.log(shift))
        u1 = math.log(math.log(shift + R))
        smin, smax = _sin_range(u0, u1)
        lo, hi = base + amp * smin, base + amp * smax
    else:
        raise ValueError(f"unknown smooth exponent formula: {formula_id!r}")
    lo, hi = min(lo, hi), max(lo, hi)  # a negative amp swaps them
    _require_positive(lo)
    reads = {"base", "amp", "shift"} if formula_id == "sin_loglog" else {"base", "amp"}
    unread = set(params) - reads
    if unread:
        raise ValueError(f"{formula_id} reads no parameter {sorted(unread)}")
    params.setdefault("base", base)
    params.setdefault("amp", amp)
    return Exponent("smooth-log-holder", {"formula_id": formula_id, **params},
                    fn, lo, hi, even=True)


def _sin_range(u0: float, u1: float) -> tuple[float, float]:
    cands = [math.sin(u0), math.sin(u1)]
    k = math.ceil((u0 - math.pi / 2.0) / math.pi)
    crit = math.pi / 2.0 + k * math.pi
    while crit <= u1:
        cands.append(math.sin(crit))
        crit += math.pi
    return min(cands), max(cands)


# ---------------------------------------------------------------------------
# membership checks
# ---------------------------------------------------------------------------

def is_in_P(e: Exponent) -> bool:
    """Admissibility: p_minus > 1 + P_MEMBERSHIP_MARGIN and p_plus finite."""
    return e.p_minus > 1.0 + P_MEMBERSHIP_MARGIN and math.isfinite(e.p_plus)


def log_holder_check(e: Exponent, sample_budget: int = 2000) -> CheckReport:
    """Estimate the local and at-infinity log-Holder constants by sampling.

    Local constant: sup |p(x) - p(y)| * log(1/|x - y|) over sampled pairs
    with |x - y| <= 1/2, with base points concentrated near the exponent's
    breakpoints where a jump would blow the product up.

    Decay constant: fit a limit value from the far field (median over the
    outermost sampled decade, going well beyond the working box so slow
    oscillations have room to show themselves), then take
    sup |p(x) - p_inf| * log(e + |x|).

    Both constants must stay below LOG_HOLDER_CAP to pass.  Small jumps
    (below roughly LOG_HOLDER_CAP / 35) and oscillations slower than the
    sampling range can escape detection; this is a falsifiable sampling
    check, not a proof.
    """
    n_base = max(8, sample_budget // 80)
    bases = [0.0, 0.3, 1.0, -1.7]
    for j in range(n_base):
        bases.extend((2.0 ** (j / 2.0), -(2.0 ** (j / 3.0))))
    for s in e.breakpoints:
        bases.extend((s, s - 1e-3, s + 1e-3))
    offsets = [2.0 ** (-j) for j in range(1, 46)]
    c_local = 0.0
    for x in bases:
        px = e.evaluate(x)
        for h in offsets:
            factor = math.log(1.0 / h)
            for y in (x + h, x - h, x + h / 2.0, x - h / 3.0):
                d = abs(x - y)
                if 0.0 < d <= 0.5:
                    c_local = max(c_local, abs(px - e.evaluate(y)) * math.log(1.0 / d))
            # pairs straddling x itself catch jumps located exactly at x
            c_local = max(
                c_local,
                abs(e.evaluate(x - h / 2.0) - e.evaluate(x + h / 2.0)) * factor,
            )

    n_far = max(32, sample_budget // 8)
    # radii geometric in log log scale, far past the working box
    u_hi = 120.0
    radii = [math.exp(math.log(2.0) + j * (u_hi - math.log(2.0)) / (n_far - 1))
             for j in range(n_far)]
    far_vals = []
    for r in radii:
        far_vals.append((r, e.evaluate(r)))
        far_vals.append((r, e.evaluate(-r)))
    top = [v for r, v in far_vals if r >= radii[-1] / 10.0]
    p_inf = sorted(top)[len(top) // 2]
    c_decay = max(abs(v - p_inf) * math.log(math.e + r) for r, v in far_vals)

    passed = c_local <= LOG_HOLDER_CAP and c_decay <= LOG_HOLDER_CAP
    return CheckReport(
        statement_id="log-holder",
        passed=passed,
        empirical_constant=max(c_local, c_decay),
        fitted_exponent=p_inf,
        witnesses=[("local log-Holder constant", c_local, LOG_HOLDER_CAP),
                   ("decay log-Holder constant", c_decay, LOG_HOLDER_CAP)],
        notes=f"fitted limit p_inf={p_inf:.6g}; cap={LOG_HOLDER_CAP:g}",
    )
