"""Adaptive Gauss-Kronrod integration with explicit breakpoint splitting.

Every integrand is an evaluable (a ``funcs.Func`` or an
``operators.OperatorImage``): piecewise smooth, with its exactly known
jump and kink locations in ``singular_points`` and its parity in ``even``
and ``odd``, which quadrature reads from it.  Splitting the interval at
those points before adapting restores fast convergence: on each smooth
panel the embedded 7-point Gauss rule inside the 15-point Kronrod rule
gives a usable error estimate, and the globally worst panel is bisected,
up to DEFAULT_MAX_PANELS panels, until the summed estimate meets tol or
DEFAULT_REL_TOL * |value|, the one acceptance test.

All Kronrod nodes are interior, so integrable endpoint singularities such
as 1/sqrt(x) on (0, 1] never get evaluated at the singular point itself.
Only this module runs a panel, and integrate_ball and integrate_shell split
every ball and shell the other layers integrate (verify's Minkowski check
keeps its own interval, with no 0 breakpoint, for its bits).  Intervals,
balls and shells run one adaptive loop, _adapt.

One rule uses parity: within one call (an interval that holds the origin,
a ball, or both sides of a shell), the panel of an exactly
even or odd integrand on [-b, -a] is read from the panel on [a, b] when
that one was computed first, its value negated for an odd integrand.  It
is what the panel would compute, bit for bit, so the adaptive loop, its
heap order and its sums are unchanged; only evaluations go away.
Everything here is pure and reentrant; a call's panels live in the call,
and independent calls can run concurrently.  A caller that passes a
``panels`` list gets the final panels appended, and gk15_nodes gives each
one's nodes and weights.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Optional, Sequence

from .geometry import Ball, DyadicRing

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (abscissae are symmetric; only the positive half is tabulated, the
# eighth node is the center 0).  Unpacked into names so that _gk15 reads
# each constant without indexing.
_X0, _X1, _X2, _X3, _X4, _X5, _X6 = _XS = (
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
)
_K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7 = _KS = (
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
    0.2094821410847278280129992,
)
# weights of the embedded 7-point Gauss rule (nodes _X1, _X3, _X5 and 0)
_G0, _G1, _G2, _G3 = (
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
    0.4179591836734693877551020,
)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_PANELS = 4096
DEFAULT_REL_TOL = 1e-13


class QuadratureNonConvergence(RuntimeError):
    """Raised when the subdivision budget is exhausted above tolerance.

    Carries the best estimate found so far in the ``best`` attribute.
    """

    def __init__(self, message: str, best: "QuadResult"):
        super().__init__(message)
        self.best = best


class QuadResult(NamedTuple):
    """An integral, its error estimate and its panel count.  A named tuple
    because it is the cheapest to build, and every table shell builds one."""

    value: float
    abs_error_bound: float
    subdivisions: int

    def __add__(self, other: "QuadResult") -> "QuadResult":
        return QuadResult(
            self.value + other.value,
            self.abs_error_bound + other.abs_error_bound,
            self.subdivisions + other.subdivisions,
        )


_ZERO = QuadResult(0.0, 0.0, 0)


def _converged(err: float, value: float, tol: float) -> bool:
    """The acceptance test: err meets tol, or DEFAULT_REL_TOL * |value|."""
    return err <= tol or err <= DEFAULT_REL_TOL * abs(value)


def _gk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Kronrod pass over [a, b]; returns (estimate, |K15 - G7|).

    Straight-line on purpose: the nodes are evaluated in the order c,
    c -+ h*x0, ..., c -+ h*x6, and both sums add their terms left to right
    in that order before the final * h, so every panel keeps its last bit.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = fn(c)
    s0 = fn(c - (x := h * _X0)) + fn(c + x)
    s1 = fn(c - (x := h * _X1)) + fn(c + x)
    s2 = fn(c - (x := h * _X2)) + fn(c + x)
    s3 = fn(c - (x := h * _X3)) + fn(c + x)
    s4 = fn(c - (x := h * _X4)) + fn(c + x)
    s5 = fn(c - (x := h * _X5)) + fn(c + x)
    s6 = fn(c - (x := h * _X6)) + fn(c + x)
    kron = (_K7 * fc + _K0 * s0 + _K1 * s1 + _K2 * s2 + _K3 * s3 + _K4 * s4
            + _K5 * s5 + _K6 * s6) * h
    gauss = (_G3 * fc + _G0 * s1 + _G1 * s3 + _G2 * s5) * h
    return kron, abs(kron - gauss)


def gk15_nodes(lo: float, hi: float) -> list[tuple[float, float]]:
    """The 15 (node, weight) pairs of _gk15's Kronrod sum over [lo, hi]:
    each node is the float _gk15 evaluates, bit for bit, and its weight the
    Kronrod weight times the half-width, so the sum of weight * g(node) is
    the panel's integral of g."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # c + (-h) * xk is c - h * xk bit for bit
    return [(c, _K7 * h), *((c + s * h * xk, k * h) for xk, k in zip(_XS, _KS)
                            for s in (-1.0, 1.0))]


def _parity(g) -> float:
    """The factor a GK15 panel's value takes from its mirror: 1.0 for an
    exactly even g, -1.0 for an exactly odd one, 0.0 (no rule) otherwise."""
    return 1.0 if g.even else -1.0 if g.odd else 0.0


def _panel_rule(parity: float) -> Callable[..., tuple[float, float]]:
    """panel(fn, lo, hi) -> _gk15(fn, lo, hi), for the panels of one
    integration call: _gk15 itself with no ``parity``.

    A panel is read, not computed, when its mirror (centre -c for its
    centre c, the same half-width) was computed before in the call, its
    value times the nonzero ``parity``.  That is what _gk15 returns, bit
    for bit: _gk15 reads only the centre and the half-width, and under
    round-to-nearest the nodes, every pair sum and both weighted sums
    mirror exactly, so at most a zero's sign differs, which the promises
    allow and every accumulator (each starts at 0.0) absorbs.
    """
    if not parity:
        return _gk15
    done: dict[tuple[float, float], tuple[float, float]] = {}

    def panel(fn: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        got = done.get((c, h))
        if got is None:
            got = _gk15(fn, lo, hi)
            done[-c, h] = parity * got[0], got[1]
        return got

    return panel


def integrate_interval(g, a: float, b: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate the evaluable g over [a, b], pre-splitting at its own
    ``singular_points``.

    The returned ``abs_error_bound`` is the summed Kronrod-vs-Gauss deviation
    over the final panel set; on success it does not exceed
    max(tol, DEFAULT_REL_TOL * |value|).  The relative rung keeps huge
    integrals (modulars far from the unit ball) from demanding accuracy
    below the floating-point noise floor.  A non-finite end is refused
    before any panel runs: every node of a panel reaching it would be nan.
    Where a < 0 < b and g is exactly even or odd, a panel mirroring one
    already computed is read from it (``_panel_rule``), with the same bits.
    """
    if not (a <= b):
        raise ValueError(f"empty or reversed interval [{a}, {b}]")
    if a == b:
        return _ZERO
    panel = _panel_rule(_parity(g)) if a < 0.0 < b else _gk15
    return _adapt(g.evaluate, panel, a, b, g.singular_points, tol)


def _adapt(fn: Callable[[float], float], panel: Callable[..., tuple[float, float]],
           a: float, b: float, pts: Sequence[float], tol: float, *,
           panels: Optional[list] = None) -> QuadResult:
    """The adaptive loop over [a, b], a < b, split first at the sorted,
    distinct pts that lie strictly inside, with the panel rule given, in at
    most DEFAULT_MAX_PANELS panels; the two sides of a shell call it with
    one rule.  A ``panels`` list gets the (lo, hi) of every final panel,
    frozen ones included, when the loop returns a result."""
    if a == -math.inf or b == math.inf:
        raise QuadratureNonConvergence(
            f"cannot integrate to the non-finite end {a if a == -math.inf else b}",
            QuadResult(math.nan, math.inf, 0))
    edges = [a, *pts[bisect_right(pts, a):bisect_left(pts, b)], b]

    # (negated error, insertion counter, a, b, value) so the heap pops the
    # worst panel first and ties resolve deterministically
    heap: list[tuple[float, int, float, float, float]] = []
    counter = 0
    value = 0.0
    err_total = 0.0
    frozen_err = 0.0  # error stuck in panels too narrow to split further
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = panel(fn, lo, hi)
        heapq.heappush(heap, (-e, counter, lo, hi, v))
        counter += 1
        value += v
        err_total += e

    while not _converged(err_total, value, tol) and heap:
        if counter >= DEFAULT_MAX_PANELS:
            best = QuadResult(value, err_total, counter)
            raise QuadratureNonConvergence(
                f"quadrature did not reach tol={tol:g} within {DEFAULT_MAX_PANELS} "
                f"panels (error estimate {err_total:g})",
                best,
            )
        neg_err, _, lo, hi, old_v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # cannot split further in floating point; keep its contribution
            frozen_err += -neg_err
            err_total += neg_err  # removed from the refinable pool
            if panels is not None:
                panels.append((lo, hi))
            if frozen_err > max(tol, DEFAULT_REL_TOL * abs(value)):
                best = QuadResult(value, err_total + frozen_err, counter)
                raise QuadratureNonConvergence(
                    f"unresolvable panel at [{lo:g}, {hi:g}] holds error "
                    f"{frozen_err:g} > tol {tol:g}", best)
            continue
        v1, e1 = panel(fn, lo, mid)
        v2, e2 = panel(fn, mid, hi)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
        value += v1 + v2 - old_v
        err_total += e1 + e2 + neg_err

    err_total += frozen_err
    if not _converged(err_total, value, tol):
        best = QuadResult(value, err_total, counter)
        raise QuadratureNonConvergence(
            f"quadrature stalled at error estimate {err_total:g} > tol {tol:g}", best
        )
    if not math.isfinite(value):
        raise QuadratureNonConvergence(
            "integrand produced a non-finite panel value",
            QuadResult(value, math.inf, counter),
        )
    if panels is not None:
        panels += [(lo, hi) for _, _, lo, hi, _ in heap]
    return QuadResult(value, err_total, counter)


def integrate_ball(g, ball: Ball, tol: float = DEFAULT_TOL, *,
                   panels: Optional[list] = None) -> QuadResult:
    """Integral of g over B(0, r), one adaptive run over [-r, r] split at 0;
    a ``panels`` list gets its final panels, as in integrate_shell."""
    r = ball.radius
    return _adapt(g.evaluate, _panel_rule(_parity(g)), -r, r,
                  sorted({0.0, *g.singular_points}), tol, panels=panels)


def integrate_annulus(g, k: int, tol: float = DEFAULT_TOL) -> QuadResult:
    """Integral of g over the dyadic ring with 2^(k-1) <= |x| < 2^k."""
    ring = DyadicRing(k)
    return integrate_shell(g, ring.inner, ring.outer, tol=tol)


def integrate_shell(g, inner: float, outer: float, tol: float = DEFAULT_TOL, *,
                    panels: Optional[list] = None) -> QuadResult:
    """Integral of g over the shell inner <= |x| <= outer.

    Two adaptive runs at tol / 2, one per side, that share one panel rule
    (``_panel_rule``): for an exactly even or odd g, every panel of the
    right side that mirrors one of the left is read from it.  Where no jump
    of g (``singular_points``, sorted and distinct) lies inside a side, its
    run would start from one GK15 panel; those panels are taken here first,
    the right one read from the left one for an even or odd g (the rule
    inline: building it would make a table shell about a third slower), and
    where both pass the runs' test their sum is the runs' result, bit for
    bit, -0.0 included.  Otherwise the runs start afresh and compute those
    panels again.

    An exactly odd g (``odd``) integrates to the exact 0 over a finite
    shell, with no panel, unless the centre s of its ``local_majorant``
    has |s| inside the closed shell: there g may not be integrable, and the
    two runs decide as for any g.  An infinite outer radius goes straight
    to the two runs, which refuse it.

    A ``panels`` list gets the (lo, hi) of every final panel of a result,
    the one-panel result's two included.
    """
    if not (0.0 <= inner <= outer):
        raise ValueError(f"invalid shell radii ({inner}, {outer})")
    if inner == outer:
        return _ZERO
    pts = g.singular_points
    fn = g.evaluate
    odd = g.odd
    if odd and outer < math.inf:
        local = g.local_majorant
        if local is None or not inner <= abs(local[2]) <= outer:
            return _ZERO
    half = tol / 2.0
    if (outer < math.inf and bisect_right(pts, -outer) == bisect_left(pts, -inner)
            and bisect_right(pts, inner) == bisect_left(pts, outer)):
        vl, el = _gk15(fn, -outer, -inner)
        if _converged(el, vl, half) and math.isfinite(vl):
            if odd:
                vr, er = -vl, el
            elif g.even:
                vr, er = vl, el
            else:
                vr, er = _gk15(fn, inner, outer)
            if _converged(er, vr, half) and math.isfinite(vr):
                if panels is not None:
                    panels += [(-outer, -inner), (inner, outer)]
                return QuadResult((0.0 + vl) + (0.0 + vr), (0.0 + el) + (0.0 + er), 2)
    panel = _panel_rule(_parity(g))
    return (_adapt(fn, panel, -outer, -inner, pts, half, panels=panels)
            + _adapt(fn, panel, inner, outer, pts, half, panels=panels))
