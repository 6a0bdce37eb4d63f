"""Central mean-oscillation norms and homogeneous Herz norms.

The central BMO quantities are suprema over origin-centered balls of the
oscillation ratio ||(f - c) chi_B|| / ||chi_B||, with the center c taken as
the ball average (the defining variant), an arbitrary per-ball number (the
star variant), or the minimizing constant (the inf variant, convex in c and
found by golden-section search).  Suprema are grid-approximated on the
radius grid the caller passes (``default_radius_grid`` builds a geometric
one); a sweep whose maximum sits at the grid edge gets a log-log growth
fit attached so divergence claims are reproducible rather than anecdotal.

Herz norms aggregate weighted ring norms 2^(alpha k) ||f chi_k|| in l^q
over the ring range the caller passes.
The two aggregation branches (q <= 1 and q > 1) are deliberately separate
code paths that must agree at q = 1; ring sums outside the computed range
are bounded through sup-on-ring majorants and reported, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .exponents import Exponent
from .funcs import abs_power, lr_aggregate, mean_on_ball, range_on_ball, shifted
from .geometry import Ball, DyadicRing
from .norms import chi_norm, luxemburg_norm
from .quadrature import integrate_ball
from .report import fit_loglog

DIVERGENCE_SLOPE = 0.05


@dataclass
class SpaceNormResult:
    """A grid supremum or ring aggregate with its per-scale breakdown."""

    value: float
    breakdown: list[tuple[float, float]] = field(default_factory=list)
    divergence_fit: Optional[tuple[float, float]] = None
    diverged: bool = False
    tail_bound: float = 0.0


def default_radius_grid(k_lo: int, k_hi: int) -> list[float]:
    """The geometric grid 2^k_lo, ..., 2^k_hi."""
    return [2.0 ** k for k in range(k_lo, k_hi + 1)]


def _attach_divergence(result: SpaceNormResult) -> SpaceNormResult:
    scales = [s for s, _ in result.breakdown]
    values = [v for _, v in result.breakdown]
    if not values or max(values) <= 0.0:
        return result
    if values.index(max(values)) == len(values) - 1:
        fit = fit_loglog(scales, values)
        if fit is not None:
            result.divergence_fit = fit
            result.diverged = fit[0] > DIVERGENCE_SLOPE
    return result


def _sweep(grid: Sequence[float], ratio) -> SpaceNormResult:
    """Grid supremum of ratio(r), with its per-radius breakdown."""
    breakdown = [(r, ratio(r)) for r in grid]
    value = max((v for _, v in breakdown), default=0.0)
    return _attach_divergence(SpaceNormResult(value, breakdown))


def _center_sweep(f, e: Exponent, grid: Sequence[float],
                  centers: Optional[Sequence[float]], tol: float) -> SpaceNormResult:
    """Oscillation sweep about centers[i] on the i-th grid ball, or about
    each ball's average when centers is None."""
    pending = iter(centers) if centers is not None else None

    def ratio(r: float) -> float:
        ball = Ball(r)
        c = mean_on_ball(f, ball, tol=tol).value if pending is None else next(pending)
        num = luxemburg_norm(shifted(f, c), e, ball, tol=tol).value
        return num / chi_norm(ball, e, tol=tol).value

    return _sweep(grid, ratio)


def cbmo_var_norm(f, e: Exponent, radius_grid: Sequence[float],
                  tol: float = 1e-9) -> SpaceNormResult:
    """sup over the grid's balls of ||(f - f_B) chi_B|| / ||chi_B|| in L^p(.)."""
    return _center_sweep(f, e, radius_grid, None, tol)


def cbmo_classical_norm(f, p: float, radius_grid: Sequence[float],
                        tol: float = 1e-9) -> SpaceNormResult:
    """sup over the grid's balls of the p-mean oscillation, computed directly
    from the integral formula (no bisection), so it can serve as an
    independent cross-check of the variable-exponent engine at constant p."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"classical oscillation index must be in [1, inf), got {p}")

    def ratio(r: float) -> float:
        ball = Ball(r)
        g = shifted(f, mean_on_ball(f, ball, tol=tol).value)
        res = integrate_ball(abs_power(g, p), ball, tol=tol)
        return (res.value / ball.measure) ** (1.0 / p)

    return _sweep(radius_grid, ratio)


CenterRule = Union[str, Sequence[float]]


def cbmo_star_norm(f, e: Exponent, center_rule: CenterRule,
                   radius_grid: Sequence[float],
                   tol: float = 1e-9) -> SpaceNormResult:
    """Oscillation supremum over the grid's balls with per-ball centers c_B
    supplied by the rule.

    center_rule is either "ball-average" (reduces to the defining variant)
    or a sequence of centers parallel to the radius grid.
    """
    if isinstance(center_rule, str):
        if center_rule != "ball-average":
            raise ValueError(f"unknown center rule {center_rule!r}")
        centers = None
    else:
        centers = [float(c) for c in center_rule]
        if len(centers) != len(radius_grid):
            raise ValueError("per-ball center list must match the radius grid")
    return _center_sweep(f, e, radius_grid, centers, tol)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of a convex fn on [lo, hi].

    The search stops once the bracket is narrower than 1e-8 (1 + |mid|),
    so the termination rule scales with the size of the minimizer.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > 1e-8 * (1.0 + abs(0.5 * (a + b))):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    x = c if fc <= fd else d
    return x, min(fc, fd)


def cbmo_inf_norm(f, e: Exponent, radius_grid: Sequence[float],
                  tol: float = 1e-9) -> SpaceNormResult:
    """sup over the grid's balls of inf_c ||(f - c) chi_B|| / ||chi_B||.

    The norm is convex in the shift c and the minimizer lies in the closed
    hull of f's values on the ball, so golden-section on that bracket is
    safe.  A degenerate bracket (f constant on the ball) contributes 0.
    """
    def ratio(r: float) -> float:
        ball = Ball(r)
        lo, hi = range_on_ball(f, ball)
        span = hi - lo
        if span <= 1e-13 * (1.0 + max(abs(lo), abs(hi))):
            return 0.0
        den = chi_norm(ball, e, tol=tol).value
        _, best = golden_min(
            lambda c: luxemburg_norm(shifted(f, c), e, ball, tol=tol).value,
            lo - 1e-6 * span, hi + 1e-6 * span)
        return best / den

    return _sweep(radius_grid, ratio)


# ---------------------------------------------------------------------------
# Herz norms
# ---------------------------------------------------------------------------

def lq_aggregate_small(contribs: Sequence[float], q: float) -> float:
    """(sum c^q)^(1/q); the branch used for 0 < q <= 1."""
    total = sum(c ** q for c in contribs if c > 0.0)
    return total ** (1.0 / q) if total > 0.0 else 0.0


def lq_aggregate_large(contribs: Sequence[float], q: float) -> float:
    """max-rescaled (sum c^q)^(1/q); the branch used for q > 1."""
    m = max((c for c in contribs if c > 0.0), default=0.0)
    if m == 0.0:
        return 0.0
    total = sum((c / m) ** q for c in contribs if c > 0.0)
    return m * total ** (1.0 / q)


def lq_aggregate(contribs: Sequence[float], q: float) -> float:
    if not 0.0 < q < math.inf:
        raise ValueError(f"aggregation index must be in (0, inf), got {q}")
    if q <= 1.0:
        return lq_aggregate_small(contribs, q)
    return lq_aggregate_large(contribs, q)


def _ring_norm_bound(f, e: Exponent, k: int) -> float:
    """Certified upper bound for ||f chi_k||: sup on the ring times the
    measure-based bound for the ring characteristic norm."""
    ring = DyadicRing(k)
    sup = f.abs_bound_on(ring.inner, ring.outer)
    if sup == 0.0:
        return 0.0
    m = ring.measure
    return sup * max(m ** (1.0 / e.p_minus), m ** (1.0 / e.p_plus))


def herz_breakdown(f, e: Exponent, alpha: float, k_range: Sequence[int],
                   tol: float = 1e-9) -> tuple[list[tuple[float, float]], float]:
    """Per-ring contributions 2^(alpha k) ||f chi_k|| over the increasing
    k_range plus a certified bound for everything outside it.

    Raises when the out-of-range sum cannot be certified (the function
    neither vanishes there nor admits a usable majorant).
    """
    breakdown = []
    for k in k_range:
        ring = DyadicRing(k)
        if ring.inner >= f.support_radius:
            breakdown.append((2.0 ** k, 0.0))
            continue
        nrm = luxemburg_norm(f, e, ring, tol=tol).value
        breakdown.append((2.0 ** k, 2.0 ** (alpha * k) * nrm))

    tail = 0.0
    k_hi, k_lo = k_range[-1], k_range[0]
    if not (math.isfinite(f.support_radius) and 2.0 ** k_hi >= f.support_radius):
        tail += _sum_ring_bounds(f, e, alpha, k_hi + 1, step=1)
    tail += _sum_ring_bounds(f, e, alpha, k_lo - 1, step=-1)
    return breakdown, tail


def _sum_ring_bounds(f, e: Exponent, alpha: float, start_k: int, step: int) -> float:
    """Bound the weighted ring-norm sum over all rings beyond start_k.

    The per-ring majorants of catalog functions and operator images are
    exact powers of 2 in k, so summing explicit bounds until they become
    negligible relative to the running total certifies the remainder; a
    sum that is not negligible within 400 rings is refused.
    """
    total = 0.0
    term = math.inf
    k = start_k
    for _ in range(400):
        term = 2.0 ** (alpha * k) * _ring_norm_bound(f, e, k)
        if term == 0.0:
            return total
        total += term
        if term <= 1e-13 * max(total, 1e-300):
            # remaining terms are a vanishing geometric residue
            return total + 1e3 * term
        k += step
    raise ArithmeticError(
        f"ring sums beyond k={start_k} (step {step}) are not certifiably summable"
    )


def herz_norm(f, e: Exponent, alpha: float, q: float, k_range: Sequence[int],
              tol: float = 1e-9) -> SpaceNormResult:
    """Homogeneous Herz norm: the l^q aggregate over the dyadic rings of
    k_range of the weighted ring norms 2^(alpha k) ||f chi_k||."""
    if not 0.0 < q < math.inf:
        raise ValueError(f"Herz index q must be in (0, inf), got {q}")
    breakdown, tail = herz_breakdown(f, e, alpha, k_range, tol)
    value = lq_aggregate([v for _, v in breakdown], q)
    res = SpaceNormResult(value, breakdown, tail_bound=tail)
    return _attach_divergence(res)


def herz_norm_vector(fs: Sequence, r: float, e: Exponent, alpha: float, q: float,
                     k_range: Sequence[int], tol: float = 1e-9) -> SpaceNormResult:
    """Herz norm of the pointwise l^r aggregate of finitely many functions."""
    if not 1.0 < r < math.inf:
        raise ValueError(f"vector aggregation index must be in (1, inf), got {r}")
    return herz_norm(lr_aggregate(fs, r), e, alpha, q, k_range, tol)
