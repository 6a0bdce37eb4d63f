"""Evaluables: the closed catalog of test functions and the functions
derived from them, all instances of one class, ``Func``.

Every evaluable carries the metadata the quadrature, norm and operator
layers integrate with:

- its jump/kink locations, so quadrature splits integration domains at
  discontinuities instead of hammering them adaptively;
- its support radius;
- a certified power-law tail (coef, exponent, r_from) when the support is
  unbounded, meaning |f(x)| <= coef * |x|**exponent for |x| >= r_from,
  which lets the norm layer truncate whole-line integrals with a provable
  tail bound;
- a certified local majorant (coef, exponent, s) when f is unbounded near
  a point s, meaning |f(x)| <= coef * |x - s|**exponent for
  0 < |x - s| <= 1, which lets the norm layer refuse a modular that cannot
  be certified integrable near s instead of integrating an infinite
  quantity;
- a sup bound for |f| on any shell lo <= |x| <= hi, which each
  constructor supplies as a closure (none means no bound, read as inf).

Catalog functions (``kind`` and ``params`` name them in their repr) and
their compositions (linear combinations, sign products, absolute powers)
stay inside the catalog and propagate their metadata.
Derived functions (operator kernels, duality extremizers, l^r aggregates,
modular integrands) are built with the same constructor and never appear
in JSON configs.  The catalog is closed on purpose: arbitrary user lambdas
have no reliable singularity metadata.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

from .geometry import Ball
from .quadrature import integrate_ball

PowerTail = tuple[float, float, float]  # (coef, exponent, r_from)
LocalMajorant = tuple[float, float, float]  # (coef, exponent, center)


class EvaluationDomainError(ValueError):
    """Evaluation requested at a point where the function is unbounded."""


class Func:
    """One evaluable; immutable, safe to share and evaluate concurrently.

    ``evaluate`` is the closure itself, not a method wrapping it, so an
    evaluation inside quadrature costs one call frame.  ``singular_points``
    is a sorted tuple of distinct floats.  ``even`` promises exact evenness:
    f(-x) is f(x) bit for bit (or raises alike) for every float x, since
    quadrature reads a GK15 panel on [-b, -a] from the one on [a, b]
    instead of evaluating it.  ``odd`` promises exact oddness: f(-x) is
    -f(x) bit for bit (or raises alike), with a zero of either sign counted
    as equal, since quadrature reads such a panel negated, and
    ``integrate_shell`` returns an exact 0 for it.  The evenness
    ``with_sign``, ``pointwise_product``, ``lr_aggregate`` and operator
    images (an odd symbol on an odd input) derive from odd parities holds
    with the same note on zeros; the mirror
    cannot see a zero's sign, since a read panel differs from a computed
    one at most in a zero's sign, and every sum that takes it starts at
    0.0, which absorbs that sign.  ``flat`` promises f constant, bit for bit
    up to a zero's sign, on each open interval between consecutive
    ``singular_points`` (the two unbounded ends included), since a Luxemburg
    pass then evaluates one node per piece.
    """

    __slots__ = ("evaluate", "singular_points", "support_radius", "even", "odd",
                 "flat", "power_tail", "local_majorant", "kind", "params", "_bound")

    def __init__(self, fn: Callable[[float], float],
                 singular_points: Sequence[float] = (),
                 support_radius: float = math.inf,
                 even: bool = False,
                 power_tail: Optional[PowerTail] = None, *,
                 odd: bool = False, flat: bool = False,
                 bound: Optional[Callable[[float, float], float]] = None,
                 local_majorant: Optional[LocalMajorant] = None,
                 kind: str = "adhoc", params: Optional[dict] = None):
        self.evaluate = fn
        self.singular_points = tuple(sorted(set(float(s) for s in singular_points)))
        self.support_radius = support_radius
        self.even = even
        self.odd = odd
        self.flat = flat
        self.power_tail = power_tail
        self.local_majorant = local_majorant
        self.kind = kind
        self.params = {} if params is None else params
        self._bound = bound

    def __repr__(self) -> str:
        return f"Func({self.kind}, {self.params})"

    def abs_bound_on(self, lo: float, hi: float) -> float:
        """Upper bound for |f| on the shell lo <= |x| <= hi (may be inf)."""
        if self._bound is None:
            return math.inf
        return self._bound(max(lo, 0.0), hi)


def _overlaps(a1: float, b1: float, a2: float, b2: float) -> bool:
    return max(a1, a2) <= min(b1, b2)


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def zero() -> Func:
    return Func(lambda x: 0.0, (), 0.0, even=True, flat=True,
                bound=lambda lo, hi: 0.0, kind="zero")


def constant(c: float) -> Func:
    c = float(c)
    if c == 0.0:
        return zero()
    return Func(lambda x: c, (), math.inf, even=True, power_tail=(abs(c), 0.0, 1.0),
                flat=True, bound=lambda lo, hi: abs(c), kind="constant",
                params={"c": c})


def chi_interval(a: float, b: float) -> Func:
    """Characteristic function of [a, b]."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b for an interval, got [{a}, {b}]")

    def fn(x: float) -> float:
        return 1.0 if a <= x <= b else 0.0

    def bound(lo: float, hi: float) -> float:
        # does the shell {lo <= |x| <= hi} meet [a, b]?
        return 1.0 if _overlaps(lo, hi, a, b) or _overlaps(-hi, -lo, a, b) else 0.0

    return Func(fn, (a, b), max(abs(a), abs(b)), even=(a == -b), flat=True,
                bound=bound, kind="characteristic-of-interval", params={"a": a, "b": b})


def chi_ball(radius: float) -> Func:
    """Characteristic function of the ball |x| <= radius."""
    return chi_interval(-float(radius), float(radius))


def chi_ring(k: int) -> Func:
    """Characteristic function of the dyadic ring 2^(k-1) <= |x| < 2^k."""
    inner, outer = 2.0 ** (k - 1), 2.0 ** k

    def fn(x: float) -> float:
        return 1.0 if inner <= abs(x) < outer else 0.0

    return Func(fn, (-outer, -inner, inner, outer), outer, even=True, flat=True,
                bound=lambda lo, hi: 1.0 if _overlaps(lo, hi, inner, outer) else 0.0,
                kind="characteristic-of-annulus",
                params={"k": k, "inner": inner, "outer": outer})


def power(a: float) -> Func:
    """|x|**a; unbounded at the origin when a < 0."""
    a = float(a)
    if a == 0.0:
        return constant(1.0)

    local = None
    if a < 0.0:
        local = (1.0, a, 0.0)

        def fn(x: float) -> float:
            if x == 0.0:
                raise EvaluationDomainError("|x|^a with a < 0 is unbounded at 0")
            return abs(x) ** a

        def bound(lo: float, hi: float) -> float:
            return math.inf if lo == 0.0 else lo ** a
    else:
        def fn(x: float) -> float:
            return abs(x) ** a

        def bound(lo: float, hi: float) -> float:
            return hi ** a

    return Func(fn, (0.0,), math.inf, even=True, power_tail=(1.0, a, 1.0),
                bound=bound, local_majorant=local, kind="power", params={"a": a})


def sign_func() -> Func:
    def fn(x: float) -> float:
        return float((x > 0.0) - (x < 0.0))

    return Func(fn, (0.0,), math.inf, odd=True, flat=True,
                power_tail=(1.0, 0.0, 1.0), bound=lambda lo, hi: 1.0, kind="sign")


def dyadic_step(k_max: int = 40) -> Func:
    """sum_k 2^k on the bands 2^k < |x| <= 2^k + 1, signed, truncated at k_max.

    Truncation is exact for any experiment confined to |x| <= 2^k_max: the
    discarded bands live strictly outside.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    top = 2.0 ** k_max + 1.0

    def fn(x: float) -> float:
        t = abs(x)
        if t <= 1.0 or t > top:
            return 0.0
        j = int(math.floor(math.log2(t)))
        for jj in (j, j - 1):
            if 0 <= jj <= k_max and 2.0 ** jj < t <= 2.0 ** jj + 1.0:
                return 2.0 ** jj * ((x > 0.0) - (x < 0.0))
        return 0.0

    def bound(lo: float, hi: float) -> float:
        best = 0.0
        for j in range(k_max + 1):
            band_lo, band_hi = 2.0 ** j, 2.0 ** j + 1.0
            if band_lo < hi and band_hi >= lo:
                best = 2.0 ** j
        return best

    pts: list[float] = []
    for j in range(k_max + 1):
        for s in (2.0 ** j, 2.0 ** j + 1.0):
            pts.extend((s, -s))
    return Func(fn, pts, top, odd=True, flat=True, bound=bound, kind="dyadic-step",
                params={"k_max": k_max})


def scaled_ball(radius: float) -> Func:
    """|x| / |B(0, radius)| on the ball, zero outside."""
    radius = float(radius)
    measure = 2.0 * radius

    def fn(x: float) -> float:
        t = abs(x)
        return t / measure if t <= radius else 0.0

    def bound(lo: float, hi: float) -> float:
        return 0.0 if lo > radius else min(hi, radius) / measure

    return Func(fn, (-radius, 0.0, radius), radius, even=True, bound=bound,
                kind="scaled-ball", params={"radius": radius, "measure": measure})


def lincomb(terms: Sequence[Func], coeffs: Sequence[float]) -> Func:
    terms = tuple(terms)
    coeffs = tuple(float(c) for c in coeffs)
    if len(terms) != len(coeffs):
        raise ValueError("terms and coeffs must have equal length")
    live = [(c, g) for c, g in zip(coeffs, terms) if c != 0.0 and g.kind != "zero"]
    if not live:
        return zero()

    def fn(x: float) -> float:
        return sum(c * g.evaluate(x) for c, g in live)

    def bound(lo: float, hi: float) -> float:
        return sum(abs(c) * g.abs_bound_on(lo, hi) for c, g in live)

    support = max(g.support_radius for _, g in live)
    pts: list[float] = []
    for _, g in live:
        pts.extend(g.singular_points)
    loose = [(abs(c), g.power_tail) for c, g in live
             if math.isinf(g.support_radius)]
    tail = None if any(t is None for _, t in loose) else combine_tails(loose)
    return Func(fn, pts, support, even=all(g.even for _, g in live),
                flat=all(g.flat for _, g in live), power_tail=tail, bound=bound,
                local_majorant=_combine_local(live), kind="linear-combination",
                params={"coeffs": [c for c, _ in live]})


def with_sign(base: Func) -> Func:
    """sgn(x) * base(x); odd for an even base and even for an odd one."""
    bfn = base.evaluate

    def fn(x: float) -> float:
        return ((x > 0.0) - (x < 0.0)) * bfn(x)

    return Func(fn, (0.0, *base.singular_points), base.support_radius,
                even=base.odd, odd=base.even, flat=base.flat,
                power_tail=base.power_tail, bound=base.abs_bound_on,
                local_majorant=base.local_majorant, kind="product-with-sign")


def abs_power(base: Func, exponent: float = 1.0) -> Func:
    """|base(x)|**exponent; exponent must be positive."""
    exponent = float(exponent)
    if exponent <= 0.0:
        raise ValueError("abs_power exponent must be positive")
    bfn = base.evaluate

    def fn(x: float) -> float:
        return abs(bfn(x)) ** exponent

    def bound(lo: float, hi: float) -> float:
        return base.abs_bound_on(lo, hi) ** exponent

    tail = None
    if base.power_tail is not None:
        c, a, r0 = base.power_tail
        tail = (c ** exponent, a * exponent, r0)
    local = None
    if base.local_majorant is not None:
        c, a, s = base.local_majorant
        local = (c ** exponent, a * exponent, s)
    return Func(fn, base.singular_points, base.support_radius, even=base.even,
                flat=base.flat, power_tail=tail, bound=bound, local_majorant=local,
                kind="pointwise-abs", params={"power": exponent})


def _combine_local(live: list[tuple[float, Func]]) -> Optional[LocalMajorant]:
    """Triangle-inequality local majorant of a weighted sum near the one
    center its unbounded terms share.

    Bounded terms enter through their sup on |x - s| <= 1, which |x - s|^a
    (a < 0) dominates there.  Unbounded terms around different centers have
    no single-center majorant, and none is claimed.
    """
    local = [(w, g.local_majorant) for w, g in live if g.local_majorant is not None]
    if not local:
        return None
    centers = {m[2] for _, m in local}
    if len(centers) > 1:
        return None
    s = centers.pop()
    a_star = min(m[1] for _, m in local)
    coef = sum(abs(w) * m[0] for w, m in local)
    coef += sum(abs(w) * g.abs_bound_on(max(abs(s) - 1.0, 0.0), abs(s) + 1.0)
                for w, g in live if g.local_majorant is None)
    return (coef, a_star, s)


def combine_tails(weighted: list[tuple[float, Optional[PowerTail]]]) -> Optional[PowerTail]:
    """Triangle-inequality majorant of a weighted sum of power tails.

    Callers pass only the non-compact terms (compact ones vanish beyond
    their support); returns None when the list is empty.
    """
    live = [(w, t) for w, t in weighted if t is not None and w != 0.0]
    if not live:
        return None
    a_star = max(t[1] for _, t in live)
    r_from = max(max(t[2] for _, t in live), 1.0)
    coef = sum(w * t[0] * r_from ** (t[1] - a_star) for w, t in live)
    return (coef, a_star, r_from)


# ---------------------------------------------------------------------------
# derived functions (operator kernels, dual extremizers, pointwise aggregates)
# ---------------------------------------------------------------------------

def pointwise_product(f, g) -> Func:
    """f * g with merged metadata, for the commutator kernels and the pairing.

    Even when both factors are even or both odd.  Odd when exactly one is
    odd and the other even, unless a factor is unbounded near a point: the
    product carries no local majorant, so ``integrate_shell`` could not
    tell a shell that holds the singularity from one that does not.
    """
    ffn, gfn = f.evaluate, g.evaluate
    support = min(f.support_radius, g.support_radius)
    pts = [s for s in (*f.singular_points, *g.singular_points) if abs(s) <= support]
    tail = None
    if math.isinf(support):
        tf, tg = f.power_tail, g.power_tail
        if tf is not None and tg is not None:
            r0 = max(tf[2], tg[2])
            tail = (tf[0] * tg[0], tf[1] + tg[1], r0)

    def bound(lo: float, hi: float) -> float:
        return f.abs_bound_on(lo, hi) * g.abs_bound_on(lo, hi)

    bounded = f.local_majorant is None and g.local_majorant is None
    return Func(lambda x: ffn(x) * gfn(x), pts, support,
                even=(f.even and g.even) or (f.odd and g.odd),
                odd=bounded and ((f.odd and g.even) or (f.even and g.odd)),
                flat=f.flat and g.flat,
                power_tail=tail, bound=bound, kind="product")


def shifted(f, c: float) -> Func:
    """f - c, for oscillation norms over bounded domains."""
    ffn = f.evaluate
    c = float(c)

    def bound(lo: float, hi: float) -> float:
        return f.abs_bound_on(lo, hi) + abs(c)

    support = f.support_radius if c == 0.0 else math.inf
    return Func(lambda x: ffn(x) - c, f.singular_points, support, even=f.even,
                flat=f.flat, bound=bound, kind="shifted")


def lr_aggregate(fs: Sequence, r: float) -> Func:
    """Pointwise (sum_j |f_j(x)|^r)^(1/r) of finitely many evaluables; even
    where every member is even or odd, since |f_j| then is."""
    r = float(r)
    if not fs:
        raise ValueError("need at least one function to aggregate")
    if not r > 0.0:
        raise ValueError("aggregate index must be positive")
    fns = [f.evaluate for f in fs]

    def fn(x: float) -> float:
        return sum(abs(g(x)) ** r for g in fns) ** (1.0 / r)

    pts: list[float] = []
    for f in fs:
        pts.extend(f.singular_points)
    support = max(f.support_radius for f in fs)
    # the l^r of the tail majorants is below their plain sum, so the summed
    # majorant is valid; one uncertified non-compact member poisons it
    loose = [(1.0, f.power_tail) for f in fs if math.isinf(f.support_radius)]
    tail = None if any(t is None for _, t in loose) else combine_tails(loose)

    def bound(lo: float, hi: float) -> float:
        return sum(f.abs_bound_on(lo, hi) ** r for f in fs) ** (1.0 / r)

    return Func(fn, pts, support, even=all(f.even or f.odd for f in fs),
                flat=all(f.flat for f in fs), power_tail=tail, bound=bound,
                kind="lr-aggregate")


# ---------------------------------------------------------------------------
# ball means and ranges
# ---------------------------------------------------------------------------

class BallMean(NamedTuple):
    value: float
    abs_error_bound: float


def mean_on_ball(f, ball: Ball, tol: float = 1e-9) -> BallMean:
    """Average of f over the ball, with the quadrature error bound scaled in."""
    res = integrate_ball(f, ball, tol=tol)
    m = ball.measure
    return BallMean(res.value / m, res.abs_error_bound / m)


def range_on_ball(f, ball: Ball) -> tuple[float, float]:
    """Sampled (min, max) of f over the ball, for bracketing shift searches.

    Exact for piecewise-constant catalog members (every panel midpoint is
    sampled); a proxy from 65 even samples otherwise.  Points where f is
    unbounded are skipped.
    """
    r = ball.radius
    xs = {-r, r, 0.0}
    inner = sorted(s for s in f.singular_points if -r < s < r)
    edges = [-r, *inner, r]
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.add(0.5 * (lo + hi))
        xs.add(lo + 0.25 * (hi - lo))
    for j in range(65):
        xs.add(-r + (2.0 * r) * j / 64)
    vals = []
    for x in sorted(xs):
        try:
            vals.append(f.evaluate(x))
        except EvaluationDomainError:
            continue
    return min(vals), max(vals)


# ---------------------------------------------------------------------------
# the standard test bank
# ---------------------------------------------------------------------------

def catalog_bank() -> list[tuple[str, Func]]:
    """Named, nonzero, norm-finite representatives of every catalog kind.

    This is the default bank for unit-ball, homogeneity, and duality
    sweeps.  All members are compactly supported so whole-line norms are
    exact.
    """
    return [
        ("chi01", chi_interval(0.0, 1.0)),
        ("chi_pm1", chi_interval(-1.0, 1.0)),
        ("ring1", chi_ring(1)),
        ("step_mix", lincomb([chi_interval(0.0, 1.0), chi_interval(1.0, 3.0)],
                             [1.0, -2.0])),
        ("hat", lincomb([chi_interval(-1.0, 1.0), chi_interval(-0.5, 0.5)],
                        [1.0, 1.0])),
        ("f0_r1", scaled_ball(1.0)),
        ("f0_r4", scaled_ball(4.0)),
        ("sgn_window", with_sign(chi_interval(-2.0, 2.0))),
        ("ramp_half", abs_power(scaled_ball(2.0), 0.5)),
        ("ramp_quarter", abs_power(scaled_ball(1.0), 0.25)),
        ("dyadic_step", dyadic_step()),
    ]
