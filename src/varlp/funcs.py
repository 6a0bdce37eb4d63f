"""A closed catalog of exactly evaluable test functions on the line.

Every function carries its jump/kink locations and its support radius, so
the quadrature layer can split integration domains at discontinuities
instead of hammering them adaptively.  Functions with unbounded support
additionally carry a certified power-law majorant (coef, exponent, r_from)
meaning |f(x)| <= coef * |x|**exponent for |x| >= r_from, which is what the
norm layer uses to truncate whole-line integrals with a provable tail
bound.  Functions unbounded near a point s carry a certified local
majorant (coef, exponent, s) meaning |f(x)| <= coef * |x - s|**exponent for
0 < |x - s| <= 1, which lets the norm layer refuse a modular that cannot be
certified integrable near s instead of integrating an infinite quantity.

The catalog is closed on purpose: arbitrary user lambdas have no reliable
singularity metadata.  Compositions (linear combinations, sign products,
absolute powers) stay inside the catalog and propagate their metadata.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

from .geometry import Ball, unit_ball_volume
from .quadrature import integrate_ball

PowerTail = tuple[float, float, float]  # (coef, exponent, r_from)
LocalMajorant = tuple[float, float, float]  # (coef, exponent, center)


class EvaluationDomainError(ValueError):
    """Evaluation requested at a point where the function is unbounded."""


class Func:
    """One catalog function; immutable, safe to share and evaluate concurrently.

    ``evaluate`` is the catalog closure itself, not a method wrapping it, so
    an evaluation inside quadrature costs one call frame.
    """

    __slots__ = ("kind", "params", "support_radius", "singular_points", "even",
                 "power_tail", "local_majorant", "evaluate", "_children")

    def __init__(self, kind: str, params: dict, fn: Callable[[float], float],
                 support_radius: float, singular_points: Sequence[float],
                 even: bool, power_tail: Optional[PowerTail] = None,
                 children: tuple = (),
                 local_majorant: Optional[LocalMajorant] = None):
        self.kind = kind
        self.params = params
        self.support_radius = support_radius
        self.singular_points = tuple(sorted(set(float(s) for s in singular_points)))
        self.even = even
        self.power_tail = power_tail
        self.local_majorant = local_majorant
        self.evaluate = fn
        self._children = children

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def __repr__(self) -> str:
        return f"Func({self.kind}, {self.params})"

    # -- metadata helpers ---------------------------------------------------

    def abs_bound_on(self, lo: float, hi: float) -> float:
        """Upper bound for |f| on the shell lo <= |x| <= hi (may be inf)."""
        return _abs_bound(self, max(lo, 0.0), hi)

    def abs_bound(self, radius: float) -> float:
        return _abs_bound(self, 0.0, radius)


def _overlaps(a1: float, b1: float, a2: float, b2: float) -> bool:
    return max(a1, a2) <= min(b1, b2)


def _shell_hits_interval(lo: float, hi: float, a: float, b: float) -> bool:
    # does {lo <= |x| <= hi} intersect [a, b]?
    return _overlaps(lo, hi, a, b) or _overlaps(-hi, -lo, a, b)


def _abs_bound(f: Func, lo: float, hi: float) -> float:
    k = f.kind
    p = f.params
    if k == "zero":
        return 0.0
    if k == "constant":
        return abs(p["c"])
    if k == "characteristic-of-interval":
        return 1.0 if _shell_hits_interval(lo, hi, p["a"], p["b"]) else 0.0
    if k == "characteristic-of-annulus":
        return 1.0 if _overlaps(lo, hi, p["inner"], p["outer"]) else 0.0
    if k == "power":
        a = p["a"]
        if a >= 0.0:
            return hi ** a
        return math.inf if lo == 0.0 else lo ** a
    if k == "sign":
        return 1.0
    if k == "dyadic-step":
        best = 0.0
        for j in range(p["k_max"] + 1):
            band_lo, band_hi = 2.0 ** j, 2.0 ** j + 1.0
            if band_lo < hi and band_hi >= lo:
                best = 2.0 ** j
        return best
    if k == "scaled-ball":
        r = p["radius"]
        if lo > r:
            return 0.0
        return min(hi, r) ** p["dim"] / p["measure"]
    if k == "linear-combination":
        return sum(abs(c) * _abs_bound(g, lo, hi)
                   for c, g in zip(p["coeffs"], f._children))
    if k == "product-with-sign":
        return _abs_bound(f._children[0], lo, hi)
    if k == "pointwise-abs":
        base = _abs_bound(f._children[0], lo, hi)
        return base ** p["power"]
    raise ValueError(f"unknown catalog kind {k!r}")


# ---------------------------------------------------------------------------
# catalog constructors
# ---------------------------------------------------------------------------

def zero() -> Func:
    return Func("zero", {}, lambda x: 0.0, 0.0, (), even=True)


def constant(c: float) -> Func:
    c = float(c)
    if c == 0.0:
        return zero()
    return Func("constant", {"c": c}, lambda x: c, math.inf, (), even=True,
                power_tail=(abs(c), 0.0, 1.0))


def chi_interval(a: float, b: float) -> Func:
    """Characteristic function of [a, b]."""
    a, b = float(a), float(b)
    if not a < b:
        raise ValueError(f"need a < b for an interval, got [{a}, {b}]")

    def fn(x: float) -> float:
        return 1.0 if a <= x <= b else 0.0

    return Func("characteristic-of-interval", {"a": a, "b": b}, fn,
                max(abs(a), abs(b)), (a, b), even=(a == -b))


def chi_ball(radius: float) -> Func:
    """Characteristic function of the ball |x| <= radius."""
    return chi_interval(-float(radius), float(radius))


def chi_ring(k: int) -> Func:
    """Characteristic function of the dyadic ring 2^(k-1) <= |x| < 2^k."""
    inner, outer = 2.0 ** (k - 1), 2.0 ** k

    def fn(x: float) -> float:
        return 1.0 if inner <= abs(x) < outer else 0.0

    return Func("characteristic-of-annulus", {"k": k, "inner": inner, "outer": outer},
                fn, outer, (-outer, -inner, inner, outer), even=True)


def power(a: float) -> Func:
    """|x|**a; unbounded at the origin when a < 0."""
    a = float(a)
    if a == 0.0:
        return constant(1.0)

    local = None
    if a < 0.0:
        def fn(x: float) -> float:
            if x == 0.0:
                raise EvaluationDomainError("|x|^a with a < 0 is unbounded at 0")
            return abs(x) ** a
        local = (1.0, a, 0.0)
    else:
        def fn(x: float) -> float:
            return abs(x) ** a

    return Func("power", {"a": a}, fn, math.inf, (0.0,), even=True,
                power_tail=(1.0, a, 1.0), local_majorant=local)


def sign_func() -> Func:
    def fn(x: float) -> float:
        return float((x > 0.0) - (x < 0.0))

    return Func("sign", {}, fn, math.inf, (0.0,), even=False,
                power_tail=(1.0, 0.0, 1.0))


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

    pts: list[float] = []
    for j in range(k_max + 1):
        for s in (2.0 ** j, 2.0 ** j + 1.0):
            pts.extend((s, -s))
    return Func("dyadic-step", {"k_max": k_max}, fn, top, pts, even=False)


def scaled_ball(radius: float, dim: int = 1) -> Func:
    """|x|^n / |B(0, radius)| on the ball, zero outside."""
    radius = float(radius)
    measure = unit_ball_volume(dim) * radius ** dim

    def fn(x: float) -> float:
        t = abs(x)
        return t ** dim / measure if t <= radius else 0.0

    return Func("scaled-ball", {"radius": radius, "dim": dim, "measure": measure},
                fn, radius, (-radius, 0.0, radius), even=True)


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

    support = max(g.support_radius for _, g in live)
    pts: list[float] = []
    for _, g in live:
        pts.extend(g.singular_points)
    loose = [(abs(c), g.power_tail) for c, g in live
             if math.isinf(g.support_radius)]
    tail = None if any(t is None for _, t in loose) else _combine_tails(loose)
    return Func("linear-combination",
                {"coeffs": [c for c, _ in live]},
                fn, support, pts, even=all(g.even for _, g in live),
                power_tail=tail, children=tuple(g for _, g in live),
                local_majorant=_combine_local(live))


def with_sign(base: Func) -> Func:
    """sgn(x) * base(x)."""
    bfn = base.evaluate

    def fn(x: float) -> float:
        return ((x > 0.0) - (x < 0.0)) * bfn(x)

    return Func("product-with-sign", {}, fn, base.support_radius,
                (0.0, *base.singular_points), even=False,
                power_tail=base.power_tail, children=(base,),
                local_majorant=base.local_majorant)


def abs_power(base: Func, exponent: float = 1.0) -> Func:
    """|base(x)|**exponent; exponent must be positive."""
    exponent = float(exponent)
    if exponent <= 0.0:
        raise ValueError("abs_power exponent must be positive")
    bfn = base.evaluate

    def fn(x: float) -> float:
        return abs(bfn(x)) ** exponent

    tail = None
    if base.power_tail is not None:
        c, a, r0 = base.power_tail
        tail = (c ** exponent, a * exponent, r0)
    local = None
    if base.local_majorant is not None:
        c, a, s = base.local_majorant
        local = (c ** exponent, a * exponent, s)
    return Func("pointwise-abs", {"power": exponent}, fn, base.support_radius,
                base.singular_points, even=base.even, power_tail=tail,
                children=(base,), local_majorant=local)


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


def _combine_tails(weighted: list[tuple[float, Optional[PowerTail]]]) -> Optional[PowerTail]:
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
# ad hoc evaluables (operator images, dual extremizers, pointwise aggregates)
# ---------------------------------------------------------------------------

class AdhocFunc:
    """A non-catalog evaluable carrying the same integration metadata.

    Used for quantities derived pointwise from catalog objects (operator
    outputs, duality extremizers, l^r aggregates).  These never appear in
    JSON configs.
    """

    __slots__ = ("evaluate", "support_radius", "singular_points", "even",
                 "power_tail", "_abs_bound_fn", "kind")

    def __init__(self, fn: Callable[[float], float],
                 singular_points: Sequence[float] = (),
                 support_radius: float = math.inf,
                 even: bool = False,
                 power_tail: Optional[PowerTail] = None,
                 abs_bound_fn: Optional[Callable[[float, float], float]] = None,
                 kind: str = "adhoc"):
        self.evaluate = fn
        self.singular_points = tuple(sorted(set(float(s) for s in singular_points)))
        self.support_radius = support_radius
        self.even = even
        self.power_tail = power_tail
        self._abs_bound_fn = abs_bound_fn
        self.kind = kind

    def __call__(self, x: float) -> float:
        return self.evaluate(x)

    def abs_bound_on(self, lo: float, hi: float) -> float:
        if self._abs_bound_fn is None:
            return math.inf
        return self._abs_bound_fn(max(lo, 0.0), hi)

    def abs_bound(self, radius: float) -> float:
        return self.abs_bound_on(0.0, radius)


def pointwise_product(f, g) -> AdhocFunc:
    """f * g with merged metadata; used by the commutator kernels."""
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

    return AdhocFunc(lambda x: ffn(x) * gfn(x), pts, support,
                     even=(f.even and g.even), power_tail=tail,
                     abs_bound_fn=bound, kind="product")


def shifted(f, c: float) -> AdhocFunc:
    """f - c, for oscillation norms over bounded domains."""
    ffn = f.evaluate
    c = float(c)

    def bound(lo: float, hi: float) -> float:
        return f.abs_bound_on(lo, hi) + abs(c)

    support = f.support_radius if c == 0.0 else math.inf
    return AdhocFunc(lambda x: ffn(x) - c, f.singular_points, support,
                     even=f.even, power_tail=None, abs_bound_fn=bound,
                     kind="shifted")


def lr_aggregate(fs: Sequence, r: float) -> AdhocFunc:
    """Pointwise (sum_j |f_j(x)|^r)^(1/r) of finitely many evaluables."""
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
    tail = None if any(t is None for _, t in loose) else _combine_tails(loose)

    def bound(lo: float, hi: float) -> float:
        return sum(f.abs_bound_on(lo, hi) ** r for f in fs) ** (1.0 / r)

    return AdhocFunc(fn, pts, support, even=all(f.even for f in fs),
                     power_tail=tail, abs_bound_fn=bound, kind="lr-aggregate")


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


def range_on_ball(f, ball: Ball, samples: int = 65) -> tuple[float, float]:
    """Sampled (min, max) of f over the ball, for bracketing shift searches.

    Exact for piecewise-constant catalog members (every panel midpoint is
    sampled); a dense proxy otherwise.  Points where f is unbounded are
    skipped.
    """
    r = ball.radius
    xs = {-r, r, 0.0}
    inner = sorted(s for s in f.singular_points if -r < s < r)
    edges = [-r, *inner, r]
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.add(0.5 * (lo + hi))
        xs.add(lo + 0.25 * (hi - lo))
    for j in range(samples):
        xs.add(-r + (2.0 * r) * j / (samples - 1))
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
