"""The modular, the Luxemburg norm, and the duality pairing bracket.

The norm of f in a variable-exponent Lebesgue space is the infimum of the
lambda > 0 for which the modular of f / lambda drops to 1.  With the upper
exponent bound finite the map lambda -> modular(f / lambda) is continuous
and strictly decreasing wherever positive, so the infimum is the unique
root of modular = 1 and plain bisection finds it with a guaranteed bracket.

Whole-line modulars of compactly supported functions are exact; functions
with a certified power-law tail get a cutoff radius chosen so the analytic
tail bound sits below a quarter of the modular tolerance, which the
reported error covers.  A function with a certified local majorant
c |x - s|^a is refused when |f|^p cannot be certified integrable near s,
judged with the largest exponent value taken near s.
Anything else is refused rather than silently truncated.

A solve runs its ~30 modular passes (one per lambda tried) over nearly the
same quadrature nodes, so it keeps a node table from x to (|f(x)|, p(x))
and evaluates f and p once per distinct node; each pass recomputes only
the power (|f(x)| / lambda) ** p(x), so results are bit-identical to
evaluating f and p in every pass.  The table belongs to the solve and is
dropped when it returns.

All computations are pure; there are no module-level caches, so concurrent
calls are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .exponents import Exponent, r_p_constant
from .funcs import AdhocFunc
from .geometry import FULL_LINE, Domain, FullLine, unit_ball_volume
from .quadrature import integrate_interval, integrate_shell

BRACKET_EXPANSIONS = 200
MODULAR_TOL = 1e-11


class NotInSpaceError(ArithmeticError):
    """The modular cannot be certified finite for any scaling of f."""


class BracketExpansionError(RuntimeError):
    """Geometric bracket expansion failed to straddle modular = 1."""


@dataclass(frozen=True)
class NormResult:
    value: float
    abs_error_bound: float
    bisection_iters: int
    bracket: tuple[float, float]


def _tail_bound(coef: float, a: float, p_minus: float, dim: int, R: float) -> float:
    """Bound for the modular of a power tail coef * |x|^a beyond radius R.

    Valid when coef * R^a <= 1 (the base is below 1, so the smallest
    exponent maximizes it) and a * p_minus + dim < 0.
    """
    decay = a * p_minus + dim
    return dim * unit_ball_volume(dim) * coef ** p_minus * R ** decay / (-decay)


def _contains(domain: Domain, s: float) -> bool:
    """Whether the closed domain holds the radius |s|."""
    return isinstance(domain, FullLine) or domain.inner <= abs(s) <= domain.outer


def _modular_pieces(f, e: Exponent, domain: Domain, lam: float,
                    tol: float) -> list[tuple[float, float]]:
    """Radial integration pieces [(inner, outer), ...]; on the whole line
    the cutoff leaves a certified tail below tol / 4."""
    local = getattr(f, "local_majorant", None)
    if local is not None:
        coef, a, s = local
        # near s, |f|^p <= (coef |x - s|^a)^p, integrable when a p + codim > 0
        # for the largest p taken near s
        codim = domain.dim if s == 0.0 else 1
        p_near = e.sup_near(s)
        if _contains(domain, s) and a * p_near + codim <= 0.0:
            raise NotInSpaceError(
                f"local majorant {coef:g}*|x-{s:g}|^{a:g} is not certifiably "
                f"integrable to the power {p_near:g} in dimension {domain.dim}"
            )
    if not isinstance(domain, FullLine):
        return [(domain.inner, domain.outer)]
    R = f.support_radius
    if math.isfinite(R):
        return [(0.0, R)] if R > 0.0 else []
    tail = getattr(f, "power_tail", None)
    if tail is None:
        raise NotInSpaceError(
            "whole-line modular of a function with no certified tail majorant"
        )
    coef, a, r_from = tail
    dim = domain.dim
    if coef == 0.0:
        return [(0.0, max(r_from, 1.0))]
    if a >= 0.0 or a * e.p_minus + dim >= 0.0:
        raise NotInSpaceError(
            f"tail majorant {coef:g}*|x|^{a:g} is not certifiably integrable "
            f"to the power p_minus={e.p_minus:g} in dimension {dim}"
        )
    c_eff = coef / lam
    budget = tol / 4.0
    # march the cutoff along the fixed grid r_from * 4^j so that nearby lambda
    # values land on the same domain and reuse the solve's node table
    R_cut = max(r_from, 1.0)
    for _ in range(520):
        if c_eff * R_cut ** a <= 1.0 and \
                _tail_bound(c_eff, a, e.p_minus, dim, R_cut) <= budget:
            break
        R_cut *= 4.0
    else:
        raise NotInSpaceError("tail bound did not fall below tolerance")
    return [(0.0, R_cut)]


def _modular_passes(f, e: Exponent, domain: Domain, tol: float,
                    table: dict[float, tuple[float, float]]):
    """rho(lam) -> modular of f / lam, for the passes of one solve.

    The integrand and its breakpoints are built once.  The first pass to
    reach a quadrature node stores |f(x)| and p(x) in the caller's node
    table and every later pass reads them back, so f and p run once per
    distinct node; only (|f(x)| / lam) ** p(x) is recomputed, with the
    same operations as without the table, so every value keeps its last
    bit.
    """
    ffn = f.evaluate
    pfn = e.evaluate
    lam = 1.0

    def h(x: float) -> float:
        hit = table.get(x)
        if hit is None:
            hit = table[x] = (abs(ffn(x)), pfn(x))
        return (hit[0] / lam) ** hit[1]

    integrand = AdhocFunc(
        h,
        singular_points=(*f.singular_points, *e.breakpoints),
        support_radius=f.support_radius,
        even=getattr(f, "even", False) and e.dim >= 2,
    )
    line_breaks = (0.0, *integrand.singular_points)

    def rho(at: float) -> float:
        nonlocal lam
        lam = at
        pieces = _modular_pieces(f, e, domain, lam, tol)
        total = 0.0
        try:
            for inner, outer in pieces:
                if inner == 0.0 and domain.dim == 1:
                    res = integrate_interval(integrand, -outer, outer,
                                             breakpoints=line_breaks, tol=tol)
                else:
                    res = integrate_shell(integrand, inner, outer, tol=tol,
                                          dim=domain.dim)
                total += res.value
        except OverflowError:
            return math.inf
        return total if math.isfinite(total) else math.inf

    return rho


def modular(f, e: Exponent, domain: Domain = FULL_LINE,
            tol: float = 1e-9) -> float:
    """The modular: integral of |f(x)|^p(x) over the domain."""
    return _modular_passes(f, e, domain, tol, {})(1.0)


def _seed_lambda(f, e: Exponent, domain: Domain) -> float:
    if not isinstance(domain, FullLine):
        radius, measure = domain.outer, domain.measure
    else:
        radius = f.support_radius
        if not math.isfinite(radius):
            radius = 2.0 ** 20
        measure = unit_ball_volume(domain.dim) * radius ** domain.dim
    try:
        bound = f.abs_bound(radius)
    except Exception:
        bound = math.inf
    if not (math.isfinite(bound) and bound > 0.0 and measure > 0.0):
        return 1.0
    return max(bound * measure ** (1.0 / e.p_plus), 1e-12)


def luxemburg_norm(f, e: Exponent, domain: Domain = FULL_LINE,
                   tol: float = 1e-9) -> NormResult:
    """inf{lambda > 0 : modular(f / lambda) <= 1}, by bracketed bisection.

    Returns 0 exactly when the modular of f is 0 (f vanishes almost
    everywhere, or |f|^p underflows).  Raises NotInSpaceError when no
    scaling can make the modular finite, and BracketExpansionError if the
    geometric bracket search gives out (which does not happen for catalog
    inputs).
    """
    mod_tol = min(tol, MODULAR_TOL)
    table: dict[float, tuple[float, float]] = {}
    try:
        return _bisect(_modular_passes(f, e, domain, mod_tol, table),
                       f, e, domain, mod_tol)
    finally:
        # the table is the solve's: an error's stored traceback holds the
        # solve's frames, and through them the table
        table.clear()


def _bisect(rho, f, e: Exponent, domain: Domain, mod_tol: float) -> NormResult:
    rho1 = rho(1.0)
    if rho1 == 0.0:
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))

    lam0 = _seed_lambda(f, e, domain)
    r0 = rho(lam0)
    if r0 > 1.0:
        lo, hi = lam0, lam0
        for _ in range(BRACKET_EXPANSIONS):
            hi *= 4.0
            if rho(hi) <= 1.0:
                break
        else:
            raise NotInSpaceError(
                "modular stayed above 1 for every scaling in the expansion range"
            )
    else:
        lo, hi = lam0, lam0
        for _ in range(BRACKET_EXPANSIONS):
            lo /= 4.0
            if rho(lo) > 1.0:
                break
        else:
            raise BracketExpansionError(
                "modular never rose above 1 while shrinking lambda"
            )

    iters = 0
    while hi - lo > max(1e-10, 1e-8 * hi):
        mid = 0.5 * (lo + hi)
        rm = rho(mid)
        iters += 1
        if abs(rm - 1.0) <= 1e-10:
            lo = hi = mid
            break
        if rm > 1.0:
            lo = mid
        else:
            hi = mid
    value = 0.5 * (lo + hi)
    # modular noise delta shifts the root by at most delta * lambda / p_minus
    # (the modular's slope at the root is at least p_minus / lambda in size)
    root_shift = (1e-10 + mod_tol) * value / e.p_minus
    return NormResult(value, 0.5 * (hi - lo) + root_shift + mod_tol, iters,
                      (lo, hi))


def chi_norm(region, e: Exponent, tol: float = 1e-9) -> NormResult:
    """Norm of the characteristic function of a ball or dyadic ring.

    Uses the closed form measure^(1/p) whenever the exponent is constant
    across the region; falls back to the bisection engine otherwise.
    """
    if isinstance(region, FullLine):
        raise TypeError("chi_norm needs a Ball or DyadicRing, got the whole space")
    a, b = region.inner, region.outer
    if region.dim > 1:
        components = [(a, b)]
    elif a == 0.0:
        components = [(-b, b)]
    else:
        components = [(-b, -a), (a, b)]

    p_const = e.constant_value_on(components)
    if p_const is not None:
        value = region.measure ** (1.0 / p_const)
        return NormResult(value, 4.0 * math.ulp(value), 0, (value, value))

    one = AdhocFunc(lambda x: 1.0, (), math.inf, even=True,
                    power_tail=(1.0, 0.0, 1.0), kind="one")
    return luxemburg_norm(one, e, region, tol)


def dual_extremizer(f, e: Exponent, norm_value: float) -> AdhocFunc:
    """sgn(f) |f / norm|^(p(.) - 1): the pairing against it recovers the norm.

    With u = f / norm on the unit sphere of the modular, the conjugate
    modular of this function is again the modular of u, so its conjugate
    norm is 1 and the pairing integral equals norm * modular(u) = norm.
    """
    ffn = f.evaluate
    pfn = e.evaluate

    def g(x: float) -> float:
        v = ffn(x)
        if v == 0.0:
            return 0.0
        s = 1.0 if v > 0.0 else -1.0
        return s * (abs(v) / norm_value) ** (pfn(x) - 1.0)

    return AdhocFunc(g, (*f.singular_points, *e.breakpoints),
                     f.support_radius, even=False, kind="dual-extremizer")


def _pairing_integral(f, g, tol: float) -> float:
    prod_fn = f.evaluate
    g_fn = g.evaluate
    support = min(f.support_radius, g.support_radius)
    if not math.isfinite(support):
        raise ValueError("pairing integral needs at least one compact support")
    pts = [s for s in (*f.singular_points, *g.singular_points) if abs(s) <= support]
    res = integrate_interval(lambda x: prod_fn(x) * g_fn(x), -support, support,
                             breakpoints=(0.0, *pts), tol=tol)
    return res.value


def dual_pairing_sup(f, e: Exponent, dual_bank: Sequence,
                     tol: float = 1e-9) -> tuple[float, float]:
    """Bracket for the associate-norm supremum sup |int f g| over the unit
    ball of the conjugate space.

    lower: best pairing over the supplied bank (each member normalized by
    its conjugate norm), sharpened by the analytic extremizer.
    upper: (1 + 1/p_minus + 1/p_plus) times the norm of f.  The true
    supremum lies in between; it is bracketed, never computed.
    """
    nf = luxemburg_norm(f, e, tol=tol)
    if nf.value == 0.0:
        return 0.0, 0.0
    e_conj = e.conjugate()
    lower = 0.0
    for g in dual_bank:
        ng = luxemburg_norm(g, e_conj, tol=tol)
        if ng.value <= 0.0:
            continue
        lower = max(lower, abs(_pairing_integral(f, g, tol)) / ng.value)
    g_star = dual_extremizer(f, e, nf.value)
    ng = luxemburg_norm(g_star, e_conj, tol=tol)
    if ng.value > 0.0:
        lower = max(lower, abs(_pairing_integral(f, g_star, tol)) / ng.value)
    upper = r_p_constant(e) * nf.value
    return lower, upper
