"""The modular, the Luxemburg norm, and the duality pairing bracket.

The norm of f in a variable-exponent Lebesgue space is the infimum of the
lambda > 0 for which the modular of f / lambda drops to 1.  With the upper
exponent bound finite the map lambda -> modular(f / lambda) is continuous
and strictly decreasing wherever positive, so the infimum is the unique
root of modular = 1 and plain bisection finds it with a guaranteed bracket.

A domain is read by its radii: a ball, a dyadic ring and the whole line
(inner 0, outer inf) all carry inner and outer.  Whole-line modulars of
compactly supported functions are exact; functions with a certified
power-law tail get a cutoff radius chosen so the analytic tail bound sits
below a quarter of the modular tolerance, which the reported error covers.
A function with a certified local majorant c |x - s|^a is refused when
|f|^p cannot be certified integrable near s, judged with the largest
exponent value taken near s.  Anything else is refused rather than
silently truncated.  These refusals do not depend on lambda, so they are
made before a solve builds anything.

The bisection stops when hi - lo <= 1e-8 hi, a relative width, so small
norms keep their relative accuracy.  Its result depends only on how each
modular it tries compares with 1 and with the exit band, so a pass runs
only where that comparison is open.  The modular's model, a sum of
w lam^-q read from the lam = 1 pass, decides which: rho(1) lam^-p where p
is constant on the domain, so no pass keeps its panels; sum of
|I| |c|^q lam^-q over the pass's final panels for flat data under a step
p; otherwise the pass's GK15 sum of |f(x)|^p(x) lam^-p(x), read from the
node table and grouped by p(x), a mirrored pair of panels read once.
Only passes within a noise margin of its root run: about 3 per solve.
Where a pass misses the model (the lam = 1 panels of a chi norm are too
coarse at its root), the model is rebuilt once from that pass's panels.
Exact passes at the final lo and hi, and at the bracket edge the
bisection did not pass, vouch for every skipped comparison, because the
modular decreases between points at least ~1e-8 apart in relative terms;
if one lands on the wrong side, or a pass misses the rebuilt model, the
search runs again with every pass exact, as does a solve with no model.
Results are therefore bit-identical to running every pass.

The passes of a solve run over nearly the same quadrature nodes, so it
keeps a node table from x to (|f(x)|, p(x)) and evaluates f and p once
per distinct node; each pass recomputes only the power
(|f(x)| / lambda) ** p(x), so results are bit-identical to evaluating f
and p in every pass.  Where p is constant on the domain the table holds
|f(x)| alone and no node evaluates p.  For flat data under a step p
(constant on each open piece between the integrand's cuts), a pass
computes one value per piece it enters: a node strictly inside the
previous node's piece takes that piece's value, a node on a cut is
computed as any other.  The table belongs to the solve and is dropped
when it returns.

A pass integrates a piece from the origin with integrate_ball and any other
with integrate_shell, and the pairing integrates over a ball, so quadrature
decides every split.  The integrand (|f| / lambda)^p is exactly even
where f is even or odd and p is constant on the domain or exactly even
(Exponent.even), and says so, so quadrature reads the panels of one side
from their mirrors on the other, no node evaluates f or p at both x and
-x, and the model reads each mirrored pair of final panels once.  All of
it is pure, with no module-level caches.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .exponents import Exponent, r_p_constant
from .funcs import Func, pointwise_product
from .geometry import FULL_LINE, Ball, Domain
from .quadrature import gk15_nodes, integrate_ball, integrate_shell

BRACKET_EXPANSIONS = 200
MODULAR_TOL = 1e-11
EXIT_BAND = 1e-10  # a bisection point with |rho - 1| <= EXIT_BAND is the root
NOISE = 1e-9       # relative noise allowed a computed modular when predicting


class NotInSpaceError(ArithmeticError):
    """The modular cannot be certified finite for any scaling of f."""


class BracketExpansionError(RuntimeError):
    """Geometric bracket expansion failed to straddle modular = 1."""


class _BoundsMiss(Exception):
    """An exact pass, its lam the one argument, missed the model, or fell
    on the wrong side of a comparison the model skipped."""


@dataclass(frozen=True, slots=True)
class NormResult:
    value: float
    abs_error_bound: float
    bisection_iters: int
    bracket: tuple[float, float]


def _tail_bound(coef: float, a: float, p_minus: float, R: float) -> float:
    """Bound for the modular of a power tail coef * |x|^a beyond radius R.

    Valid when coef * R^a <= 1 (the base is below 1, so the smallest
    exponent maximizes it) and a * p_minus + 1 < 0.
    """
    decay = a * p_minus + 1.0
    return 2.0 * coef ** p_minus * R ** decay / (-decay)


def _refuse(f, e: Exponent, domain: Domain) -> None:
    """Raise NotInSpaceError when no scaling of f has a certified finite
    modular: a local majorant too singular for the exponent near its
    center, or on the whole line a missing or too slowly decaying tail."""
    local = f.local_majorant
    if local is not None:
        coef, a, s = local
        # near s, |f|^p <= (coef |x - s|^a)^p, integrable when a p + 1 > 0
        # for the largest p taken near s
        p_near = e.sup_near(s)
        if domain.inner <= abs(s) <= domain.outer and a * p_near + 1.0 <= 0.0:
            raise NotInSpaceError(
                f"local majorant {coef:g}*|x-{s:g}|^{a:g} is not certifiably "
                f"integrable to the power {p_near:g} in dimension 1"
            )
    if domain.outer < math.inf or math.isfinite(f.support_radius):
        return
    tail = f.power_tail
    if tail is None:
        raise NotInSpaceError(
            "whole-line modular of a function with no certified tail majorant"
        )
    coef, a, _ = tail
    if coef != 0.0 and (a >= 0.0 or a * e.p_minus + 1.0 >= 0.0):
        raise NotInSpaceError(
            f"tail majorant {coef:g}*|x|^{a:g} is not certifiably integrable "
            f"to the power p_minus={e.p_minus:g} in dimension 1"
        )


def _modular_pieces(f, e: Exponent, domain: Domain, lam: float,
                    tol: float) -> list[tuple[float, float]]:
    """Radial integration pieces [(inner, outer), ...] of a function that
    passed _refuse; on the whole line the cutoff leaves a certified tail
    below tol / 4."""
    if domain.outer < math.inf:
        return [(domain.inner, domain.outer)]
    R = f.support_radius
    if math.isfinite(R):
        return [(0.0, R)] if R > 0.0 else []
    coef, a, r_from = f.power_tail
    if coef == 0.0:
        return [(0.0, max(r_from, 1.0))]
    c_eff = coef / lam
    budget = tol / 4.0
    # march the cutoff along the fixed grid r_from * 4^j so that nearby lambda
    # values land on the same domain and reuse the solve's node table
    R_cut = max(r_from, 1.0)
    while math.isfinite(R_cut) and not (
            c_eff * R_cut ** a <= 1.0 and
            _tail_bound(c_eff, a, e.p_minus, R_cut) <= budget):
        R_cut *= 4.0
    if not math.isfinite(R_cut):
        # the march overflowed: integrating to +-inf would evaluate f there
        raise NotInSpaceError("tail bound did not fall below tolerance at "
                              "any finite cutoff radius")
    return [(0.0, R_cut)]


def _mirrored(f, e: Exponent, p_const: Optional[float]) -> bool:
    """Whether |f|^p is exactly even: f even or odd, and p one number on
    the domain or exactly even."""
    return (f.even or f.odd) and (p_const is not None or e.even)


def _modular_passes(f, e: Exponent, domain: Domain, tol: float,
                    p_const: Optional[float], table: dict, passes: dict):
    """rho(lam) -> modular of f / lam, for the passes of one solve.

    The integrand and its breakpoints are built once.  The first pass to
    reach a quadrature node stores |f(x)| and p(x) in the caller's node
    table, or |f(x)| alone where p is the constant p_const on the domain,
    and every later pass reads them back, so f and p run once per
    distinct node; only (|f(x)| / lam) ** p(x) is recomputed, with the
    same operations as without the table, so every value keeps its last
    bit.  For flat f under a step p, a node strictly inside the open
    piece of the node before it in the same pass returns that piece's
    value, which is the node's own bit for bit.  Where p is
    not constant on the domain, each pass puts the (lo, hi) of its final
    quadrature panels in the caller's ``passes`` under its lam.
    """
    ffn = f.evaluate
    pfn = e.evaluate
    lam = 1.0

    if p_const is None:
        def node(x: float) -> float:
            hit = table.get(x)
            if hit is None:
                hit = table[x] = (abs(ffn(x)), pfn(x))
            return (hit[0] / lam) ** hit[1]
    else:
        def node(x: float) -> float:
            a = table.get(x)
            if a is None:
                a = table[x] = abs(ffn(x))
            return (a / lam) ** p_const

    # the open piece (lo, hi) of the last node and its value in this pass
    lo = hi = piece_value = 0.0
    h = node
    if f.flat and e.kind == "piecewise-constant":
        def h(x: float) -> float:
            nonlocal lo, hi, piece_value
            if lo < x < hi:
                return piece_value
            value = node(x)
            j = bisect_left(cuts, x)
            if j == len(cuts) or cuts[j] != x:
                lo = cuts[j - 1] if j else -math.inf
                hi = cuts[j] if j < len(cuts) else math.inf
                piece_value = value
            return value

    integrand = Func(h, (*f.singular_points, *e.breakpoints), f.support_radius,
                     even=_mirrored(f, e, p_const))
    cuts = integrand.singular_points  # sorted and distinct, read by h

    def rho(at: float) -> float:
        nonlocal lam, lo, hi
        lam = at
        lo = hi = 0.0
        total = 0.0
        panels = None
        if p_const is None:  # the model under a constant p reads rho(1) alone
            panels = passes[at] = []
        try:
            for inner, outer in _modular_pieces(f, e, domain, lam, tol):
                if inner == 0.0 < outer:
                    res = integrate_ball(integrand, Ball(outer), tol=tol, panels=panels)
                else:
                    res = integrate_shell(integrand, inner, outer, tol=tol, panels=panels)
                total += res.value
        except OverflowError:
            return math.inf
        return total if math.isfinite(total) else math.inf

    return rho


def modular(f, e: Exponent, domain: Domain = FULL_LINE,
            tol: float = 1e-9) -> float:
    """The modular: integral of |f(x)|^p(x) over the domain."""
    _refuse(f, e, domain)
    p_const = e.constant_value_on(_components(domain))
    return _modular_passes(f, e, domain, tol, p_const, {}, {})(1.0)


def _seed_lambda(f, e: Exponent, domain: Domain) -> float:
    radius = domain.outer
    if radius < math.inf:
        measure = domain.measure
    else:
        radius = f.support_radius if math.isfinite(f.support_radius) else 2.0 ** 20
        measure = 2.0 * radius
    try:
        bound = f.abs_bound_on(0.0, radius)
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
    geometric bracket search gives out, from the seed and, where the
    modular has a model, from its root.
    """
    _refuse(f, e, domain)
    mod_tol = min(tol, MODULAR_TOL)
    p_const = e.constant_value_on(_components(domain))
    table: dict = {}
    passes: dict = {}
    try:
        rho = _modular_passes(f, e, domain, mod_tol, p_const, table, passes)
        return _bisect(rho, f, e, domain, mod_tol, p_const, table, passes)
    finally:
        # the table and the panels are the solve's: an error's stored
        # traceback holds the solve's frames, and through them both
        table.clear()
        passes.clear()


def _components(domain: Domain) -> list[tuple[float, float]]:
    """The open intervals the domain covers."""
    inner, outer = domain.inner, domain.outer
    if inner == 0.0:
        return [(-outer, outer)]
    return [(-outer, -inner), (inner, outer)]


def _model(f, e: Exponent, domain: Domain, p_const: Optional[float], rho1: float,
           table: dict, panels: Optional[list]) -> Optional[list[tuple[float, float]]]:
    """The modular's form rho(lam) = sum of w lam^-q, as [(w, q), ...],
    grouped by q, read from one pass: rho(1) lam^-p where p is the constant
    p_const on the domain; for flat f under a step p, |I| |c|^q per final
    panel I, c and q read at its centre (the pass split at every cut of f
    and p), evaluated where the piece memo kept it out of the node table;
    otherwise the GK15 weight times |f(x)|^p(x) per node x of the final
    ``panels``, read from the node table at x, or at -x for a node a
    mirrored pass never evaluated; where the pass mirrored, a panel whose
    mirror (centre -c, the same half-width) is also final counts twice and
    the mirror not at all.  A node whose GK15 weight is subnormal
    (imprecise) drops out.  None where a weight overflows or is not
    finite, a panel's weight underflows, no term is left, or a node is not
    in the table.  Never raises: a model only decides which passes run.
    """
    try:
        terms = {}
        if p_const is not None:
            terms[p_const] = rho1
        elif f.flat and e.kind == "piecewise-constant":
            for lo, hi in panels:
                c = 0.5 * (lo + hi)
                a, q = table.get(c) or (abs(f.evaluate(c)), e.evaluate(c))
                w = (hi - lo) * a ** q
                if a and not w > 0.0:
                    return None  # a panel's weight underflows
                terms[q] = terms.get(q, 0.0) + w
        else:
            # a mirrored pass evaluated one panel of each mirrored pair and
            # read the other, so the table holds the nodes of one of the two
            final = ({(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in panels}
                     if _mirrored(f, e, p_const) else ())
            tiny = sys.float_info.min
            for lo, hi in panels:
                c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
                k = 1.0
                if c and (-c, h) in final:
                    if c > 0.0:
                        continue  # its mirror counts it
                    k = 2.0
                for x, w in gk15_nodes(lo, hi):
                    if w >= tiny:
                        a, q = table.get(x) or table[-x]
                        terms[q] = terms.get(q, 0.0) + k * w * a ** q
        model = [(w, q) for q, w in terms.items() if w]
        return model if model and all(w < math.inf for w, _ in model) else None
    except Exception:
        return None


def _model_root(model: list[tuple[float, float]]) -> float:
    """The lam where sum of w lam^-q is 1: Newton in t = ln lam from
    t0 = max ln(w) / q, the closed form for one term.  The log of the sum
    is convex and decreasing in t and at least 0 at t0, so the iterates
    rise to the root, every term at most 1 on the way."""
    logs = [(math.log(w), q) for w, q in model]
    qs = [q for _, q in model]
    t = max(lw / q for lw, q in logs)
    for _ in range(100):
        terms = [math.exp(lw - q * t) for lw, q in logs]
        total = sum(terms)
        step = math.log(total) * total / sum(map(operator.mul, qs, terms))
        t += step
        if not step > 1e-13:
            break
    return math.exp(t)


def _bisect(rho, f, e: Exponent, domain: Domain, mod_tol: float,
            p_const: Optional[float], table: dict, passes: dict) -> NormResult:
    """Bracket and bisect for rho = 1: _guided on the model (_model) of the
    lam = 1 pass, and where a pass misses it, once more on the model of
    that pass's panels, keeping every exact pass.  Any other miss or
    failure, or no model, runs the search with every pass exact, so the
    result is always the exact search's; where its bracket gives out, the
    lam = 1 model's root starts it again.  rho(1) is always exact: the
    zero test reads it.
    """
    rho1 = rho(1.0)
    if rho1 == 0.0:
        return NormResult(0.0, 0.0, 0, (0.0, 0.0))
    lam0 = _seed_lambda(f, e, domain)
    exact = {1.0: rho1}

    def run(lam: float) -> float:
        if lam not in exact:
            exact[lam] = rho(lam)
        return exact[lam]

    def model_from(lam: float) -> Optional[list[tuple[float, float]]]:
        return _model(f, e, domain, p_const, rho1, table, passes.get(lam))

    model = model_from(1.0)
    try:
        if model:
            try:
                return _guided(run, exact, model, lam0, e.p_minus, mod_tol)
            except _BoundsMiss as miss:
                rebuilt = model_from(miss.args[0])
                if rebuilt:
                    return _guided(run, exact, rebuilt, lam0, e.p_minus, mod_tol)
    except Exception:
        # not swallowed: a pass missed the model, or failed at a lambda the
        # exact search may never try; the exact search below raises again
        # if the failure is its own
        pass
    try:
        return _search(run, lam0, e.p_minus, mod_tol)[0]
    except BracketExpansionError:
        if not model:
            raise
        return _search(run, _model_root(model), e.p_minus, mod_tol)[0]


def _guided(run, exact: dict, model: list[tuple[float, float]], lam0: float,
            p_minus: float, mod_tol: float) -> NormResult:
    """_search from lam0, running only the passes whose outcome is open.

    The result depends only on how each rho(lam) compares with 1 and with
    the exit band [1 - EXIT_BAND, 1 + EXIT_BAND], so a probe off
    lam* (1 +- delta), lam* the model's root and delta four times the
    noise over its slope, runs no pass and reads a stand-in just past the
    band on the model's side.  Every exact pass, those in ``exact`` too, must fit the
    model within a relative NOISE and an absolute 2 mod_tol, or _BoundsMiss
    names it.  Bisection points lie ~1e-8 apart in relative terms, far
    above that noise, so rho computed at them decreases; then every
    skipped comparison is vouched for by an exact pass on its side (see
    _search).
    """
    noise = 2.0 * mod_tol
    logs = [(math.log(w), q) for w, q in model]
    lam_star = _model_root(model)
    delta = 4.0 * (EXIT_BAND + NOISE + noise) / min(q for _, q in model)
    window = lam_star * (1.0 - delta), lam_star * (1.0 + delta)
    high = math.nextafter(1.0 + EXIT_BAND, math.inf)
    low = math.nextafter(1.0 - EXIT_BAND, -math.inf)
    guessed: dict[float, float] = {}

    def checked(lam: float) -> float:
        value = run(lam)
        # in logs: lam ** -q overflows for a tiny lam where w lam^-q does not
        ln_lam = math.log(lam)
        m = sum([math.exp(lw - q * ln_lam) for lw, q in logs])
        if not m * (1.0 - NOISE) - noise <= value <= m * (1.0 + NOISE) + noise:
            raise _BoundsMiss(lam)
        return value

    def probe(lam: float) -> float:
        if lam in exact:
            return exact[lam]
        if window[0] <= lam <= window[1]:
            return checked(lam)
        guessed[lam] = high if lam < window[0] else low
        return guessed[lam]

    for lam in list(exact):
        checked(lam)
    result, checks = _search(probe, lam0, p_minus, mod_tol)
    for lam in checks:
        if lam in guessed:
            value = checked(lam)
            if not (value >= high if guessed[lam] == high else value <= low):
                raise _BoundsMiss(lam)
    return result


def _search(rho, lam0: float, p_minus: float,
            mod_tol: float) -> tuple[NormResult, list[float]]:
    """The bracket-and-bisect loop from lam0.

    Returns the result and the points whose comparisons vouch for all the
    others when rho decreases.  Every point taken above 1 lies at or left
    of the final lo (before an early exit) or of the expansion's largest
    point above 1; every point taken at or below 1 lies at or right of the
    final hi or of the expansion's smallest such point.  The final lo and
    hi also stand for every bisection point off the exit band.
    """
    if rho(lam0) > 1.0:
        lo, hi = lam0, lam0
        for _ in range(BRACKET_EXPANSIONS):
            hi *= 4.0
            if rho(hi) <= 1.0:
                break
        else:
            raise NotInSpaceError(
                "modular stayed above 1 for every scaling in the expansion range"
            )
        # the expansion's largest point above 1, and smallest at or below 1
        edges = hi / 4.0, hi
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
        edges = lo, lo * 4.0

    iters = 0
    stop = None
    while hi - lo > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        rm = rho(mid)
        iters += 1
        if abs(rm - 1.0) <= EXIT_BAND:
            stop = mid
            break
        if rm > 1.0:
            lo = mid
        else:
            hi = mid
    checks = [lo, hi]
    if edges[0] > lo:
        checks.append(edges[0])
    if edges[1] < hi:
        checks.append(edges[1])
    if stop is not None:
        lo = hi = stop
    value = 0.5 * (lo + hi)
    # modular noise delta shifts the root by at most delta * lambda / p_minus
    # (the modular's slope at the root is at least p_minus / lambda in size)
    root_shift = (EXIT_BAND + mod_tol) * value / p_minus
    return NormResult(value, 0.5 * (hi - lo) + root_shift, iters, (lo, hi)), checks


def chi_norm(region, e: Exponent, tol: float = 1e-9) -> NormResult:
    """Norm of the characteristic function of a ball or dyadic ring.

    Uses the closed form measure^(1/p) whenever the exponent is constant
    across the region, finite for every ball; falls back to the bisection
    engine otherwise.
    """
    if region.outer == math.inf:
        raise TypeError("chi_norm needs a Ball or DyadicRing, got the whole space")
    p_const = e.constant_value_on(_components(region))
    if p_const is not None:
        r = 1.0 / p_const
        measure = region.measure
        try:
            # a measure 2 (outer - inner) that overflows takes 2 and
            # outer - inner to the power 1/p apart
            value = measure ** r if measure < math.inf else \
                2.0 ** r * (region.outer - region.inner) ** r
        except OverflowError:  # p < 1: the norm itself is not a float
            value = math.inf
        return NormResult(value, 4.0 * math.ulp(value), 0, (value, value))

    one = Func(lambda x: 1.0, (), math.inf, even=True, flat=True,
               power_tail=(1.0, 0.0, 1.0), kind="one")
    return luxemburg_norm(one, e, region, tol)


def dual_extremizer(f, e: Exponent, norm_value: float) -> Func:
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

    return Func(g, (*f.singular_points, *e.breakpoints), f.support_radius,
                even=False, kind="dual-extremizer")


def _pairing_integral(f, g, tol: float) -> float:
    prod = pointwise_product(f, g)
    if not math.isfinite(prod.support_radius):
        raise ValueError("pairing integral needs at least one compact support")
    return integrate_ball(prod, Ball(prod.support_radius), tol=tol).value


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
