"""The modular / Luxemburg-norm engine and the duality pairing bracket."""

import math
import traceback
from collections import Counter

import pytest

from varlp import (FULL_LINE, Ball, DyadicRing, Exponent, NotInSpaceError,
                   QuadratureNonConvergence, catalog_bank, chi_ball,
                   chi_interval, chi_norm, constant, constant_exponent,
                   dual_pairing_sup, dyadic_step, lincomb, luxemburg_norm,
                   modular, piecewise_exponent, power, scaled_ball, sign_func,
                   smooth_exponent)
from varlp import norms
from varlp.funcs import Func, abs_power, pointwise_product
from varlp.operators import OperatorImage

E2 = constant_exponent(2.0)
PW23 = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])


def _scalar_bisect(g, lo, hi, tol=1e-12):
    # independent oracle for scalar root finding
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_modular_examples():
    assert abs(modular(chi_interval(0.0, 1.0), PW23) - 1.0) <= 1e-10
    assert modular(lincomb([chi_interval(0, 1)], [0.0]), E2) == 0.0
    two_chi = lincomb([chi_interval(0.0, 1.0)], [2.0])
    assert abs(modular(two_chi, E2) - 4.0) <= 1e-10


def test_luxemburg_unit_measure_set_for_any_exponent():
    f = chi_interval(0.0, 1.0)
    for e in (E2, PW23, smooth_exponent("inv_one_plus_abs")):
        assert abs(luxemburg_norm(f, e).value - 1.0) <= 1e-7


@pytest.mark.parametrize("r,p", [(0.5, 2.0), (2.0, 3.0), (8.0, 1.5)])
def test_luxemburg_chi_ball_closed_form(r, p):
    # oracle: solve (2r) lambda^(-p) = 1
    res = luxemburg_norm(chi_ball(r), constant_exponent(p))
    assert abs(res.value - (2.0 * r) ** (1.0 / p)) <= 1e-7 * (2.0 * r) ** (1.0 / p)


def test_luxemburg_piecewise_plastic_root():
    # oracle first: the real root of lambda^3 = lambda + 1 by scalar bisection
    root = _scalar_bisect(lambda t: t ** -2 + t ** -3 - 1.0, 1.0, 2.0)
    assert abs(root - 1.3247179572447460) <= 1e-9
    res = luxemburg_norm(chi_interval(0.0, 2.0), PW23)
    assert abs(res.value - root) <= 1e-6


def test_zero_function_norm():
    res = luxemburg_norm(lincomb([chi_ball(1.0)], [0.0]), E2)
    assert res.value == 0.0 and res.bisection_iters == 0


def test_norm_result_bracket_contains_value():
    res = luxemburg_norm(chi_ball(3.0), PW23)
    lo, hi = res.bracket
    assert lo <= res.value <= hi
    assert hi - lo <= 2.0 * res.abs_error_bound


def test_unit_ball_property():
    for name, f in catalog_bank()[:8]:
        nf = luxemburg_norm(f, PW23).value
        rho = modular(lincomb([f], [1.0 / nf]), PW23)
        assert abs(rho - 1.0) <= 1e-6, name


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_homogeneity(c):
    f = lincomb([chi_interval(0.0, 1.0), chi_interval(1.0, 3.0)], [1.0, -2.0])
    base = luxemburg_norm(f, PW23).value
    scaled = luxemburg_norm(lincomb([f], [c]), PW23).value
    assert abs(scaled - c * base) <= 1e-7 * max(scaled, c * base)


def test_constant_exponent_consistency():
    for name, f in catalog_bank()[:8]:
        for p in (1.5, 2.0, 4.0):
            e = constant_exponent(p)
            oracle = modular(f, e) ** (1.0 / p)
            got = luxemburg_norm(f, e).value
            assert abs(got - oracle) <= 1e-7 * max(oracle, 1e-30), (name, p)


@pytest.mark.parametrize("p0", [1.25, 1.5])
def test_power_identity(p0):
    f = lincomb([chi_interval(0.0, 1.0), chi_interval(1.0, 3.0)], [1.0, -2.0])
    for e in (E2, PW23):
        lhs = luxemburg_norm(f, e).value
        rhs = luxemburg_norm(abs_power(f, p0), e.divided_by(p0)).value ** (1.0 / p0)
        assert abs(lhs - rhs) <= 1e-6 * lhs


def test_not_in_space_for_flat_tail():
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(sign_func(), E2)
    with pytest.raises(NotInSpaceError):
        modular(constant(1.0), E2, FULL_LINE)


def test_tail_cutoff_that_overflows_is_refused():
    # |f| = min(1, |x|^-0.5) under smooth21 on R: |f|^p ~ 1/|x| far out, not
    # integrable, while p_minus > 2 of the working box lets the tail pass
    # _refuse; the cutoff march overflows to inf, and integrating to +-inf
    # used to fail with "exponent evaluated outside its domain"
    e = smooth_exponent("inv_one_plus_abs", {"base": 2.0, "amp": 1.0})
    f = Func(lambda x: min(1.0, abs(x) ** -0.5), (-1.0, 1.0), even=True,
             power_tail=(1.0, -0.5, 1.0))
    with pytest.raises(NotInSpaceError, match="finite cutoff"):
        modular(f, e)
    with pytest.raises(NotInSpaceError, match="finite cutoff"):
        luxemburg_norm(f, e)


def test_power_tail_certified_norm():
    # |x|^(-1) lies in L^2 outside the origin-adjacent core; restrict by a
    # shifted window: f = |x|^(-1) * chi_{|x|>=1} via lincomb is not in the
    # catalog, so check the ring norm instead plus the certified whole-line
    # failure for the non-integrable tail power
    res = luxemburg_norm(power(-1.0), E2, DyadicRing(2))
    # oracle: (2 int_2^4 x^-2 dx)^(1/2) = (1/2)^(1/2)
    assert abs(res.value - math.sqrt(0.5)) <= 1e-7
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(power(-0.25), E2)  # tail exponent -0.5 not integrable


def test_modular_nonconvergence_is_diagnosed():
    # an unresolvable oscillation exhausts the panel budget and surfaces as
    # the quadrature diagnostic instead of a silent wrong answer
    from varlp import QuadratureNonConvergence
    nasty = Func(lambda x: math.sin(1.0 / x) if x != 0.0 else 0.0,
                 (0.0,), 1.0)
    with pytest.raises(QuadratureNonConvergence):
        modular(nasty, E2, Ball(1.0), tol=1e-13)


def test_norm_error_bound_scales_with_value():
    big = lincomb([chi_ball(1.0)], [1e9])
    res = luxemburg_norm(big, E2)
    assert abs(res.value - 1e9 * math.sqrt(2.0)) <= 1e-5 * res.value
    assert res.abs_error_bound >= 1e-10 * res.value  # honest scaling
    assert res.abs_error_bound <= 1e-6 * res.value


def test_chi_norm_closed_forms():
    assert abs(chi_norm(Ball(0.5), E2).value - 1.0) <= 1e-12
    assert abs(chi_norm(DyadicRing(1), E2).value - math.sqrt(2.0)) <= 1e-12
    assert abs(chi_norm(Ball(4.0), constant_exponent(4.0)).value
               - 8.0 ** 0.25) <= 1e-12
    # piecewise exponent constant inside a small ball: still closed form
    assert abs(chi_norm(Ball(0.5), PW23).value - 1.0) <= 1e-12
    # crossing the break: engine path
    got = chi_norm(Ball(2.0), PW23).value
    # oracle: solve 3 lambda^-2 + 1 lambda^-3 = 1 by scalar bisection
    root = _scalar_bisect(lambda t: 3.0 * t ** -2 + t ** -3 - 1.0, 1.0, 4.0)
    assert abs(got - root) <= 1e-7


def test_ball_closed_forms():
    # ||chi_B||_2 = |B|^(1/2) = (2 r)^(1/2), read through the engine on a
    # larger ball; |x| over B(1) has modular 2 / 3 at p = 2
    assert abs(chi_norm(Ball(1.0), E2).value - math.sqrt(2.0)) <= 1e-12
    res = luxemburg_norm(chi_ball(2.0), E2, Ball(3.0))
    assert abs(res.value - 2.0) <= 1e-6
    assert abs(modular(power(1.0), E2, Ball(1.0)) - 2.0 / 3.0) <= 1e-9


def test_one_dimensional_modular_ignores_the_exponents_dimension():
    # 2 on the ring 1 <= |x| < 2 under p = 3 on (1, 2) and 2 elsewhere:
    # 2^3 + 2^2 = 12.  When exponents still carried a dimension, a dim-2
    # one flagged the integrand even, and the ring pass mirrored the left
    # side into 2 * 2^2 = 8.  The step p is not even, so neither side may
    # be read from the other.
    f = lincomb([chi_ball(3.0)], [2.0])
    e = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])
    assert abs(modular(f, e, DyadicRing(1)) - 12.0) <= 1e-9


def test_dual_pairing_self_dual_attains():
    f = chi_interval(0.0, 1.0)
    lower, upper = dual_pairing_sup(f, E2, [chi_interval(0.0, 1.0)])
    assert abs(lower - 1.0) <= 1e-6
    assert abs(upper - 2.0) <= 1e-6  # r_p = 1 + 1/2 + 1/2 = 2


def test_dual_pairing_zero_function():
    assert dual_pairing_sup(lincomb([chi_ball(1.0)], [0.0]), E2, []) == (0.0, 0.0)


def test_duality_sandwich_across_catalog():
    for name, f in catalog_bank()[:6]:
        nf = luxemburg_norm(f, PW23).value
        lower, upper = dual_pairing_sup(f, PW23, [chi_ball(2.0)])
        rp = 1.0 + 1.0 / PW23.p_minus + 1.0 / PW23.p_plus
        assert lower <= rp * nf + 1e-6, name
        assert lower >= nf * (1.0 - 1e-4), name  # extremizer nearly attains
        assert abs(upper - rp * nf) <= 1e-9 * max(1.0, nf)


# NormResult reprs recorded before the per-solve node table existed: the
# table must keep every bit of value, error bound, iteration count and bracket
# (the bounds since lost an unscaled 1e-11, the modular tolerance, whose
# shift of the root they carry scaled by the norm)
PINNED_SOLVES = {
    "chi02_pw23": (
        lambda: luxemburg_norm(chi_interval(0.0, 2.0), PW23),
        "NormResult(value=1.3247179614221927, abs_error_bound=4.508006848360226e-09, "
        "bisection_iters=27, bracket=(1.3247179569870453, 1.32471796585734))"),
    "dyadic_step_pw23_line": (
        lambda: luxemburg_norm(dyadic_step(), PW23, FULL_LINE),
        "NormResult(value=1795494966748.8606, abs_error_bound=6600.350123561812, "
        "bisection_iters=40, bracket=(1795494960247.2627, 1795494973250.4585))"),
    "power_tail_ring_smooth": (
        lambda: luxemburg_norm(power(-1.0), smooth_exponent("inv_one_plus_abs"),
                               DyadicRing(2)),
        "NormResult(value=0.6564358389005065, abs_error_bound=2.830071677770273e-09, "
        "bisection_iters=27, bracket=(0.6564358361065388, 0.6564358416944742))"),
    "commutator_hardy_const2": (
        lambda: luxemburg_norm(OperatorImage("commutator_hardy", chi_ball(1.0),
                                             b=sign_func()), E2),
        "NormResult(value=3.999999988824129, abs_error_bound=1.1395870894771069e-08, "
        "bisection_iters=27, bracket=(3.999999977648258, 4.0))"),
    # |x| / 2 on B(1): (2 int_0^1 (x / 2)^3 dx)^(1/3) = 2^(-4/3); recorded
    # while domains and exponents still carried a dimension, with the same bits
    "scaled_ball_const3": (
        lambda: luxemburg_norm(scaled_ball(1.0), constant_exponent(3.0), Ball(2.0)),
        "NormResult(value=0.3968502633616455, abs_error_bound=1.1233379886881862e-09, "
        "bisection_iters=28, bracket=(0.3968502622528587, 0.3968502644704323))"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
def test_solves_are_bit_identical_to_pinned(name):
    solve, want = PINNED_SOLVES[name]
    assert repr(solve()) == want


def test_solve_evaluates_f_and_p_once_per_node():
    base = lincomb([chi_interval(0.0, 1.0), scaled_ball(2.0)], [1.0, 3.0])
    exp = smooth_exponent("inv_one_plus_abs")
    f_calls, p_calls = Counter(), Counter()

    def fn(x):
        f_calls[x] += 1
        return base.evaluate(x)

    def pn(x):
        p_calls[x] += 1
        return exp.evaluate(x)

    f = Func(fn, base.singular_points, base.support_radius,
             bound=base.abs_bound_on)
    e = Exponent("custom-evaluable", {}, pn, exp.p_minus, exp.p_plus,
                 breakpoints=exp.breakpoints)
    res = luxemburg_norm(f, e)
    assert res.bisection_iters > 10  # many passes over the same nodes
    assert f_calls and set(f_calls.values()) == {1}
    assert p_calls == f_calls
    assert res.value == luxemburg_norm(base, exp).value


def test_node_table_is_emptied_when_a_pass_raises():
    nasty = Func(lambda x: math.sin(1.0 / x) if x != 0.0 else 0.0,
                 (0.0,), 1.0)
    with pytest.raises(QuadratureNonConvergence) as info:
        luxemburg_norm(nasty, E2, Ball(1.0))
    tables = [frame.f_locals["table"] for frame, _ in
              traceback.walk_tb(info.value.__traceback__)
              if "table" in frame.f_locals]
    assert tables and not any(tables)


def test_non_integrable_local_singularity_is_refused():
    # |x|^(-2) and |x|^(-1.2) are not integrable at the origin
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(power(-1.0), E2)
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(power(-0.6), E2, Ball(1.0))
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(lincomb([power(-0.6), chi_ball(2.0)], [2.0, 1.0]), E2, Ball(1.0))
    # away from the singularity, or integrable at it: still a norm
    assert abs(luxemburg_norm(power(-1.0), E2, DyadicRing(2)).value
               - math.sqrt(0.5)) <= 1e-7
    # oracle: (2 int_0^1 x^(-0.8) dx)^(1/2) = 10^(1/2)
    assert abs(luxemburg_norm(power(-0.4), E2, Ball(1.0)).value
               - math.sqrt(10.0)) <= 1e-6
    # p = 2 near the origin although p_plus = 3: still integrable there;
    # oracle: (2 int_0^(1/2) x^(-0.8) dx)^(1/2) = (10 / 2^0.2)^(1/2)
    assert abs(luxemburg_norm(power(-0.4), PW23, Ball(0.5)).value
               - math.sqrt(10.0 * 0.5 ** 0.2)) <= 1e-6
    # p = 3 just left of the origin: |x|^(-1.2) is not integrable there
    with pytest.raises(NotInSpaceError):
        luxemburg_norm(power(-0.4), piecewise_exponent([0.0], [3.0, 2.0]), Ball(0.5))


def test_huge_function_overflowing_at_unit_scale_keeps_its_norm():
    # (1e200)^2 overflows at lambda = 1, but no pass runs there: the
    # reference pass and the search start at f's own scale
    res = luxemburg_norm(lincomb([chi_interval(0.0, 1.0)], [1e200]), E2)
    assert abs(res.value - 1e200) <= 1e-7 * 1e200


@pytest.mark.parametrize("p", [2.0, 4.0, 10.0])
def test_small_functions_keep_their_norm_within_the_error_bound(p):
    # ||c chi[0,1]|| = c in every L^p; a modular below any fixed floor is
    # still a modular, so only a zero modular at the reference pass may
    # read as norm 0
    e = constant_exponent(p)
    for k in range(13):
        c = 10.0 ** -k
        res = luxemburg_norm(lincomb([chi_interval(0.0, 1.0)], [c]), e)
        assert abs(res.value - c) <= res.abs_error_bound, (p, c, res)
        # the bisection stops on relative width alone
        assert abs(res.value - c) <= 1e-8 * c, (p, c, res)


# chi_norm reprs recorded while chi_norm still branched on the region's
# class; closed forms and bisections alike must keep every bit
PINNED_CHI_NORMS = [
    (Ball(0.5), PW23,
     "NormResult(value=1.0, abs_error_bound=8.881784197001252e-16, "
     "bisection_iters=0, bracket=(1.0, 1.0))"),
    (Ball(1.5), PW23,
     "NormResult(value=1.6729816477745771, abs_error_bound=5.679949438320473e-09, "
     "bisection_iters=28, bracket=(1.6729816421866417, 1.6729816533625126))"),
    (DyadicRing(1), PW23,
     "NormResult(value=1.32471795193851, abs_error_bound=5.660794935049489e-09, "
     "bisection_iters=28, bracket=(1.3247179463505745, 1.3247179575264454))"),
    (DyadicRing(2), PW23,
     "NormResult(value=2.0, abs_error_bound=1.7763568394002505e-15, "
     "bisection_iters=0, bracket=(2.0, 2.0))"),
    # recorded while domains and exponents still carried a dimension
    (Ball(3.0), PW23,
     "NormResult(value=2.3300587348639965, abs_error_bound=1.1304024125803262e-08, "
     "bisection_iters=27, bracket=(2.3300587236881256, 2.3300587460398674))"),
    (DyadicRing(-1), PW23,
     "NormResult(value=0.7071067811865476, abs_error_bound=4.440892098500626e-16, "
     "bisection_iters=0, bracket=(0.7071067811865476, 0.7071067811865476))"),
    (Ball(2.5), smooth_exponent("inv_one_plus_sq"),
     "NormResult(value=1.9284681249409914, abs_error_bound=5.694001194564577e-09, "
     "bisection_iters=28, bracket=(1.928468119353056, 1.9284681305289268))"),
    (DyadicRing(0), smooth_exponent("inv_one_plus_sq"),
     "NormResult(value=0.9999999972060323, abs_error_bound=2.8489677236927424e-09, "
     "bisection_iters=27, bracket=(0.9999999944120646, 1.0))"),
]


@pytest.mark.parametrize("region, e, want", PINNED_CHI_NORMS,
                         ids=[repr(r) for r, _, _ in PINNED_CHI_NORMS])
def test_chi_norms_are_bit_identical_to_pinned(region, e, want):
    assert repr(chi_norm(region, e)) == want


@pytest.mark.parametrize("radius", [1e308, 2.0 ** 1023, 1.7976931348623157e308])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0, 8.0, 10.0])
def test_chi_norm_of_a_ball_whose_measure_overflows(radius, p):
    # 2 * radius overflows, but the norm (2 radius)^(1/p) is a float.  It is
    # the closed form's (2 radius)^r, r the float 1/p, within the reported
    # bound (checked against mpmath), and so the norm itself where r = 1/p
    # exactly (p a power of 2); for the other p, r's rounding moves it by up
    # to ln(2 radius) ulp(r) / 2, about 3e-14 relative (see test_known_defects)
    import mpmath

    assert Ball(radius).measure == math.inf
    res = chi_norm(Ball(radius), constant_exponent(p))
    assert res.abs_error_bound == 4.0 * math.ulp(res.value)
    assert res.bracket == (res.value, res.value)
    with mpmath.workdps(40):
        two_r = 2 * mpmath.mpf(radius)
        err = abs(mpmath.mpf(res.value) - two_r ** mpmath.mpf(1.0 / p))
        assert err <= res.abs_error_bound, res
        exact = two_r ** (1 / mpmath.mpf(p))
        assert abs(mpmath.mpf(res.value) - exact) <= (
            res.abs_error_bound if p in (2.0, 4.0, 8.0) else 5e-14 * exact), res


@pytest.mark.parametrize("radius", [0.5, 3.0, 1e300, 2.0 ** 1023 - 2.0 ** 970])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_chi_norm_of_a_finite_measure_is_its_power(radius, p):
    # the largest ball whose measure is a float keeps the closed form's bits
    assert math.isfinite(Ball(radius).measure)
    assert chi_norm(Ball(radius), constant_exponent(p)).value == \
        (2.0 * radius) ** (1.0 / p)


def _count_passes(monkeypatch) -> list[float]:
    """Record the lambda of every modular pass the solves below make."""
    passes = []
    make = norms._modular_passes

    def counting(*args):
        rho = make(*args)

        def counted(lam, *rest):
            passes.append(lam)
            return rho(lam, *rest)

        return counted

    monkeypatch.setattr(norms, "_modular_passes", counting)
    return passes


_BANK = dict(catalog_bank())
_OUTSIDE_B1 = lincomb([constant(1.0), chi_ball(1.0)], [1.0, -1.0])

# reprs recorded while every solve ran all of its passes (30 or 31 here);
# skipping the passes the modular's model decides keeps every bit.  The
# last entry is the most passes a solve may make: 4, whether the model is
# the closed form (p constant on the domain, or flat f under a
# piecewise-constant p) or read from the reference pass's node table
SKIPPING_SOLVES = {
    "hat_const2_line": (
        lambda: luxemburg_norm(_BANK["hat"], E2),
        "NormResult(value=2.236067970371936, abs_error_bound=8.025517698916978e-09, "
        "bisection_iters=27, bracket=(2.2360679624694018, 2.2360679782744697))", 4),
    "dyadic_step_pw23_ring_in_one_piece": (
        lambda: luxemburg_norm(dyadic_step(), PW23, DyadicRing(2)),
        "NormResult(value=2.8284271317972767, abs_error_bound=9.025857991168257e-09, "
        "bisection_iters=27, bracket=(2.828427122926982, 2.828427140667571))", 4),
    "step_mix_pw23_line": (
        lambda: luxemburg_norm(_BANK["step_mix"], PW23),
        "NormResult(value=2.802588751212263, abs_error_bound=7.769606862564289e-09, "
        "bisection_iters=28, bracket=(2.8025887435967984, 2.8025887588277274))", 4),
    "ramp_smooth_ball": (
        lambda: luxemburg_norm(_BANK["ramp_half"], smooth_exponent("inv_one_plus_abs"),
                               Ball(1.5)),
        "NormResult(value=0.6811830203369917, abs_error_bound=2.50508021600989e-09, "
        "bisection_iters=27, bracket=(0.6811830178693766, 0.681183022804607))", 4),
    "power_tail_pw23_line": (
        lambda: luxemburg_norm(pointwise_product(power(-1.0), _OUTSIDE_B1), PW23),
        "NormResult(value=1.3345395419746637, abs_error_bound=5.661335122501478e-09, "
        "bisection_iters=28, bracket=(1.3345395363867283, 1.3345395475625992))", 4),
}


@pytest.mark.parametrize("name", sorted(SKIPPING_SOLVES))
def test_skipped_passes_keep_every_bit(name, monkeypatch):
    solve, want, most_passes = SKIPPING_SOLVES[name]
    passes = _count_passes(monkeypatch)
    assert repr(solve()) == want
    assert 0 < len(passes) <= most_passes, passes


# the exact search's results for the modulars below, 31 passes each, and
# whether the solve runs them all: the modular breaks the model
# rho(1) lam^-2 of the stated exponent 2, read from the reference pass
# at lam = 1, the largest power of two not above the seed sqrt(2), or has
# none
SYNTHETIC_SOLVES = {
    # decays like lam^-2, as exponent 2 says
    "square": (lambda lam: (3.0 / lam) ** 2,
               "NormResult(value=2.9999999934382133, abs_error_bound=8.067533960185622e-09, "
               "bisection_iters=28, bracket=(2.9999999855356796, 3.0000000013407475))",
               False),
    # decays like lam^-4, faster than exponent 2 allows
    "quartic": (lambda lam: (3.0 / lam) ** 4,
                "NormResult(value=2.9999999934382133, abs_error_bound=8.067533960185622e-09, "
                "bisection_iters=28, bracket=(2.9999999855356796, 3.0000000013407475))",
                True),
    # infinite up to the reference pass's lam = 1: an infinite rho(1)
    # makes no model, so every pass runs
    "overflow": (lambda lam: math.inf if lam <= 1.0 else (3.0 / lam) ** 2,
                 "NormResult(value=2.9999999934382133, abs_error_bound=8.067533960185622e-09, "
                 "bisection_iters=28, bracket=(2.9999999855356796, 3.0000000013407475))",
                 True),
    # decreasing, but drops by a fifth at lam = 2.5, below the root
    "drop": (lambda lam: (3.0 / lam) ** 2 * (1.0 if lam < 2.5 else 0.8),
             "NormResult(value=2.683281568134172, abs_error_bound=8.050114668838504e-09, "
             "bisection_iters=28, bracket=(2.683281560231638, 2.6832815760367064))",
             True),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_SOLVES))
def test_modular_off_its_exponent_bounds_falls_back_to_exact_passes(name):
    modular_of, want, every_pass = SYNTHETIC_SOLVES[name]
    passes = []

    def rho(lam, panels=None):
        passes.append(lam)
        return modular_of(lam)

    # the model under the constant 2 reads no panels
    res = norms._bisect(rho, chi_interval(0.0, 1.0), E2, FULL_LINE, 2.0, {})
    assert passes[0] == 1.0
    assert repr(res) == want
    # off its model, the skipping search misses and the exact one runs in full
    assert len(passes) >= 31 if every_pass else len(passes) <= 8


# compact data, flat and not, under constant, step and smooth exponents
HOMOGENEOUS_F = {
    **{name: _BANK[name] for name in ("chi01", "ring1", "sgn_window", "f0_r1", "hat")},
    "steps": lincomb([chi_interval(-1.5, 0.5), chi_interval(0.25, 3.0)], [2.0, -0.75]),
}
HOMOGENEOUS_E = {"const2": E2, "const3": constant_exponent(3.0), "pw23": PW23,
                 **{name: smooth_exponent(name)
                    for name in ("inv_one_plus_abs", "inv_one_plus_sq")}}


@pytest.mark.parametrize("exp", sorted(HOMOGENEOUS_E))
@pytest.mark.parametrize("name", sorted(HOMOGENEOUS_F))
def test_a_norm_is_homogeneous_bit_for_bit(name, exp):
    # scaling f by c = 2^k scales the seed, the reference pass's lam and
    # every point the search tries by c exactly, and leaves every modular
    # as it was, so the result scales bit for bit (the error bound too,
    # but where a product in it turns subnormal at k = -990)
    f, e = HOMOGENEOUS_F[name], HOMOGENEOUS_E[exp]
    for domain in (FULL_LINE, Ball(1.5), DyadicRing(2)):
        base = luxemburg_norm(f, e, domain)
        for k in (40, -40, 300, -300, 600, -600, 990, -990):
            c = math.ldexp(1.0, k)
            got = luxemburg_norm(lincomb([f], [c]), e, domain)
            assert (got.value, got.bracket, got.bisection_iters) == \
                (c * base.value, (c * base.bracket[0], c * base.bracket[1]),
                 base.bisection_iters), (domain, k, got)


@pytest.mark.parametrize("call, entry", [
    (lambda: luxemburg_norm(power(-1.0), E2), "luxemburg_norm"),  # local majorant
    (lambda: luxemburg_norm(sign_func(), E2), "luxemburg_norm"),  # flat tail
    (lambda: luxemburg_norm(power(-0.25), E2, FULL_LINE), "luxemburg_norm"),
    (lambda: modular(constant(1.0), E2, FULL_LINE), "modular"),
], ids=["local", "flat-tail", "slow-tail", "modular"])
def test_refusals_come_before_any_pass(call, entry):
    with pytest.raises(NotInSpaceError) as info:
        call()
    frames = [frame.f_code.co_name for frame, _ in
              traceback.walk_tb(info.value.__traceback__)]
    # raised by the entry point's own check, with no pass machinery (node
    # table, pass closure, bisection) on the stack for a stored error to keep
    assert frames[-2:] == [entry, "_refuse"], frames
