"""Every open defect as an executable probe.

Each test asserts the probe's present outcome exactly (its value, its
reported bound, or the exception and its message) and names the ROADMAP
item that mends it.  These outcomes are wrong or weaker than they should
be; the change that mends one turns its test into an assertion against
the oracle in the comment, which tightens it.
"""

import math
from unittest import mock

from varlp import (Ball, OperatorImage, chi_ball, chi_interval, chi_norm,
                   constant_exponent, integrate_ball, lincomb, luxemburg_norm, norms,
                   power, sign_func, smooth_exponent, with_sign)

CONST2 = constant_exponent(2.0)


def _raised(call) -> tuple[str, str]:
    """The type name and message of the exception call raises."""
    try:
        call()
    except Exception as exc:  # the refusal is the probe's outcome
        return type(exc).__name__, str(exc)
    raise AssertionError("the probe no longer raises")


def _panel_budget(tol: str, estimate: str) -> tuple[str, str]:
    return ("QuadratureNonConvergence", f"quadrature did not reach tol={tol} within "
            f"4096 panels (error estimate {estimate})")


# -- item 7: singular points ------------------------------------------------

def test_an_integrable_singularity_under_reports_its_error():
    # exact: 2 / 0.1 = 20, off by 4.85e-6 against a reported 9.86e-7
    res = integrate_ball(power(-0.9), Ball(1.0), tol=1e-6)
    assert (res.value, res.abs_error_bound) == (19.999995147766146, 9.862155943020606e-07)
    assert abs(res.value - 20.0) > res.abs_error_bound


def test_a_finite_integral_near_the_origin_is_refused():
    # exact: 2 / 0.02 = 100
    assert _raised(lambda: integrate_ball(power(-0.98), Ball(1.0))) == \
        _panel_budget("1e-09", "2.25281e-06")


def test_a_finite_norm_near_the_origin_is_refused():
    # exact: (2 / 0.02) ** (1/2) = 10
    assert _raised(lambda: luxemburg_norm(power(-0.49), CONST2, Ball(1.0))) == \
        _panel_budget("1e-11", "2.25281e-06")


def _dual_image():
    # [|x|, H*] chi_B(1) at x is |x| 2 log(1/|x|) - 2 (1 - |x|), -2.0 in
    # floats for every |x| below about 1e-17
    return OperatorImage("commutator_dual_hardy", chi_ball(1.0), b=power(1.0))


def test_a_dual_image_at_1e_300_bisects_toward_the_origin():
    # the value is right, but its table shell below the 2^-60 floor takes
    # tens of milliseconds
    assert _dual_image().evaluate(1e-300) == -2.0


def test_a_dual_image_at_the_smallest_subnormal_raises():
    assert _raised(lambda: _dual_image().evaluate(5e-324)) == \
        ("QuadratureNonConvergence", "integrand produced a non-finite panel value")


# -- item 3: exact primitives for piecewise power sums ------------------------

def test_an_odd_commutator_image_with_a_growing_tail_is_refused_far_out():
    # exact: 0 everywhere, since f = sgn(x)|x|^-1/2 and b f = sgn(x)|x|^1/2
    # are odd; no oddness is claimed for a product with an unbounded
    # factor, so each point integrates [0, |x|] afresh, and far out it
    # runs out of panels
    img = OperatorImage("commutator_hardy", with_sign(power(-0.5)), b=power(1.0))
    assert (img.evaluate(0.5), img.evaluate(1e100)) == (0.0, 0.0)
    assert _raised(lambda: img.evaluate(1e300)) == _panel_budget("5e-11", "nan")


# -- item 2: the log-domain engine ------------------------------------------

def test_a_subnormal_width_is_refused():
    # exact: a root near 1e-104
    f = lincomb([chi_interval(0.0, 2.2250738585e-313)], [4.263738694110199])
    got = _raised(lambda: luxemburg_norm(f, smooth_exponent("inv_one_plus_abs")))
    assert got == _panel_budget("1e-11", "nan")


# -- item 14's cost, which waits on item 1 ---------------------------------

def test_a_chi_norm_seeded_at_the_fallback_runs_the_exact_search():
    # wanted: the guided search alone.  The constant 1 has no abs bound,
    # so the solve seeds at 1.0, its reference pass integrates a constant,
    # and the model misses the root pass: the exact search runs after the
    # guided one
    search, searches = norms._search, []

    def counted(*args):
        searches.append(args[1])  # the seed
        return search(*args)

    with mock.patch.object(norms, "_search", counted):
        res = chi_norm(Ball(8.0), smooth_exponent("inv_one_plus_sq"))
    assert res.value == 3.6389371044933796
    assert searches == [1.0, 1.0]


# -- item 4: certified bounds on the solve's own domain -----------------------

def test_a_smooth_lower_bound_holds_only_on_the_working_box():
    # exact: inf of 2 + 1 / (1 + |x|) over the line is 2
    assert smooth_exponent("inv_one_plus_abs").p_minus == 2.000000953673407


def test_a_local_refusal_reads_the_upper_bound_under_a_smooth_p():
    # exact: p(0) = 2 + sin(log log 10) < 2.75 and 0.35 * 2.75 < 1, so
    # |x|^-0.35 is in the space; sup_near reads p_plus = 3
    got = _raised(lambda: luxemburg_norm(power(-0.35), smooth_exponent("sin_loglog"),
                                         Ball(0.5)))
    assert got == ("NotInSpaceError", "local majorant 1*|x-0|^-0.35 is not certifiably "
                   "integrable to the power 3 in dimension 1")


def test_a_closed_form_chi_norm_of_a_huge_ball_under_reports_its_error():
    # exact: (2e300)^(1/3) = 1.2599210498948731868...e100 (mpmath), off by
    # 1.6e86 against a reported 7.8e84: the float 1/3 is off by 1.9e-17,
    # and ln(2e300) = 691 scales that into the power
    res = chi_norm(Ball(1e300), constant_exponent(3.0))
    assert (res.value, res.abs_error_bound) == (1.2599210498948571e+100,
                                                7.770675568902916e+84)
    assert abs(res.value - 1.2599210498948733e100) > res.abs_error_bound


# -- item 11: closed-form modulars --------------------------------------------

def test_a_commutator_norm_misses_its_closed_form():
    # exact: 4 for both
    for kind in ("commutator_hardy", "commutator_dual_hardy"):
        got = luxemburg_norm(OperatorImage(kind, chi_interval(-1.0, 1.0), b=sign_func()),
                             CONST2)
        assert got.value == 3.999999988824129, kind
        assert math.isclose(got.value, 4.0, rel_tol=1e-8)
