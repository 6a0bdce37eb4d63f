"""Averaging operators, commutators, operator images, and the maximal
function, all checked against direct quadrature oracles."""

import math

import pytest

from varlp import (Ball, chi_ball, chi_interval, commutator_dual_hardy,
                   commutator_hardy, constant, constant_exponent, dual_hardy,
                   dyadic_step, hardy, lincomb, luxemburg_norm, maximal,
                   mean_on_ball, power, scaled_ball, sign_func, with_sign)
from varlp.operators import OperatorImage
from varlp.quadrature import integrate_ball


def _direct_hardy(f, x):
    # independent oracle: one adaptive pass over [-|x|, |x|], split at 0 and
    # at f's jumps, with no shell tables
    t = abs(x)
    res = integrate_ball(f, Ball(t), tol=1e-11)
    return res.value / t


def test_hardy_point_values():
    f = chi_ball(1.0)
    assert abs(hardy(f, 0.5).value - 2.0) <= 1e-10
    assert abs(hardy(f, 4.0).value - 0.5) <= 1e-10
    assert hardy(lincomb([f], [0.0]), 1.0).value == 0.0
    with pytest.raises(ValueError):
        hardy(f, 0.0)


def test_hardy_matches_direct_oracle():
    f = lincomb([chi_interval(0.0, 1.0), scaled_ball(2.0)], [1.0, 3.0])
    for x in (0.3, 0.9, 1.7, 5.0):
        assert abs(hardy(f, x).value - _direct_hardy(f, x)) <= 1e-9


def test_dual_hardy_point_values():
    f = chi_ball(1.0)
    # oracle: 2 int_{1/4}^1 dy/y = 2 ln 4
    assert abs(dual_hardy(f, 0.25).value - 2.0 * math.log(4.0)) <= 1e-9
    assert dual_hardy(f, 2.0).value == 0.0


def test_commutator_point_values():
    f = chi_ball(1.0)
    b = power(1.0)
    assert abs(commutator_hardy(b, f, 0.5).value - 0.5) <= 1e-10
    assert abs(commutator_hardy(constant(7.0), f, 0.5).value) <= 1e-12
    f0 = scaled_ball(1.0)
    assert abs(commutator_dual_hardy(b, f0, 0.5).value - (-0.125)) <= 1e-10
    assert abs(commutator_dual_hardy(constant(3.0), f0, 0.5).value) <= 1e-12


def test_commutator_shift_invariance():
    f = chi_ball(2.0)
    b = sign_func()
    b_shift = lincomb([sign_func(), constant(1.0)], [1.0, 5.0])
    for x in (0.4, 1.1, 3.0):
        assert abs(commutator_hardy(b, f, x).value
                   - commutator_hardy(b_shift, f, x).value) <= 1e-9


def test_operator_linearity_in_f():
    b = sign_func()
    f1, f2 = chi_ball(1.0), chi_interval(0.0, 2.0)
    combo = lincomb([f1, f2], [2.0, -3.0])
    for x in (0.5, 1.5):
        lhs = commutator_hardy(b, combo, x).value
        rhs = 2.0 * commutator_hardy(b, f1, x).value \
            - 3.0 * commutator_hardy(b, f2, x).value
        assert abs(lhs - rhs) <= 1e-9


def test_hardy_profile_of_unit_ball():
    f = chi_ball(1.0)
    for x in (0.1, 0.5, 0.9):
        assert abs(hardy(f, x).value - 2.0) <= 1e-10
    for x in (2.0, 8.0):
        assert abs(hardy(f, x).value - 2.0 / x) <= 1e-10


def test_decomposition_identity_pointwise():
    # b(x) - b_B splits exactly into the two commutator terms
    for b in (sign_func(), power(1.0), dyadic_step()):
        for r in (1.0, 4.0):
            ball = Ball(r)
            bm = mean_on_ball(b, ball).value
            com = OperatorImage("commutator_hardy", chi_ball(r), b=b)
            dcom = OperatorImage("commutator_dual_hardy", scaled_ball(r), b=b)
            for x in (0.31 * r, -0.77 * r):
                lhs = b.evaluate(x) - bm
                rhs = (abs(x) / ball.measure) * com.evaluate(x) + dcom.evaluate(x)
                assert abs(lhs - rhs) <= 1e-8


def test_image_norm_matches_sampled_operator():
    # the lazy image and the one-shot entry point agree pointwise
    f = chi_ball(2.0)
    b = sign_func()
    img = OperatorImage("commutator_hardy", f, b=b)
    for x in (0.5, 1.0, 3.0, 10.0):
        assert abs(img.evaluate(x) - commutator_hardy(b, f, x).value) <= 1e-9


def test_image_supports_full_line_norm():
    e2 = constant_exponent(2.0)
    f = chi_ball(1.0)
    img = OperatorImage("commutator_hardy", f, b=sign_func(), tol=1e-10)
    ratio = luxemburg_norm(img, e2).value / luxemburg_norm(f, e2).value
    # oracle: |[sgn,H]chi|(x) = 2 inside the ball, 2/|x| outside, so the
    # squared norm is 8 + 8 = 16 against ||chi||_2 = sqrt(2)
    assert abs(ratio - 2.0 ** 1.5) <= 1e-6


def test_maximal_examples():
    f = chi_ball(1.0)
    assert abs(maximal(f, 0.0).value - 1.0) <= 1e-10
    # the optimal radius 4 is a support-derived critical radius
    assert abs(maximal(f, 3.0).value - 0.25) <= 1e-10
    assert maximal(lincomb([f], [0.0]), 1.0).value == 0.0


def test_maximal_explicit_grid():
    f = chi_ball(1.0)
    res = maximal(f, 3.0, radius_grid=[1.0, 2.0, 4.0, 8.0])
    assert abs(res.value - 0.25) <= 1e-10


def test_hardy_on_decaying_unbounded_support():
    # oracle: (1/4) int_{-4}^{4} |y|^(-1/2) dy = (1/4) * 2 * 2 * sqrt(4) = 2
    res = hardy(power(-0.5), 4.0, tol=1e-10)
    assert abs(res.value - 2.0) <= 1e-7


def test_dual_hardy_certified_power_tail():
    # oracle: 2 int_1^inf y^(-3.5) dy = 0.8, tail handled by extension
    res = dual_hardy(power(-2.5), 1.0, tol=1e-10)
    assert abs(res.value - 0.8) <= 1e-7


def test_dual_hardy_refuses_uncertifiable_tail():
    with pytest.raises(ValueError):
        dual_hardy(power(0.5), 1.0)


@pytest.mark.parametrize("kind, b", [("hardy", sign_func()),
                                     ("dual_hardy", power(1.0)),
                                     ("commutator_hardy", None),
                                     ("commutator_dual_hardy", None)])
def test_only_commutators_take_a_symbol(kind, b):
    with pytest.raises(ValueError, match="symbol"):
        OperatorImage(kind, chi_ball(1.0), b=b)


def test_maximal_never_exceeds_the_exact_supremum():
    # at r ~ 2^40 the float edges x +- r used to round outward, so the
    # window outgrew 2r and the average read 2.000122 against the exact
    # supremum 2 of |dyadic_step|; edges rounded toward x keep it below
    res = maximal(dyadic_step(), -0.5083585272243402)
    assert 2.0 - 1e-9 <= res.value <= 2.0


def test_commutator_image_jump_points_are_pinned():
    # recorded when the image collected its jump points in four loops
    b = lincomb([chi_interval(-0.75, 0.5), dyadic_step(3)], [2.0, 1.0])
    img = OperatorImage("commutator_hardy", chi_interval(-3.0, 1.5), b=b)
    assert repr(img.singular_points) == (
        "(-9.0, -8.0, -5.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.75, -0.5, 0.0, "
        "0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0, 9.0)")
