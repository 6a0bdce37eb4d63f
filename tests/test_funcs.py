"""Function catalog: exact evaluation, metadata, ball means, and ranges."""

import math

import pytest

from varlp import (Ball, abs_power, chi_ball, chi_interval, chi_ring,
                   constant, dyadic_step, lincomb, mean_on_ball, power,
                   scaled_ball, sign_func, with_sign, zero)
from varlp.funcs import EvaluationDomainError, range_on_ball


def test_dyadic_step_band_values():
    f = dyadic_step()
    assert f.evaluate(3.0) == 2.0        # 3 sits in the band (2, 3]
    assert f.evaluate(-3.0) == -2.0
    assert f.evaluate(1.5) == 1.0
    assert f.evaluate(3.5) == 0.0        # gap between bands
    assert f.evaluate(0.5) == 0.0
    assert f.evaluate(2.0 ** 10 + 0.5) == 2.0 ** 10


def test_scaled_ball_formula():
    f = scaled_ball(2.0)
    assert f.evaluate(1.0) == 0.25       # |x| / |B(0,2)| with |B| = 4
    assert f.evaluate(3.0) == 0.0


def test_zero_everywhere():
    assert zero().evaluate(123.4) == 0.0


def test_negative_power_rejects_origin():
    f = power(-0.5)
    with pytest.raises(EvaluationDomainError):
        f.evaluate(0.0)
    assert abs(f.evaluate(4.0) - 0.5) <= 1e-15


def test_chi_ring_half_open():
    f = chi_ring(1)
    assert f.evaluate(1.0) == 1.0
    assert f.evaluate(2.0) == 0.0
    assert f.evaluate(-1.5) == 1.0


def test_composition_metadata():
    f = lincomb([chi_interval(0.0, 1.0), chi_ball(3.0)], [1.0, -2.0])
    assert f.support_radius == 3.0
    assert f.singular_points == (-3.0, 0.0, 1.0, 3.0)
    g = with_sign(chi_ring(1))
    assert 0.0 in g.singular_points and not g.even
    h = abs_power(f, 0.5)
    assert h.even == f.even and h.support_radius == 3.0


def test_mean_on_ball_examples():
    # odd symmetry: every ball average of the dyadic step vanishes
    m = mean_on_ball(dyadic_step(), Ball(10.0))
    assert abs(m.value) <= 1e-9
    assert abs(mean_on_ball(constant(3.0), Ball(2.0)).value - 3.0) <= 1e-12
    # direct quadrature oracle: (1/4) int chi_[0,1] = 0.25
    assert abs(mean_on_ball(chi_interval(0.0, 1.0), Ball(2.0)).value - 0.25) <= 1e-10


def test_mean_of_chi_on_its_ball_is_one():
    for r in (0.5, 1.0, 4.0):
        m = mean_on_ball(chi_ball(r), Ball(r))
        assert abs(m.value - 1.0) <= 1e-10


@pytest.mark.parametrize("f", [with_sign(chi_ball(2.0)), dyadic_step(),
                               with_sign(scaled_ball(4.0)), sign_func()])
def test_odd_symmetric_members_have_zero_means(f):
    for r in (0.7, 2.0, 9.0):
        assert abs(mean_on_ball(f, Ball(r)).value) <= 1e-9


def test_abs_bound_on_shells():
    f = dyadic_step()
    assert f.abs_bound_on(0.0, 1.0) == 0.0
    assert f.abs_bound_on(2.5, 5.1) == 4.0
    assert power(1.0).abs_bound_on(0.0, 3.0) == 3.0
    assert power(-1.0).abs_bound_on(0.0, 1.0) == math.inf
    assert power(-1.0).abs_bound_on(0.5, 1.0) == 2.0


def test_range_on_ball_brackets_values():
    lo, hi = range_on_ball(sign_func(), Ball(1.0))
    assert lo == -1.0 and hi == 1.0
    lo, hi = range_on_ball(scaled_ball(1.0), Ball(2.0))
    assert lo == 0.0 and abs(hi - 0.5) <= 1e-12


def test_power_tail_metadata():
    f = lincomb([power(1.0), constant(2.0)], [3.0, 1.0])
    coef, a, r0 = f.power_tail
    assert a == 1.0
    # majorant must dominate the actual values far out
    for x in (10.0, 1e3, 1e6):
        assert abs(f.evaluate(x)) <= coef * x ** a + 1e-12


def test_local_majorant_metadata():
    assert power(-0.5).local_majorant == (1.0, -0.5, 0.0)
    assert power(0.5).local_majorant is None
    assert chi_ball(1.0).local_majorant is None
    assert with_sign(power(-0.5)).local_majorant == (1.0, -0.5, 0.0)
    assert abs_power(power(-0.5), 2.0).local_majorant == (1.0, -1.0, 0.0)
    # the worst exponent wins; bounded terms add their sup on |x| <= 1
    mix = lincomb([power(-0.5), power(-0.25), chi_ball(2.0)], [2.0, -1.0, 3.0])
    assert mix.local_majorant == (6.0, -0.5, 0.0)
    assert lincomb([chi_ball(1.0), power(2.0)], [1.0, 1.0]).local_majorant is None
    # the majorant holds on 0 < |x| <= 1
    c, a, s = mix.local_majorant
    for x in (1e-6, -0.01, 0.3, -1.0):
        assert abs(mix.evaluate(x)) <= c * abs(x - s) ** a
