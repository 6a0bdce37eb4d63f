"""Central oscillation norms and Herz norms against closed-form oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlp import (Ball, cbmo_classical_norm, cbmo_inf_norm, cbmo_star_norm,
                   cbmo_var_norm, chi_ball, chi_interval, chi_ring, constant,
                   constant_exponent, dyadic_step, herz_norm, herz_norm_vector,
                   lincomb, mean_on_ball, piecewise_exponent, sign_func)
from varlp.spaces import lq_aggregate, lq_aggregate_large, lq_aggregate_small

E2 = constant_exponent(2.0)
GRID = [2.0 ** k for k in range(-4, 7)]


def test_cbmo_constant_function_is_zero():
    res = cbmo_var_norm(constant(5.0), E2, GRID)
    assert res.value <= 1e-7


def test_cbmo_sign_closed_form():
    # f_B = 0 and ||sgn chi_B||_2 = ||chi_B||_2, so every radius gives 1
    res = cbmo_var_norm(sign_func(), E2, GRID)
    assert abs(res.value - 1.0) <= 1e-7
    for _, ratio in res.breakdown:
        assert abs(ratio - 1.0) <= 1e-7


def test_cbmo_chi_ball_closed_form():
    # chi_B(1) on B(r), r >= 1: the mean is 1 / r and the squared
    # oscillation 2 (1 - 1/r)^2 + (2r - 2) / r^2 = 2 (r - 1) / r against
    # ||chi_B(r)||_2^2 = 2r, so the ratio is sqrt(r - 1) / r, at most 1/2
    # at r = 2; below r = 1 the function is constant on the ball
    res = cbmo_var_norm(chi_ball(1.0), E2, GRID)
    assert abs(res.value - 0.5) <= 1e-7
    for r, ratio in res.breakdown:
        want = math.sqrt(r - 1.0) / r if r > 1.0 else 0.0
        assert abs(ratio - want) <= 1e-7, r


def test_cbmo_classical_sign():
    res = cbmo_classical_norm(sign_func(), 2.0, GRID)
    assert abs(res.value - 1.0) <= 1e-9


def test_cbmo_classical_validates_p():
    with pytest.raises(ValueError):
        cbmo_classical_norm(sign_func(), 0.5, GRID)


def test_cbmo_star_with_shifted_centers():
    # oracle: int |sgn - 1/2|^2 over B = 2r * 5/4
    res = cbmo_star_norm(sign_func(), E2, [0.5] * len(GRID), GRID)
    assert abs(res.value - math.sqrt(1.25)) <= 1e-7


def test_cbmo_star_ball_average_matches_var():
    f = lincomb([chi_interval(0.0, 1.0)], [3.0])
    var = cbmo_var_norm(f, E2, GRID)
    star = cbmo_star_norm(f, E2, [mean_on_ball(f, Ball(r)).value for r in GRID], GRID)
    assert star.value == var.value
    assert star.breakdown == var.breakdown  # per-ball reduction is exact


def test_cbmo_inf_sign_minimizer_at_zero():
    res = cbmo_inf_norm(sign_func(), E2, GRID)
    assert abs(res.value - 1.0) <= 1e-6


def test_cbmo_inf_below_var():
    for f in (chi_interval(0.0, 1.0), lincomb([chi_ring(1)], [2.0])):
        inf_ = cbmo_inf_norm(f, E2, GRID).value
        var = cbmo_var_norm(f, E2, GRID).value
        assert inf_ <= var + 1e-6


def test_cbmo_constant_exponent_bridge():
    # variable-exponent engine at constant p agrees with the direct formula
    pw = piecewise_exponent([0.25], [3.0, 3.0])  # constant 3 in disguise
    f = chi_interval(0.0, 1.0)
    var = cbmo_var_norm(f, pw, GRID).value
    classical = cbmo_classical_norm(f, 3.0, GRID).value
    assert abs(var - classical) <= 1e-6 * max(var, classical)


def test_counterexample_divergence_rate():
    f = dyadic_step()
    grid = [2.0 ** k for k in range(-2, 16)]
    res = cbmo_var_norm(f, E2, grid)
    assert res.diverged
    slope, r2 = res.divergence_fit
    assert abs(slope - 0.5) <= 0.05 and r2 > 0.9
    bounded = cbmo_classical_norm(f, 1.0, grid)
    assert not bounded.diverged


def test_grid_extension_monotonicity():
    f = dyadic_step()
    small = cbmo_var_norm(f, E2, [2.0 ** k for k in range(0, 8)]).value
    large = cbmo_var_norm(f, E2, [2.0 ** k for k in range(0, 12)]).value
    assert large >= small - 1e-12


def test_herz_single_ring():
    res = herz_norm(chi_ring(0), E2, 0.0, 1.0, range(-6, 7))
    assert abs(res.value - 1.0) <= 1e-7
    assert res.tail_bound == 0.0


def test_herz_zero_function():
    res = herz_norm(lincomb([chi_ring(0)], [0.0]), E2, 0.0, 1.0, range(-6, 7))
    assert res.value == 0.0


def test_herz_weighted_two_rings():
    # oracle: ring measures 2 and 4, contributions 2*sqrt(2) and 4*2
    f = lincomb([chi_ring(1), chi_ring(2)], [1.0, 1.0])
    res = herz_norm(f, E2, 1.0, 1.0, range(-6, 7))
    assert abs(res.value - (2.0 * math.sqrt(2.0) + 8.0)) <= 1e-6


def test_herz_vector_forms():
    res = herz_norm_vector([chi_ring(0), chi_ring(1)], 2.0, E2, 0.0, 1.0,
                           range(-6, 7))
    assert abs(res.value - (1.0 + math.sqrt(2.0))) <= 1e-6
    single = herz_norm_vector([chi_ring(0)], 2.0, E2, 0.0, 1.0, range(-6, 7))
    plain = herz_norm(chi_ring(0), E2, 0.0, 1.0, range(-6, 7))
    assert abs(single.value - plain.value) <= 1e-9
    dup = herz_norm_vector([chi_ring(0), chi_ring(0)], 2.0, E2, 0.0, 1.0,
                           range(-6, 7))
    assert abs(dup.value - math.sqrt(2.0) * plain.value) <= 1e-6


def test_herz_range_extension_monotone():
    f = chi_ball(8.0)
    small = herz_norm(f, E2, 0.0, 1.0, range(-2, 3)).value
    large = herz_norm(f, E2, 0.0, 1.0, range(-6, 5)).value
    assert large >= small - 1e-12


def test_herz_vector_validates_r():
    with pytest.raises(ValueError):
        herz_norm_vector([chi_ring(0)], 1.0, E2, 0.0, 1.0, range(-2, 3))


def test_herz_refuses_uncertifiable_lower_tail():
    # |x|^(-1) has divergent ring sums toward the origin in L^2 at alpha = 0
    from varlp import power
    with pytest.raises(ArithmeticError):
        herz_norm(power(-1.0), E2, 0.0, 1.0, range(-6, 7))


contribs = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None)
@given(contribs, st.floats(0.1, 0.99), st.floats(1.01, 8.0))
def test_lq_embedding_monotone(cs, q_small, q_big):
    # l^q1 -> l^q2 embedding for q1 <= q2 on the same breakdown
    lo = lq_aggregate(cs, q_small)
    mid = lq_aggregate(cs, 1.0)
    hi = lq_aggregate(cs, q_big)
    assert hi <= mid * (1.0 + 1e-12) + 1e-15
    assert mid <= lo * (1.0 + 1e-12) + 1e-15


@settings(max_examples=100, deadline=None)
@given(contribs)
def test_lq_branch_boundary(cs):
    small = lq_aggregate_small(cs, 1.0)
    large = lq_aggregate_large(cs, 1.0)
    assert abs(small - large) <= 1e-9 * (1.0 + small)


# breakdowns recorded when each sweep wrote out its own loop: the shared
# sweep must keep every bit, per radius and per center rule
PINNED_F = lincomb([chi_interval(0.0, 1.0), chi_ball(2.0)], [3.0, -1.0])
PW23 = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])
PINNED_GRID = [0.5, 1.0, 2.0, 4.0]
PINNED_SWEEPS = {
    "var": (lambda: cbmo_var_norm(PINNED_F, PW23, PINNED_GRID),
            "[(0.5, 1.4999999965075403), (1.0, 1.50000000295899), "
            "(2.0, 1.3413339254135759), (4.0, 0.9301302288023836)]"),
    "star": (lambda: cbmo_star_norm(PINNED_F, PW23, [0.25, -0.5, 1.0, 0.0],
                                    PINNED_GRID),
             "[(0.5, 1.5206906296079978), (1.0, 1.8027756375014992), "
             "(2.0, 1.794353413246936), (4.0, 0.931640358868609)]"),
    "inf": (lambda: cbmo_inf_norm(PINNED_F, PW23, PINNED_GRID),
            "[(0.5, 1.4999999970629099), (1.0, 1.4999999950458582), "
            "(2.0, 1.3367886819907968), (4.0, 0.9285699106454449)]"),
    "classical": (lambda: cbmo_classical_norm(PINNED_F, 1.5, PINNED_GRID),
                  "[(0.5, 1.5), (1.0, 1.5), (2.0, 1.2099329018750944), "
                  "(4.0, 0.8005215269780168)]"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_sweep_breakdowns_are_bit_identical_to_pinned(name):
    sweep, want = PINNED_SWEEPS[name]
    res = sweep()
    assert repr(res.breakdown) == want
    assert res.value == max(v for _, v in res.breakdown)
