"""Exponent catalog: evaluation, conjugation, bounds, admissibility, and the
log-Holder regularity check."""

import math
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varlp import (constant_exponent, is_in_P, log_holder_check,
                   piecewise_exponent, smooth_exponent)
from varlp.config import ConfigError, make_exponent


def test_constant_evaluation():
    e = constant_exponent(2.0)
    assert e.evaluate(0.7) == 2.0
    assert e.p_minus == e.p_plus == 2.0


def _same_exponent(a, b):
    assert (a.kind, a.params, a.p_minus, a.p_plus, a.breakpoints) == \
        (b.kind, b.params, b.p_minus, b.p_plus, b.breakpoints)
    for x in (-1e6, -0.3, 0.0, 0.3, 1e6):
        assert a.evaluate(x) == b.evaluate(x)
        assert a.sup_near(x) == b.sup_near(x) == a.p_plus
    for intervals in ([(-1.0, 1.0)], [(-2.0, -1.0), (1.0, 2.0)],
                      [(-math.inf, math.inf)], [(0.0, math.inf)]):
        assert a.constant_value_on(intervals) == b.constant_value_on(intervals) \
            == a.p_plus


@pytest.mark.parametrize("p", [1.5, 2.0, 3.7, 10.0])
def test_constant_is_the_step_exponent_with_no_steps(p):
    const, step = constant_exponent(p), piecewise_exponent([], [p])
    assert const.kind == "piecewise-constant" and const.p_plus == p
    _same_exponent(const, step)
    _same_exponent(const.conjugate(), step.conjugate())
    _same_exponent(const.divided_by(1.5), step.divided_by(1.5))
    assert const.conjugate().p_plus == p / (p - 1.0)
    assert const.divided_by(1.5).p_plus == p / 1.5


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan, 0.0, -2.0])
def test_constant_refuses_a_non_finite_p(p):
    # a finite p is refused where it is not positive, by its value
    match = "finite" if not math.isfinite(p) else re.escape(f"p_minus={p}")
    with pytest.raises(ValueError, match=match):
        constant_exponent(p)
    with pytest.raises(ConfigError, match=match):
        make_exponent({"kind": "constant", "p": p})


@pytest.mark.parametrize("formula_id,params", [
    ("inv_one_plus_abs", {"base": -3.0}),
    ("inv_one_plus_sq", {"base": -1.0, "amp": 0.5}),
    ("sin_loglog", {"base": 0.5, "amp": -1.0}),  # p(0) < 0 below a swapped p_minus
])
def test_smooth_refuses_a_non_positive_p_minus(formula_id, params):
    with pytest.raises(ValueError, match="p_minus=-"):
        smooth_exponent(formula_id, params)
    with pytest.raises(ConfigError, match="p_minus=-"):
        make_exponent({"kind": "smooth", "formula_id": formula_id, "params": params})


@pytest.mark.parametrize("e", [constant_exponent(1.0),
                               piecewise_exponent([0.0], [0.5, 2.0]),
                               smooth_exponent("inv_one_plus_abs", {"base": 0.5})])
def test_conjugate_refuses_p_minus_at_most_one(e):
    with pytest.raises(ValueError, match=re.escape(f"p_minus={e.p_minus}")):
        e.conjugate()


def test_piecewise_lookup():
    e = piecewise_exponent([0.5], [2.0, 3.0])
    assert e.evaluate(0.75) == 3.0
    assert e.evaluate(0.49) == 2.0
    assert e.evaluate(0.5) == 3.0  # pieces are [break, next) on the right


@pytest.mark.parametrize("breaks,values", [
    ([math.nan], [2.0, 3.0]),      # bisect_right puts every x right of it
    ([1.0], [2.0, math.nan]),      # max() skips the nan when it comes second
    ([math.inf], [2.0, 3.0]),
])
def test_piecewise_refuses_non_finite_breaks_and_values(breaks, values):
    with pytest.raises(ValueError, match="finite"):
        piecewise_exponent(breaks, values)
    with pytest.raises(ConfigError, match="finite"):
        make_exponent({"kind": "piecewise", "breaks": breaks, "values": values})


def test_smooth_closed_form():
    e = smooth_exponent("inv_one_plus_abs", {"base": 2.0, "amp": 1.0})
    assert abs(e.evaluate(0.0) - 3.0) <= 1e-15
    assert abs(e.evaluate(1.0) - 2.5) <= 1e-15


@pytest.mark.parametrize("p,expected", [(2.0, 2.0), (3.0, 1.5), (1.5, 3.0)])
def test_conjugate_constants(p, expected):
    ec = constant_exponent(p).conjugate()
    assert abs(ec.evaluate(0.3) - expected) <= 1e-15


def test_conjugate_piecewise_pointwise():
    e = piecewise_exponent([0.0], [2.0, 3.0])
    ec = e.conjugate()
    assert abs(ec.evaluate(-1.0) - 2.0) <= 1e-15
    assert abs(ec.evaluate(1.0) - 1.5) <= 1e-15


def test_conjugate_swaps_bounds():
    e = piecewise_exponent([0.0, 1.0], [1.5, 4.0, 2.0])
    ec = e.conjugate()
    assert abs(ec.p_minus - 4.0 / 3.0) <= 1e-12
    assert abs(ec.p_plus - 3.0) <= 1e-12


_catalog = st.sampled_from([
    constant_exponent(2.0),
    constant_exponent(3.7),
    piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0]),
    piecewise_exponent([-1.0, 0.5], [1.5, 2.5, 4.0]),
    smooth_exponent("inv_one_plus_abs"),
    smooth_exponent("inv_one_plus_sq", {"base": 1.8, "amp": 0.7}),
    smooth_exponent("sin_loglog", {"base": 3.0, "amp": -0.5}),
])


@settings(max_examples=60, deadline=None)
@given(_catalog, st.floats(-100.0, 100.0))
def test_conjugate_involution(e, x):
    back = e.conjugate().conjugate()
    assert abs(back.evaluate(x) - e.evaluate(x)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(_catalog)
def test_conjugate_bound_swap(e):
    ec = e.conjugate()
    assert abs(ec.p_minus - e.p_plus / (e.p_plus - 1.0)) <= 1e-12
    assert abs(ec.p_plus - e.p_minus / (e.p_minus - 1.0)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_catalog, st.floats(-1e6, 1e6))
def test_sampled_values_respect_cached_bounds(e, x):
    v = e.evaluate(x)
    assert e.p_minus - 1e-12 <= v <= e.p_plus + 1e-12


def test_is_in_P():
    assert is_in_P(constant_exponent(2.0))
    assert is_in_P(constant_exponent(1000.0))
    assert not is_in_P(piecewise_exponent([0.0], [1.0, 2.0]))


def test_divided_by_keeps_kind():
    e = piecewise_exponent([1.0], [2.0, 3.0]).divided_by(1.5)
    assert e.kind == "piecewise-constant"
    assert abs(e.evaluate(0.0) - 4.0 / 3.0) <= 1e-15
    assert abs(e.p_plus - 2.0) <= 1e-15


def test_log_holder_constant_passes_with_zero():
    rep = log_holder_check(constant_exponent(2.0))
    assert rep.passed
    assert rep.empirical_constant == 0.0


def test_log_holder_smooth_passes():
    rep = log_holder_check(smooth_exponent("inv_one_plus_sq"))
    assert rep.passed
    assert rep.empirical_constant < 5.0


def test_log_holder_oscillating_tail_fails():
    # no limit at infinity: the decay constant blows past the cap
    rep = log_holder_check(smooth_exponent("sin_loglog"))
    assert not rep.passed
    decay = dict((d, v) for d, v, _ in rep.witnesses)["decay log-Holder constant"]
    assert decay > 10.0


def test_log_holder_jump_fails_locally():
    rep = log_holder_check(piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0]))
    assert not rep.passed


def test_sup_near_is_exact_for_piecewise_exponents():
    pw = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])
    assert pw.sup_near(0.0) == 2.0
    assert pw.sup_near(1.0) == 3.0   # both neighbouring pieces count
    assert pw.sup_near(2.0) == 3.0
    assert pw.sup_near(5.0) == 2.0
    assert constant_exponent(4.0).sup_near(0.0) == 4.0
    smooth = smooth_exponent("sin_loglog")
    assert smooth.sup_near(0.0) == smooth.p_plus


# -- even means exact evenness ------------------------------------------------

def _derived(e):
    """e, its conjugate, its quotients, and quotients of the conjugate."""
    return [e, e.conjugate(), e.divided_by(1.5), e.conjugate().divided_by(0.75),
            e.divided_by(0.75).conjugate()]


# the flag is worked out, never passed: the named formulas and the
# constants, and every conjugate and quotient of one
EVEN = [d for e in (constant_exponent(2.0), constant_exponent(3.7),
                    piecewise_exponent([], [1.5]),
                    smooth_exponent("inv_one_plus_abs"),
                    smooth_exponent("inv_one_plus_sq", {"base": 1.8, "amp": 0.7}),
                    smooth_exponent("sin_loglog"),
                    smooth_exponent("sin_loglog", {"shift": 3.0, "amp": 0.5}))
        for d in _derived(e)]
# a step exponent with breaks is unflagged, since it is right-continuous
# and so in general not exactly even at a break, even where its breaks and
# values are symmetric
UNEVEN = [d for e in (piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0]),
                      piecewise_exponent([-1.0, 1.0], [2.0, 3.0, 2.0]),
                      piecewise_exponent([0.0], [2.5, 2.5]))
          for d in _derived(e)]


def _bits(e, x):
    return struct.pack("<d", e.evaluate(x))


def test_parity_flags_are_worked_out():
    assert all(e.even for e in EVEN) and not any(e.even for e in UNEVEN)
    pw = piecewise_exponent([-1.0, 1.0], [2.0, 3.0, 2.0])
    assert pw.evaluate(-1.0) != pw.evaluate(1.0)  # why it is not flagged


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  1e-310, 1e300, -1e300, 1.7976931348623157e308])))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(1e300)
@example(-1e300)
@example(1.0)
def test_even_means_exact_evenness(x):
    for e in EVEN:
        assert _bits(e, -x) == _bits(e, x), (e.kind, e.params, x)
