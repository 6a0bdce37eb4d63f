"""Quadrature: exactness on easy integrands, singular endpoints, domain
arithmetic, and the refinement/linearity invariants."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlp import (Ball, DyadicRing, Func, OperatorImage, QuadratureNonConvergence,
                   abs_power, catalog_bank, chi_ball, chi_interval, chi_ring,
                   constant, dyadic_step, integrate_annulus, integrate_ball,
                   integrate_interval, power, scaled_ball, sign_func, with_sign)
from varlp.config import ExperimentConfig
from varlp.funcs import pointwise_product
from varlp.operators import _ShellTable
from varlp import quadrature
from varlp.quadrature import QuadResult, integrate_shell
from varlp.verify import commutator_bank, symbol_bank

from shell_reference import two_calls


def test_constant_on_unit_interval():
    res = integrate_interval(Func(lambda x: 1.0), 0.0, 1.0)
    assert abs(res.value - 1.0) <= 1e-12


def test_polynomial_exactness():
    res = integrate_interval(Func(lambda x: x * x), 0.0, 1.0)
    assert abs(res.value - 1.0 / 3.0) <= 1e-12
    assert res.abs_error_bound <= 1e-9


def test_inverse_sqrt_endpoint_singularity():
    # oracle: closed form 2*sqrt(1); cross-check against a refined run
    g = Func(lambda x: 1.0 / math.sqrt(x), (0.0,))
    res = integrate_interval(g, 0.0, 1.0, tol=1e-9)
    assert abs(res.value - 2.0) <= 5e-9
    finer = integrate_interval(g, 0.0, 1.0, tol=1e-11)
    assert abs(finer.value - 2.0) <= abs(res.value - 2.0) + 1e-12


def test_breakpoint_splitting_handles_jumps():
    jump = Func(lambda x: 1.0 if x < 0.5 else 3.0, (0.5,))
    res = integrate_interval(jump, 0.0, 1.0)
    assert abs(res.value - 2.0) <= 1e-12


def test_ball_measures():
    assert abs(integrate_ball(constant(1.0), Ball(3.0)).value - 6.0) <= 1e-12


def test_ball_abs_x_dimension_one():
    # oracle: 2 * int_0^1 x dx = 1
    res = integrate_ball(power(1.0), Ball(1.0))
    assert abs(res.value - 1.0) <= 1e-10


def test_annulus_measures():
    assert abs(integrate_annulus(constant(1.0), 1).value - 2.0) <= 1e-12
    assert abs(integrate_annulus(constant(1.0), 0).value - 1.0) <= 1e-12


def test_annulus_inverse_abs():
    # oracle: 2 * int_2^4 dx/x = 2 ln 2
    res = integrate_annulus(power(-1.0), 2)
    assert abs(res.value - 2.0 * math.log(2.0)) <= 1e-10


def test_additivity_ball_equals_annuli_sum():
    f = power(0.5)
    whole = integrate_ball(f, Ball(8.0)).value
    parts = sum(integrate_annulus(f, k).value for k in range(-40, 4))
    # the leftover core |x| < 2^-41 contributes ~ (2^-41)^1.5, below tolerance
    assert abs(whole - parts) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(a, b):
    f = Func(lambda x: math.sin(x))
    g = Func(lambda x: x * x)
    combo = integrate_interval(Func(lambda x: a * f.evaluate(x) + b * g.evaluate(x)),
                               0.0, 2.0).value
    separate = a * integrate_interval(f, 0.0, 2.0).value \
        + b * integrate_interval(g, 0.0, 2.0).value
    assert abs(combo - separate) <= 1e-9 * (1.0 + abs(a) + abs(b))


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_monotone_refinement(tol):
    res = integrate_interval(Func(lambda x: math.exp(-x) / math.sqrt(x), (0.0,)),
                             0.0, 1.0, tol=tol)
    assert res.abs_error_bound <= tol


def test_budget_exhaustion_carries_best_estimate():
    wild = Func(lambda x: math.sin(1.0 / x) / x if x != 0 else 0.0, (0.0,))
    with pytest.raises(QuadratureNonConvergence) as exc:
        integrate_interval(wild, 0.0, 1.0, tol=1e-14)
    assert math.isfinite(exc.value.best.value)


def test_shell_both_sides():
    res = integrate_shell(power(1.0), 1.0, 2.0)
    assert abs(res.value - 3.0) <= 1e-10


def test_empty_interval():
    assert integrate_interval(Func(lambda x: 1.0), 2.0, 2.0).value == 0.0
    with pytest.raises(ValueError):
        integrate_interval(Func(lambda x: 1.0), 2.0, 1.0)


# reprs recorded before the GK15 panel became straight-line code, the
# breakpoints were sorted once and the dual kernel lost its ** 1:
# node order, summation order and tie-breaks are part of every report
def _jumpy(x):
    return math.exp(x) if x < 0.3 else 1.0 / (1.0 + x * x)


def _pinned_interval(breakpoints):
    return lambda: integrate_interval(Func(_jumpy, breakpoints()), -1.0, 2.0,
                                      tol=1e-12)


# the 164 jump points dyadic_step is built from, +-2 among them twice
_DYADIC_POINTS = [s * (2.0 ** j + d) for j in range(41) for d in (0.0, 1.0)
                  for s in (1.0, -1.0)]
_TABLE_IMAGE = lambda: OperatorImage("commutator_dual_hardy", scaled_ball(2.0),
                                     b=power(0.5))


def _table_pairs(t):
    img = _TABLE_IMAGE()
    return (img._table_f.ball(t), img._table_f.tail(t),
            img._table_bf.ball(t), img._table_bf.tail(t))


PINNED_QUADRATURE = {
    "interval_unsorted": _pinned_interval(lambda: [1.5, 0.3, -0.7, 1.1]),
    "interval_duplicates": _pinned_interval(lambda: [0.3, 0.3, 1.5, 0.3, 1.5]),
    "interval_negzero": _pinned_interval(lambda: [-0.0, 0.0, 0.3]),
    "interval_outside": _pinned_interval(
        lambda: [-5.0, -1.0, 0.3, 2.0, 7.0, math.inf, -math.inf]),
    "interval_generator": _pinned_interval(lambda: (0.1 * k for k in range(-20, 30))),
    "dyadic_step_interval": lambda: integrate_interval(dyadic_step(), -3000.5, 1e6),
    "dyadic_step_shell": lambda: integrate_shell(abs_power(dyadic_step()), 0.75,
                                                 2.0 ** 30),
    # odd, so the value is the exact 0 (-1.0658e-14 +- 3.99e-11 over 120
    # panels before odd integrands skipped their panels)
    "dyadic_step_dual_kernel": lambda: integrate_shell(
        _ShellTable(dyadic_step())._dual_kernel(), 0.75, 2.0 ** 30),
    # |y|^0.25 / |y| on [t, 2t], split into 6 panels
    "inv_abs_kernel": lambda: integrate_shell(
        _ShellTable(power(0.25))._dual_kernel(), 1e-3, 2e-3, tol=1e-15),
    **{f"table_{t}": (lambda t=t: _table_pairs(t)) for t in (0.01, 0.3, 1.0, 1.5, 1.99)},
}
PINNED_QUADRATURE_REPRS = {
    "interval_unsorted": "QuadResult(value=1.7976712897207845, abs_error_bound=1.0685896612017132e-15, subdivisions=7)",
    "interval_duplicates": "QuadResult(value=1.7976712897207845, abs_error_bound=1.2309597785531423e-14, subdivisions=5)",
    "interval_negzero": "QuadResult(value=1.797671289720784, abs_error_bound=3.391731340229853e-14, subdivisions=7)",
    "interval_outside": "QuadResult(value=1.7976712897207845, abs_error_bound=3.391731340229853e-14, subdivisions=6)",
    "interval_generator": "QuadResult(value=1.7976712897207843, abs_error_bound=1.214306433183765e-16, subdivisions=30)",
    "dyadic_step_interval": "QuadResult(value=1044480.0, abs_error_bound=0.0, subdivisions=63)",
    "dyadic_step_shell": "QuadResult(value=2147483646.0, abs_error_bound=0.0, subdivisions=120)",
    "dyadic_step_dual_kernel": "QuadResult(value=0.0, abs_error_bound=0.0, subdivisions=0)",
    "inv_abs_kernel": "QuadResult(value=0.2691704934737643, abs_error_bound=1.1102230246251565e-15, subdivisions=6)",
    "table_0.01": "((2.5e-05, 0.0), (0.995, 0.0), (2.0000000000000003e-06, 1.9654529006339954e-14), (0.9424757082487302, 1.4448770491071978e-13))",
    "table_0.3": "((0.0225, 0.0), (0.85, 0.0), (0.00985900603509299, 1.9654528900460836e-14), (0.8880367858315469, 1.4462637436858067e-13))",
    "table_1.0": "((0.25, 0.0), (0.5, 0.0), (0.2, 1.9654528900460836e-14), (0.6094757082487301, 2.378573528614782e-13))",
    "table_1.5": "((0.5625, 0.0), (0.25, 0.0), (0.5511351921262151, 1.9710040051692094e-14), (0.3304366058862689, 1.4459861879296505e-13))",
    "table_1.99": "((0.9900250000000002, 1.1102230246251565e-16), (0.0050000000000000044, 0.0), (1.1172817030614974, 3.3865383615662836e-14), (0.007062221597559705, 1.4448759649050253e-13))",
}


@pytest.mark.parametrize("name", sorted(PINNED_QUADRATURE))
def test_quadrature_is_bit_identical_to_pinned(name):
    assert repr(PINNED_QUADRATURE[name]()) == PINNED_QUADRATURE_REPRS[name]


def _packed(res):
    return struct.pack("<ddq", *res)


def test_an_integrand_s_own_points_split_the_interval():
    # integrate_interval splits at g.singular_points alone: jumps given in
    # any order, or more than once, build the same Func and the same bits
    dyadic = dyadic_step()
    assert dyadic.singular_points == tuple(sorted(set(_DYADIC_POINTS)))
    for points in (_DYADIC_POINTS, _DYADIC_POINTS[::-1], _DYADIC_POINTS * 2):
        copy = Func(dyadic.evaluate, points, dyadic.support_radius, odd=True)
        assert _packed(integrate_interval(copy, -3000.5, 1e6)) == \
            _packed(integrate_interval(dyadic, -3000.5, 1e6))
    want = _packed(integrate_interval(Func(_jumpy, (-0.7, 0.3, 1.1, 1.5)), -1.0, 2.0,
                                      tol=1e-12))
    for points in ([1.5, 0.3, -0.7, 1.1], [1.1, 1.5, 1.1, -0.7, 0.3, 0.3, -0.7]):
        assert _packed(integrate_interval(Func(_jumpy, points), -1.0, 2.0,
                                          tol=1e-12)) == want


# -- the one-panel shell path --------------------------------------------------
# integrate_shell runs one GK15 panel per side where no jump lies strictly
# inside; each pin compares it with the two adaptive calls it stands for

def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


EXACT_ZERO = repr(QuadResult(0.0, 0.0, 0))


def _assert_shells_match(g, shells, tol):
    """Compare g, and for an even or odd g also its copy without the flag,
    with the two calls: the mirrored panel meets the one it stands for.  An
    odd g itself (these shells are finite and hold no local majorant's
    centre) is the exact 0, which the two calls meet within their error."""
    variants = [g]
    if g.even or g.odd:
        variants.append(Func(g.evaluate, g.singular_points, g.support_radius))
    for h in variants:
        for lo, hi in shells:
            got = _outcome(lambda: integrate_shell(h, lo, hi, tol))
            if h.odd:
                assert got == EXACT_ZERO, (lo, hi)
                ref = two_calls(h, lo, hi, tol)
                assert abs(ref.value) <= ref.abs_error_bound, (lo, hi)
            else:
                assert got == _outcome(lambda: two_calls(h, lo, hi, tol)), \
                    (h.even, lo, hi)


def _forward_tables():
    """The (f, b f) tables of the thm4.1-forward images on the default config."""
    cfg = ExperimentConfig()
    cases = [(name, f, sign_func()) for name, _, f in
             commutator_bank(*cfg.grid("commutator_scale_m"))]
    c_lo, c_hi = cfg.grid("commutator_converse_m")
    cases += [(f"chi_ball_2^{m}", chi_ball(2.0 ** m), dyadic_step())
              for m in range(c_lo, c_hi + 1)]
    return {name: (f, b) for name, f, b in cases}


FORWARD_TABLES = _forward_tables()


@pytest.mark.parametrize("name", sorted(FORWARD_TABLES))
def test_one_panel_shells_of_forward_tables(name):
    f, b = FORWARD_TABLES[name]
    for g in (f, pointwise_product(b, f)):
        table = _ShellTable(g, 1e-10)
        radii = table.radii
        shells = list(zip(radii, radii[1:]))
        shells += [(lo, 0.5 * (lo + hi)) for lo, hi in shells]  # partial shells
        _assert_shells_match(g, shells, table.tol)
        _assert_shells_match(table._dual_kernel(),
                             [(lo, hi) for lo, hi in shells if lo > 0.0], table.tol)
    assert any(not g.even for g in (f, pointwise_product(b, f)))


# a jump at an end, a jump inside, both, and shells far from every jump
CATALOG_SHELLS = ((0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (0.25, 3.0), (0.0, 1.5),
                  (0.75, 1.25), (2.0, 4.0), (1e-3, 1e3), (3.0, 5.0), (0.0, 1e-9))


@pytest.mark.parametrize("name, f", catalog_bank() + symbol_bank())
def test_one_panel_shells_of_catalog_members(name, f):
    _assert_shells_match(f, CATALOG_SHELLS, 1e-9)
    _assert_shells_match(f, CATALOG_SHELLS, 1e-13)


def _ring_modular(f, e, lam, even):
    """A modular integrand as a ring pass in dimension 1 builds it."""
    ffn, pfn = f.evaluate, e.evaluate
    return Func(lambda x: (abs(ffn(x)) / lam) ** pfn(x),
                (*f.singular_points, *e.breakpoints), f.support_radius, even=even)


@pytest.mark.parametrize("e_name", ["const2", "pw23"])
def test_one_panel_shells_of_ring_modulars(e_name):
    e = ExperimentConfig().exponent(e_name)
    rings = [(DyadicRing(k).inner, DyadicRing(k).outer) for k in range(-3, 5)]
    fs = [chi_ring(1), scaled_ball(2.0), with_sign(chi_ball(2.0)), power(-0.25),
          dyadic_step()]
    for f in fs:
        for lam in (0.5, 1.0, 3.0):
            # exactly even only where f and p are
            even = f.even and e_name == "const2"
            _assert_shells_match(_ring_modular(f, e, lam, even), rings, 1e-11)


def _wiggle_func(even):
    wiggle = lambda y: math.sin(50.0 * y) ** 2 if abs(y) <= 1.0 else 0.0  # noqa: E731
    return Func(wiggle if even else (lambda y: y * wiggle(y)), (-1.0, 1.0), 1.0,
                even=even)


def _raises_below(r):
    def fn(y):
        if abs(y) < r:
            raise ValueError(f"evaluated at {y!r}")
        return 1.0
    return fn


ODD_SHELL_CASES = {
    # one panel misses tol, the adaptive path takes over
    "wiggle_even": (_wiggle_func(True), (0.5, 1.0)),
    "wiggle_odd": (_wiggle_func(False), (0.5, 1.0)),
    # one side converges, the other misses tol
    "one_side_wiggles": (Func(lambda y: math.sin(50.0 * y) ** 2 if y > 0.0 else 1.0,
                              (0.0,)), (0.5, 1.0)),
    # non-finite panels: inf, nan, and a sum that overflows
    "inf_panel": (Func(lambda y: math.inf if abs(y) < 0.6 else 1.0, (), math.inf,
                       even=True), (0.5, 1.0)),
    "nan_panel": (Func(lambda y: math.nan, (), math.inf), (0.5, 1.0)),
    "inf_right_only": (Func(lambda y: math.inf if y > 0.0 else 1.0, (0.0,)),
                       (0.5, 1.0)),
    # inf at the outermost Kronrod node only: |K15 - G7| = inf passes the
    # relative test against value inf, so only the finiteness test refuses it
    "inf_kronrod_node": (Func(lambda y: math.inf if abs(y) > 0.99 else 1.0, (),
                              math.inf, even=True), (0.5, 1.0)),
    "inf_kronrod_node_right": (Func(lambda y: math.inf if y > 0.99 else 1.0, ()),
                               (0.5, 1.0)),
    "inf_kronrod_node_left": (Func(lambda y: math.inf if y < -0.99 else 1.0, ()),
                              (0.5, 1.0)),
    "overflowing_panel": (Func(lambda y: 1.5e308, (), math.inf, even=True), (1.0, 3.0)),
    # finite sides whose sum overflows: no test runs after the sum
    "overflowing_sum": (Func(lambda y: 6e307, (), math.inf, even=True), (1.0, 3.0)),
    "nonintegrable": (Func(lambda y: 1.0 / abs(abs(y) - 1.0), (), math.inf,
                           even=True), (0.5, 1.0)),
    # errors raised inside a panel
    "raises_even": (Func(_raises_below(0.6), (), math.inf, even=True), (0.5, 1.0)),
    "raises_odd": (Func(_raises_below(0.6), ()), (0.5, 1.0)),
    "raises_right_only": (Func(lambda y: _raises_below(0.6)(y) if y > 0.0 else 1.0,
                               (0.0,)), (0.5, 1.0)),
    # a zero panel: -0.0 + -0.0 must come back as the calls' 0.0
    "negative_zero": (Func(lambda y: -0.0, (), math.inf, even=True), (0.5, 1.0)),
    "negative_zero_odd": (Func(lambda y: -0.0 if y < 0.0 else 0.0, (0.0,)), (0.5, 1.0)),
    # jumps: at both ends, and one inside on one side only
    "jumps_at_ends": (chi_interval(-1.0, 0.5), (0.5, 1.0)),
    "jump_inside_left": (chi_interval(-0.75, 1.0), (0.5, 1.0)),
    "jump_inside_right": (chi_interval(-1.0, 0.75), (0.5, 1.0)),
    "infinite_outer": (Func(lambda y: 1.0, (), math.inf, even=True), (1.0, math.inf)),
}


@pytest.mark.parametrize("name", sorted(ODD_SHELL_CASES))
@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_one_panel_shell_edge_cases(name, tol):
    g, shell = ODD_SHELL_CASES[name]
    _assert_shells_match(g, [shell], tol)


def test_one_panel_shells_take_one_panel_per_side():
    assert integrate_shell(chi_ball(1.0), 0.25, 0.5).subdivisions == 2
    assert integrate_shell(chi_interval(-1.0, 0.75), 0.5, 1.0).subdivisions > 2
    assert repr(integrate_shell(ODD_SHELL_CASES["negative_zero"][0], 0.5, 1.0)) == \
        "QuadResult(value=0.0, abs_error_bound=0.0, subdivisions=2)"
    assert integrate_shell(ODD_SHELL_CASES["overflowing_sum"][0], 1.0, 3.0).value == math.inf


def test_odd_rule_keeps_the_path_where_the_majorant_centre_lies():
    g = with_sign(power(-1.0))  # odd, and |g| <= |x|^-1 around 0
    assert g.odd and g.local_majorant == (1.0, -1.0, 0.0)
    # the shell holds the centre: the two calls decide, and overflow
    assert _outcome(lambda: integrate_shell(g, 0.0, 1.0)) == \
        _outcome(lambda: two_calls(g, 0.0, 1.0, 1e-9))
    with pytest.raises(OverflowError):
        integrate_shell(g, 0.0, 1.0)
    assert repr(integrate_shell(g, 0.5, 1.0)) == EXACT_ZERO


def test_odd_rule_keeps_the_path_where_the_integral_may_diverge():
    # an infinite shell, and a product whose singular factor leaves it
    # with no local majorant, so it is not flagged odd
    singular = pointwise_product(sign_func(), power(-1.0))
    assert not singular.odd
    for g, lo, hi in ((sign_func(), 1.0, math.inf), (singular, 0.0, 1.0)):
        assert _outcome(lambda: integrate_shell(g, lo, hi)) == \
            _outcome(lambda: two_calls(g, lo, hi, 1e-9))
        with pytest.raises((OverflowError, QuadratureNonConvergence)):
            integrate_shell(g, lo, hi)


def test_dual_kernel_carries_a_majorant_at_the_origin():
    def kernel(**promises):
        return _ShellTable(Func(lambda y: 1.0, (0.0,), 1.0, bound=lambda lo, hi: 1.0,
                                **promises))._dual_kernel()

    # no majorant on g: its sup near 0 times |y|^-1; one centred at 0 loses 1
    # from its exponent; one centred elsewhere leaves the kernel none, nor oddness
    assert kernel(odd=True).local_majorant == (1.0, -1.0, 0.0)
    assert kernel(odd=True, local_majorant=(2.0, -0.5, 0.0)).local_majorant == \
        (2.0, -1.5, 0.0)
    off_centre = kernel(odd=True, local_majorant=(2.0, -0.5, 0.25))
    assert off_centre.local_majorant is None and not off_centre.odd
    k = _ShellTable(sign_func())._dual_kernel()
    assert k.odd and k.local_majorant == (1.0, -1.0, 0.0)
    # sign(y) / |y| is not integrable at 0: refused, not an exact 0
    assert _outcome(lambda: integrate_shell(k, 0.0, 1.0)) == \
        _outcome(lambda: two_calls(k, 0.0, 1.0, 1e-9))
    with pytest.raises(QuadratureNonConvergence):
        integrate_shell(k, 0.0, 1.0)
    assert repr(integrate_shell(k, 0.5, 1.0)) == EXACT_ZERO


@pytest.mark.parametrize("lo, hi, end", [(1.0, math.inf, "inf"),
                                         (-math.inf, -1.0, "-inf"),
                                         (-math.inf, math.inf, "-inf")])
def test_an_infinite_end_is_refused_before_any_panel(lo, hi, end):
    calls = []
    g = Func(lambda y: calls.append(y) or abs(y) ** -2.0, (0.0,))
    with pytest.raises(QuadratureNonConvergence,
                       match=f"non-finite end {end}$") as info:
        integrate_interval(g, lo, hi)
    assert calls == [] and info.value.best.subdivisions == 0


@pytest.mark.parametrize("g", [power(-2.0), sign_func(), chi_ball(2.0)],
                         ids=["power", "sign", "chi"])
def test_an_infinite_shell_is_refused_as_its_calls_refuse(g):
    calls = []
    counted = Func(lambda y: calls.append(y) or g.evaluate(y), g.singular_points,
                   g.support_radius, g.even, g.power_tail, odd=g.odd,
                   local_majorant=g.local_majorant)
    got = _outcome(lambda: integrate_shell(counted, 1.0, math.inf))
    # the left call comes first
    assert got == (QuadratureNonConvergence, "cannot integrate to the non-finite end -inf")
    assert got == _outcome(lambda: two_calls(g, 1.0, math.inf, 1e-9))
    assert calls == []  # not even the one-panel path runs


HALF_TOL_CASES = {
    "even": Func(lambda y: math.cos(10.0 * y), (), math.inf, even=True),
    "odd": Func(lambda y: math.cos(10.0 * y), (), math.inf),
    "left_only": Func(lambda y: math.cos(10.0 * y) if y < 0.0 else 1.0, (0.0,)),
    "right_only": Func(lambda y: math.cos(10.0 * y) if y > 0.0 else 1.0, (0.0,)),
}


@pytest.mark.parametrize("name", sorted(HALF_TOL_CASES))
def test_one_panel_shell_meets_half_the_tolerance(name):
    # each side gets tol / 2: a panel whose error lies between tol / 2 and
    # tol must take the adaptive path, as the two calls do
    g = HALF_TOL_CASES[name]
    # with tol = inf the first panel is accepted: its own error estimate
    err = integrate_interval(HALF_TOL_CASES["odd"], 0.5, 1.0, tol=math.inf).abs_error_bound
    for tol in (1.5 * err, 2.0 * err, 2.5 * err):
        _assert_shells_match(g, [(0.5, 1.0)], tol)
    assert integrate_shell(g, 0.5, 1.0, 1.5 * err).subdivisions > 2
    assert integrate_shell(g, 0.5, 1.0, 2.5 * err).subdivisions == 2


def _tiles(panels, edges):
    """The sorted panels cover [edges[0], edges[-1]] edge to edge, and every
    edge is a panel end."""
    panels = sorted(panels)
    assert panels[0][0] == edges[0] and panels[-1][1] == edges[-1], panels
    assert all(hi == lo for (_, hi), (lo, _) in zip(panels, panels[1:])), panels
    ends = {t for panel in panels for t in panel}
    assert set(edges) <= ends, (edges, panels)


PANEL_CASES = {
    "step_mix": (catalog_bank()[3][1], 4.0),
    "ramp_half": (dict(catalog_bank())["ramp_half"], 3.0),
    "sqrt_cusp": (power(0.5), 2.0),
    "wiggle": (Func(lambda x: math.sin(40.0 * x) ** 2, (-0.3, 0.7)), 1.5),
}


@pytest.mark.parametrize("name", sorted(PANEL_CASES))
def test_recorded_panels_tile_the_interval_and_hold_its_breakpoints(name):
    g, r = PANEL_CASES[name]
    pts = [s for s in g.singular_points if -r < s < r]
    panels = []
    res = integrate_ball(g, Ball(r), panels=panels)
    # the ball splits at 0 and at g's own points, and refines from there
    _tiles(panels, sorted({-r, 0.0, *pts, r}))
    assert len(panels) <= res.subdivisions
    panels = []
    integrate_shell(g, 0.5, r, panels=panels)
    _tiles([p for p in panels if p[0] < 0.0], [-r, *(s for s in pts if s < -0.5), -0.5])
    _tiles([p for p in panels if p[0] > 0.0], [0.5, *(s for s in pts if s > 0.5), r])


def test_a_frozen_panel_is_recorded():
    # a panel one ulp wide cannot split: it is frozen with its error, and a
    # split that makes the value large lets the relative rung accept it
    ulp_end = math.nextafter(1.0, 2.0)

    def panel(fn, lo, hi):
        if lo == 1.0 and hi == ulp_end:
            return 0.0, 9e-10
        if hi - lo >= 0.4:
            return 1.0, 6e-10
        return 1e5, 0.0

    panels = []
    res = quadrature._adapt(None, panel, 1.0, 3.0, [ulp_end, 2.0], 1e-9, panels=panels)
    assert res.value > 1e5
    assert (1.0, ulp_end) in panels
    _tiles(panels, [1.0, ulp_end, 2.0, 3.0])


def test_the_one_panel_shell_records_both_sides():
    for g in (constant(1.0), scaled_ball(4.0), Func(lambda x: x * x + x, ())):
        panels = []
        assert integrate_shell(g, 0.25, 0.5, panels=panels).subdivisions == 2
        assert panels == [(-0.5, -0.25), (0.25, 0.5)]
    # an exact 0 takes no panel
    panels = []
    assert integrate_shell(sign_func(), 0.25, 0.5, panels=panels).value == 0.0
    assert panels == []


@pytest.mark.parametrize("name", sorted(PANEL_CASES))
def test_a_panel_list_changes_no_result(name):
    g, r = PANEL_CASES[name]
    calls = [lambda **kw: integrate_ball(g, Ball(r), **kw),
             lambda **kw: integrate_shell(g, 0.5, r, **kw),
             lambda **kw: integrate_shell(g, 0.5, r, tol=1e-12, **kw)]
    for call in calls:
        assert repr(call(panels=[])) == repr(call())


def test_gk15_nodes_are_the_nodes_the_panel_evaluates():
    seen = []

    def g(x):
        seen.append(x)
        return math.exp(x)

    value, _ = quadrature._gk15(g, 0.3, 1.7)
    nodes = quadrature.gk15_nodes(0.3, 1.7)
    assert sorted(x for x, _ in nodes) == sorted(seen)
    assert sum(w * math.exp(x) for x, w in nodes) == pytest.approx(value, rel=1e-15)
