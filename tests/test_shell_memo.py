"""Operator images integrate each radius once: the one-panel table shells
agree bit for bit with two adaptive ``integrate_interval`` calls, an image
keeps no state per point, every image the commutator checkers build
carries a parity flag, and the evenness the panel mirror relies on is
exact."""

import math
import struct
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varlp import (Func, OperatorImage, abs_power, catalog_bank, chi_ball,
                   chi_interval, constant_exponent, dyadic_step, lincomb,
                   luxemburg_norm, modular, piecewise_exponent, power, scaled_ball,
                   sign_func, smooth_exponent, with_sign, zero)
from varlp import norms, operators, quadrature
from varlp.geometry import Ball, DyadicRing
from varlp.config import ExperimentConfig
from varlp.funcs import pointwise_product, shifted
from varlp.operators import _ShellTable
from varlp.quadrature import QuadResult, integrate_shell
from varlp.verify import commutator_bank, equivalence_bank, symbol_bank, vv_sequence_bank

from shell_reference import two_calls


class _ReferenceTable(_ShellTable):
    """The table with every shell on ``two_calls``."""

    def ball(self, t):
        with mock.patch.object(operators, "integrate_shell", two_calls):
            return super().ball(t)

    def tail(self, t):
        with mock.patch.object(operators, "integrate_shell", two_calls):
            return super().tail(t)


def _grid(table):
    """Every positive table radius, its neighbours one ulp away, the band
    midpoints, the top radius and two radii beyond it."""
    radii = [r for r in table.radii if r > 0.0]
    ts = set(radii)
    for r in radii:
        ts.update((math.nextafter(r, 0.0), math.nextafter(r, math.inf)))
    ts.update(0.5 * (a + b) for a, b in zip(radii, radii[1:]))
    ts.update((table.top, 1.5 * table.top, 4.0 * table.top))
    return sorted(t for t in ts if 0.0 < t < math.inf)


def _assert_table_matches_reference(table):
    """Compare the table with the reference bit for bit.  An odd g's table
    reads the exact 0 with no quadrature error, which the reference meets
    within its own error; its copy without the flag is compared instead."""
    g = table.g
    plain = table
    if g.odd:
        plain = _ShellTable(Func(g.evaluate, g.singular_points, g.support_radius,
                                 power_tail=g.power_tail), table.tol)
    ref = _ReferenceTable(plain.g, table.tol)
    reads = [("ball", _ShellTable.ball, 0.0)]
    if math.isfinite(table.top):
        reads.append(("tail", _ShellTable.tail, table._tail_remainder))
    for t in _grid(table):
        for name, read, remainder in reads:
            want = getattr(ref, name)(t)  # the reference's own read, on two_calls
            assert repr(read(plain, t)) == repr(want), (name, t)
            if g.odd:
                assert repr(read(table, t)) == repr((0.0, remainder)), (name, t)
                assert abs(want[0]) <= want[1], (name, t)


def _forward_images():
    """The images thm4.1-forward builds on the default config: the commutator
    bank against sign, the converse bank against dyadic_step, both kinds."""
    cfg = ExperimentConfig()
    m_lo, m_hi = cfg.grid("commutator_scale_m")
    c_lo, c_hi = cfg.grid("commutator_converse_m")
    cases = [(name, f, "sign", sign_func) for name, _, f in commutator_bank(m_lo, m_hi)]
    cases += [(f"chi_ball_2^{m}", chi_ball(2.0 ** m), "dyadic_step", dyadic_step)
              for m in range(c_lo, c_hi + 1)]
    return {f"{kind}-{b_name}-{name}": (kind, f, b)
            for name, f, b_name, b in cases
            for kind in ("commutator_hardy", "commutator_dual_hardy")}


FORWARD_IMAGES = _forward_images()


def test_every_checker_image_carries_a_parity_flag():
    # thm4.1-forward's images and thm5.1's (vv_sequence_bank against sign):
    # a norm pass over a flagged image reads every -x node from its mirror
    images = {name: (kind, f, b()) for name, (kind, f, b) in FORWARD_IMAGES.items()}
    images.update({f"{kind}-sign-{name}[{j}]": (kind, f, sign_func())
                   for name, _, fs in vv_sequence_bank() for j, f in enumerate(fs)
                   for kind in ("commutator_hardy", "commutator_dual_hardy")})
    unflagged = [name for name, (kind, f, b) in images.items()
                 if not ((img := OperatorImage(kind, f, b=b, tol=1e-10)).even or img.odd)]
    assert len(images) == 104
    assert unflagged == []


@pytest.mark.parametrize("name", sorted(FORWARD_IMAGES))
def test_forward_image_tables_match_integrate_shell(name):
    kind, f, b = FORWARD_IMAGES[name]
    img = OperatorImage(kind, f, b=b(), tol=1e-10)
    _assert_table_matches_reference(img._table_f)
    _assert_table_matches_reference(img._table_bf)


def _wiggle(y):
    return math.sin(50.0 * y) ** 2 if abs(y) <= 1.0 else 0.0


@pytest.mark.parametrize("even", [True, False])
def test_shell_falls_back_where_one_panel_misses_tol(even, monkeypatch):
    # sin^2(50 y) has 8 periods on [0.5, 1]: one GK15 panel cannot meet tol
    fn = _wiggle if even else (lambda y: y * _wiggle(y))
    g = Func(fn, (-1.0, 1.0), 1.0, even=even)
    calls = []
    adapt = quadrature._adapt

    def counted(*args, **kwargs):
        # the reference runs the loop through integrate_interval, so only
        # the calls integrate_shell makes itself are counted
        if sys._getframe(1).f_code is integrate_shell.__code__:
            calls.append(args[2:4])
        return adapt(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_adapt", counted)
    _assert_table_matches_reference(_ShellTable(g, 1e-10))
    assert calls


def test_luxemburg_solve_integrates_each_radius_once(monkeypatch):
    img = OperatorImage("commutator_dual_hardy", chi_ball(2.0), b=sign_func(),
                        tol=1e-10)
    img._table_f._build_tail()
    img._table_bf._build_tail()
    shells = Counter()
    points = []
    compute = OperatorImage._compute

    def counted_shell(g, lo, hi, **kwargs):
        shells[id(g), lo] += 1
        return integrate_shell(g, lo, hi, **kwargs)

    def counted_compute(image, x):
        points.append(x)
        return compute(image, x)

    monkeypatch.setattr(operators, "integrate_shell", counted_shell)
    monkeypatch.setattr(OperatorImage, "_compute", counted_compute)
    luxemburg_norm(img, constant_exponent(2.0))
    assert shells and max(shells.values()) == 1
    radii = Counter(abs(x) for x in points)
    # the image is odd, so its modular is even: no radius is computed twice,
    # and no node is evaluated at both +-x
    assert img.odd and max(radii.values()) == 1


@pytest.mark.parametrize("kind,f,b", [
    ("commutator_hardy", chi_interval(0.0, 1.0), sign_func()),  # raises at 0 only
    ("dual_hardy", power(0.5), None),  # no certified far field: every read raises
])
def test_an_image_keeps_no_state_per_point(kind, f, b):
    img = OperatorImage(kind, f, b=b)
    built = {name: repr(value) for name, value in vars(img).items()}
    raised = 0
    for x in (0.5, -0.5, 0.0, 1.5, 0.5, -3.0):
        try:
            img.evaluate(x)
        except ValueError:
            raised += 1
    assert raised
    # the tables build their shells inside their own objects, whose reprs
    # name only their identity
    assert {name: repr(value) for name, value in vars(img).items()} == built


@pytest.mark.parametrize("kind", ["commutator_hardy", "commutator_dual_hardy"])
def test_commutator_bound_is_zero_where_the_input_bound_is(kind):
    img = OperatorImage(kind, zero(), b=power(0.5))
    assert img.abs_bound_on(3.0, math.inf) == 0.0


# -- even means exact evenness ------------------------------------------------

def _even_members():
    bases = {}
    for name, f in catalog_bank() + equivalence_bank() + symbol_bank():
        bases[name] = f
    for name, _, f in commutator_bank():
        bases[name] = f
    bases["product(sign,with_sign(chi_ball(1)))"] = pointwise_product(
        sign_func(), with_sign(chi_ball(1.0)))  # odd times odd
    bases = {name: f for name, f in bases.items() if f.even}
    out = dict(bases)
    names = sorted(bases)
    for name, nxt in zip(names, names[1:] + names[:1]):
        f, g = bases[name], bases[nxt]
        out[f"lincomb({name},{nxt})"] = lincomb([f, g], [0.7, -1.3])
        out[f"abs_power({name})"] = abs_power(f, 0.5)
        out[f"product({name},{nxt})"] = pointwise_product(f, g)
        out[f"shifted({name})"] = shifted(f, 0.3)
    for name, f in list(out.items()):
        out[f"dual_kernel({name})"] = _ShellTable(f)._dual_kernel()
    return out


def _even_images():
    """integrate_shell mirrors any even integrand, operator images included:
    the commutator images of commutator_bank x symbol_bank that flag
    themselves even, and those of one odd input with a local majorant under
    the odd symbols (under abs its product has no radius ladder, and every
    point query integrates it from 0)."""
    kinds = ("commutator_hardy", "commutator_dual_hardy")
    images = {f"{kind}({b_name},{name})": OperatorImage(kind, f, b=b)
              for name, _, f in commutator_bank() for b_name, b in symbol_bank()
              for kind in kinds}
    local = with_sign(power(-0.5))
    images.update({f"{kind}({b_name},with_sign(power(-0.5)))": OperatorImage(kind, local, b=b)
                   for b_name, b in symbol_bank() if b.odd for kind in kinds})
    return {name: img for name, img in images.items() if img.even}


EVEN_MEMBERS = _even_members()
JUMPS = sorted({s for f in EVEN_MEMBERS.values() for s in f.singular_points})
EVEN_IMAGES = _even_images()
IMAGE_JUMPS = sorted({s for f in EVEN_IMAGES.values() for s in f.singular_points})


def _outcome(f, x):
    try:
        return struct.pack("<d", f.evaluate(x))
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)


def test_even_members_cover_the_banks():
    assert all(f.even for f in EVEN_MEMBERS.values())
    assert len(EVEN_MEMBERS) > 100 and len(JUMPS) > 20
    assert len(EVEN_IMAGES) > 100
    # sgn_window_2^0, sgn_window_2^2 and with_sign(power(-0.5)) under sign
    # and dyadic_step, both kinds
    assert sum(img.b.odd and img.f.odd for img in EVEN_IMAGES.values()) == 12


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(), st.sampled_from(JUMPS),
                 st.sampled_from([0.0, 5e-324, 2.0 ** -1070, 2.0 ** -1022])))
@example(0.0)
@example(5e-324)
def test_even_means_exact_evenness(x):
    for name, f in EVEN_MEMBERS.items():
        assert _outcome(f, -x) == _outcome(f, x), (name, x)


# below 2^-60, the bottom of every table's radius ladder, a dual image's
# partial shell is one adaptive run over up to 1000 binary orders (30 ms
# per image at 1e-300), and below 2^-1024 it is refused as non-finite:
# the strategy stays above 2^-60, two examples below
@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(min_value=2.0 ** -60), st.floats(max_value=-2.0 ** -60),
                 st.sampled_from(IMAGE_JUMPS), st.sampled_from([0.0, math.nan])))
@example(5e-324)
@example(-1e-30)
def test_even_means_exact_evenness_for_images(x):
    for name, f in EVEN_IMAGES.items():
        if f.b.odd and f.f.odd:
            # b(x) times the input's exact zero takes the sign of b(x)
            assert _signless_outcome(f, -x, 1.0) == _signless_outcome(f, x, 1.0), \
                (name, x)
        else:
            assert _outcome(f, -x) == _outcome(f, x), (name, x)


# -- odd means exact oddness --------------------------------------------------

def _odd_members():
    bases = {
        "sign": sign_func(),
        "dyadic_step": dyadic_step(),
        "dyadic_step(3)": dyadic_step(3),
        "with_sign(chi_ball(2))": with_sign(chi_ball(2.0)),
        "with_sign(scaled_ball(2))": with_sign(scaled_ball(2.0)),
        "product(sign,chi_ball(1))": pointwise_product(sign_func(), chi_ball(1.0)),
        "product(dyadic_step,chi_ball(4))": pointwise_product(dyadic_step(),
                                                              chi_ball(4.0)),
    }
    out = dict(bases)
    for name, f in bases.items():
        out[f"dual_kernel({name})"] = _ShellTable(f)._dual_kernel()
    return out


ODD_MEMBERS = _odd_members()
ODD_JUMPS = sorted({t for f in ODD_MEMBERS.values() for s in f.singular_points
                    for t in (s, -s)})


def _signless_outcome(f, x, sign):
    """sign * f(x) with a zero of either sign as one outcome, and a nan as
    one; an exception is its type."""
    try:
        v = sign * f.evaluate(x)
    except Exception as exc:  # noqa: BLE001 - the exception type is the outcome
        return type(exc)
    if v == 0.0 or math.isnan(v):
        return repr(abs(v))
    return struct.pack("<d", v)


def test_parity_flags():
    assert all(f.odd and not f.even for f in ODD_MEMBERS.values())
    odd_times_odd = EVEN_MEMBERS["product(sign,with_sign(chi_ball(1)))"]
    assert odd_times_odd.even and not odd_times_odd.odd
    assert with_sign(sign_func()).even and not with_sign(sign_func()).odd
    lopsided = chi_interval(0.0, 1.0)  # neither parity, so no product has one
    for f in (with_sign(lopsided), pointwise_product(sign_func(), lopsided)):
        assert not f.even and not f.odd
    # a product with a singular factor carries no local majorant, so it is
    # not flagged odd
    assert not pointwise_product(sign_func(), power(-0.5)).odd
    for kind in ("commutator_hardy", "commutator_dual_hardy"):
        # an odd b on an even f: b f is odd, its table the exact zero
        img = OperatorImage(kind, chi_ball(1.0), b=sign_func())
        assert img.odd and not img.even, kind
        for f, b in ((lopsided, sign_func()),  # b f has no parity
                     (with_sign(chi_ball(1.0)), chi_ball(2.0)),  # even b, odd f
                     (power(-0.5), sign_func())):  # singular f: b f not flagged
            assert not OperatorImage(kind, f, b=b).odd, (kind, f, b)
    assert not OperatorImage("hardy", chi_ball(1.0)).odd
    # |f|^p of an even or odd f is even under a constant p and under the
    # smooth formulas, which are exactly even; not under pw23
    pw23 = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])
    even_ps = [constant_exponent(2.0), *(smooth_exponent(name) for name in
                                         ("inv_one_plus_abs", "inv_one_plus_sq",
                                          "sin_loglog"))]
    for f in (chi_ball(1.0), sign_func(), dyadic_step(3)):
        for domain in (Ball(2.0), DyadicRing(1)):
            for e in even_ps:
                assert all(g.even for g in _modular_integrands(f, e, domain)), \
                    (f, e.params, domain)
            assert not any(g.even for g in _modular_integrands(f, pw23, domain)), \
                (f, domain)
    for e in even_ps:
        assert not any(g.even for g in _modular_integrands(lopsided, e, Ball(2.0)))


def _decaying_bump():
    """Even, bounded, with a decaying tail and no compact support, so an
    odd symbol's b f tail table carries a nonzero remainder."""
    return Func(lambda x: 1.0 / (1.0 + x * x), (), math.inf, even=True,
                power_tail=(1.0, -2.0, 1.0), bound=lambda lo, hi: 1.0 / (1.0 + lo * lo))


@pytest.mark.parametrize("kind", ["commutator_hardy", "commutator_dual_hardy"])
@pytest.mark.parametrize("f_name", ["chi_ball(2)", "scaled_ball(1)", "decaying"])
def test_odd_images_read_what_the_product_table_holds(kind, f_name):
    f = {"chi_ball(2)": chi_ball(2.0), "scaled_ball(1)": scaled_ball(1.0),
         "decaying": _decaying_bump()}[f_name]
    img = OperatorImage(kind, f, b=sign_func())
    assert img.odd
    read = _ShellTable.tail if kind.endswith("dual_hardy") else _ShellTable.ball
    table = img._table_bf
    if f_name == "decaying" and kind.endswith("dual_hardy"):
        assert table._tail_remainder > 0.0
    for t in (2.0 ** -70, 1e-3, 0.3, 1.0, 1.7, 2.0, 5.0, 1e3, 1e20):
        assert repr(img._bf_read) == repr(read(table, t)), t


def _modular_integrands(f, e, domain):
    """The integrands one modular pass of f hands to quadrature."""
    seen = []

    def record(g, *args, **kwargs):
        seen.append(g)
        return QuadResult(1.0, 0.0, 1)

    with mock.patch.object(norms, "integrate_ball", record), \
            mock.patch.object(norms, "integrate_shell", record):
        modular(f, e, domain)
    assert seen
    return seen


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(), st.sampled_from(ODD_JUMPS),
                 st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan])))
@example(0.0)
@example(5e-324)
@example(math.nan)
@example(2.0)
@example(-2.0)
def test_odd_means_exact_oddness(x):
    for name, f in ODD_MEMBERS.items():
        assert _signless_outcome(f, -x, 1.0) == _signless_outcome(f, x, -1.0), \
            (name, x)
