"""Flat data: the ``flat`` promise of the evaluables, and the Luxemburg
passes that compute one value per piece for it and raise |f| to a constant
exponent without evaluating p per node, bit for bit."""

import math
import struct
from bisect import bisect_left

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varlp import (FULL_LINE, Ball, DyadicRing, Exponent, NotInSpaceError,
                   OperatorImage, abs_power, catalog_bank, chi_ball, chi_interval,
                   chi_norm, chi_ring, constant, constant_exponent, dyadic_step,
                   lincomb, luxemburg_norm, lr_aggregate, modular,
                   piecewise_exponent, power, scaled_ball, sign_func,
                   smooth_exponent, with_sign, zero)
from varlp import norms
from varlp.funcs import Func, pointwise_product, shifted
from varlp.norms import dual_extremizer
from varlp.operators import _ShellTable
from varlp.quadrature import integrate_ball, integrate_shell
from varlp.verify import (commutator_bank, equivalence_bank, symbol_bank,
                          vv_sequence_bank)

CONST2 = constant_exponent(2.0)
CONST3 = constant_exponent(3.0)
PW23 = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])


def _unflagged(f):
    """f with every promise but ``flat``."""
    return Func(f.evaluate, f.singular_points, f.support_radius, f.even,
                f.power_tail, odd=f.odd, bound=f.abs_bound_on,
                local_majorant=f.local_majorant, kind=f.kind, params=f.params)


def _flat_members():
    """Every flat member of the banks and the catalog, and the composites
    that carry the flag."""
    bases = {
        "zero": zero(),
        "constant": constant(-2.5),
        "chi_interval": chi_interval(-0.5, 2.0),
        "chi_ring(2)": chi_ring(2),
        "chi_ring(-3)": chi_ring(-3),
        "dyadic_step(3)": dyadic_step(3),
    }
    for name, f in catalog_bank() + equivalence_bank() + symbol_bank():
        bases[name] = f
    for name, _, f in commutator_bank():
        bases[name] = f
    for name, _, fs in vv_sequence_bank():
        bases.update((f"{name}[{j}]", f) for j, f in enumerate(fs))
    bases = {name: f for name, f in bases.items() if f.flat}
    out = dict(bases)
    names = sorted(bases)
    for name, nxt in zip(names, names[1:] + names[:1]):
        f, g = bases[name], bases[nxt]
        out[f"lincomb({name},{nxt})"] = lincomb([f, g], [0.7, -1.3])
        out[f"product({name},{nxt})"] = pointwise_product(f, g)
        out[f"lr_aggregate({name},{nxt})"] = lr_aggregate([f, g], 1.5)
        out[f"shifted({name})"] = shifted(f, 0.3)
        out[f"abs_power({name})"] = abs_power(f, 0.5)
        out[f"with_sign({name})"] = with_sign(f)
    return out


FLAT_MEMBERS = _flat_members()
NEAR_JUMPS = sorted({t for f in FLAT_MEMBERS.values() for s in f.singular_points
                     for t in (s, math.nextafter(s, -math.inf),
                               math.nextafter(s, math.inf))})
# both unbounded ends
FAR = [sign * far for far in (1.7976931348623157e308, 1e300, 2.0 ** 60)
       for sign in (1.0, -1.0)]


def _inside(lo, hi):
    """A point strictly inside the open piece (lo, hi)."""
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return 0.5 * (lo + hi)


def _piece(f, x):
    """The open piece of f's singular points holding x, or None on a cut."""
    cuts = f.singular_points
    j = bisect_left(cuts, x)
    if j < len(cuts) and cuts[j] == x:
        return None
    return (cuts[j - 1] if j else -math.inf), (cuts[j] if j < len(cuts) else math.inf)


def _signless(v):
    return "zero" if v == 0.0 else struct.pack("<d", v)


def test_flat_flags():
    assert len(FLAT_MEMBERS) > 150 and len(NEAR_JUMPS) > 200
    for f in (zero(), constant(3.0), chi_interval(0.0, 1.0), chi_ring(1),
              sign_func(), dyadic_step(), with_sign(chi_ball(1.0)),
              abs_power(chi_ring(0), 2.0), shifted(sign_func(), 0.5),
              pointwise_product(sign_func(), chi_ball(1.0)),
              lr_aggregate([chi_ring(1), sign_func()], 2.0),
              lincomb([chi_ball(1.0), dyadic_step(2)], [1.0, 2.0])):
        assert f.flat, f
    # a varying factor or term, an image, a kernel or an extremizer is not flat
    for f in (power(0.5), power(-1.0), scaled_ball(1.0), with_sign(scaled_ball(1.0)),
              lincomb([chi_ball(1.0), power(0.5)], [1.0, 1.0]),
              pointwise_product(sign_func(), power(1.0)),
              lr_aggregate([chi_ball(1.0), scaled_ball(1.0)], 2.0),
              OperatorImage("hardy", chi_ball(1.0)),
              OperatorImage("commutator_hardy", chi_ball(1.0), b=sign_func()),
              _ShellTable(sign_func())._dual_kernel(),
              dual_extremizer(chi_ball(1.0), CONST2, 1.0)):
        assert not f.flat, f


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from(NEAR_JUMPS), st.sampled_from(FAR),
                 st.sampled_from([0.0, -0.0, 5e-324, -5e-324])))
@example(0.0)
@example(-5e-324)
@example(1.7976931348623157e308)
@example(-1.7976931348623157e308)
@example(math.nextafter(1.0, 2.0))
@example(math.nextafter(2.0, 0.0))
def test_flat_means_one_value_per_piece(x):
    for name, f in FLAT_MEMBERS.items():
        piece = _piece(f, x)
        if piece is None:
            continue
        assert _signless(f.evaluate(x)) == _signless(f.evaluate(_inside(*piece))), \
            (name, x, piece)


# -- the passes: bit-identical to the unflagged function --------------------

PIN_MEMBERS = {
    "chi01": chi_interval(0.0, 1.0),
    "ring1": chi_ring(1),
    "step_mix": dict(catalog_bank())["step_mix"],
    "sgn_window": with_sign(chi_ball(2.0)),
    "sign": sign_func(),
    "constant": constant(1.5),
    "dyadic_step(3)": dyadic_step(3),
    "shifted": shifted(chi_interval(-0.5, 2.0), 0.3),
    "lr_aggregate": lr_aggregate([chi_ring(0), chi_ring(1)], 2.0),
    "abs_power": abs_power(lincomb([chi_ball(1.0), dyadic_step(2)], [-3.0, 0.7]), 1.5),
    "product": pointwise_product(dyadic_step(), chi_ball(4.0)),
}
PIN_EXPONENTS = {"const2": CONST2, "const3": CONST3, "pw23": PW23}
PIN_DOMAINS = {"ball1": Ball(1.0), "ball3": Ball(3.0), "ring1": DyadicRing(1),
               "ring2": DyadicRing(2), "line": FULL_LINE}


def _outcome(call):
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("exp_name", sorted(PIN_EXPONENTS))
@pytest.mark.parametrize("name", sorted(PIN_MEMBERS))
def test_flat_solves_match_the_unflagged_function(name, exp_name):
    f, e = PIN_MEMBERS[name], PIN_EXPONENTS[exp_name]
    g = _unflagged(f)
    assert f.flat and not g.flat
    for domain in PIN_DOMAINS.values():
        for entry in (luxemburg_norm, modular):
            assert _outcome(lambda: entry(f, e, domain)) == \
                _outcome(lambda: entry(g, e, domain)), (entry.__name__, domain)


@pytest.mark.parametrize("exp_name", sorted(PIN_EXPONENTS))
def test_chi_norm_matches_an_unflagged_one(exp_name):
    e = PIN_EXPONENTS[exp_name]
    one = Func(lambda x: 1.0, (), math.inf, even=True, power_tail=(1.0, 0.0, 1.0))
    solved = 0
    for region in (Ball(1.0), Ball(3.0), DyadicRing(1), DyadicRing(2)):
        got = chi_norm(region, e)
        if got.bisection_iters:  # not the closed form: a solve of the flat 1
            solved += 1
            assert repr(got) == repr(luxemburg_norm(one, e, region)), region
    assert solved == (2 if exp_name == "pw23" else 0)


def _plain_modular(f, e, domain, tol=1e-9):
    """The modular as one integral of (|f(x)| / 1.0) ** p(x), with no node
    table, no piece memo and no constant exponent."""
    fn, pfn = f.evaluate, e.evaluate
    plain = Func(lambda x: (abs(fn(x)) / 1.0) ** pfn(x),
                 (*f.singular_points, *e.breakpoints), f.support_radius)
    if domain.inner == 0.0:
        res = integrate_ball(plain, Ball(domain.outer), tol=tol)
    else:
        res = integrate_shell(plain, domain.inner, domain.outer, tol=tol)
    return 0.0 + res.value


PLAIN_MEMBERS = {**PIN_MEMBERS, "f0_r1": scaled_ball(1.0),
                 "power_half": power(0.5), "ramp_half": abs_power(scaled_ball(2.0), 0.5)}
PLAIN_EXPONENTS = {**PIN_EXPONENTS,
                   "smooth": smooth_exponent("inv_one_plus_abs", {"base": 2.0, "amp": 1.0})}


@pytest.mark.parametrize("exp_name", sorted(PLAIN_EXPONENTS))
@pytest.mark.parametrize("name", sorted(PLAIN_MEMBERS))
def test_modular_is_the_plain_integral(name, exp_name):
    f, e = PLAIN_MEMBERS[name], PLAIN_EXPONENTS[exp_name]
    for domain in (Ball(0.5), Ball(1.5), Ball(3.0), DyadicRing(1), DyadicRing(3)):
        assert repr(modular(f, e, domain)) == repr(_plain_modular(f, e, domain)), domain


# -- the passes: what they evaluate ------------------------------------------

def _counting(f, calls):
    """f with the same promises, recording every point it is evaluated at."""
    fn = f.evaluate

    def counted(x):
        calls.append(x)
        return fn(x)

    return Func(counted, f.singular_points, f.support_radius, f.even, f.power_tail,
                odd=f.odd, flat=f.flat, bound=f.abs_bound_on,
                local_majorant=f.local_majorant)


@pytest.mark.parametrize("exp_name", sorted(PIN_EXPONENTS))
@pytest.mark.parametrize("base", [dyadic_step(6), PIN_MEMBERS["step_mix"],
                                  PIN_MEMBERS["shifted"], chi_ring(3)],
                         ids=["dyadic_step", "step_mix", "shifted", "ring3"])
def test_a_flat_pass_evaluates_f_once_per_piece(base, exp_name):
    e = PIN_EXPONENTS[exp_name]
    for domain in (Ball(70.0), DyadicRing(3), FULL_LINE):
        try:
            norms._refuse(base, e, domain)
        except NotInSpaceError:  # f - 0.3 has no whole-line modular
            continue
        counts = {}
        for flat in (True, False):
            calls = []
            f = _counting(base if flat else _unflagged(base), calls)
            p_const = e.constant_value_on(norms._components(domain))
            table = {}
            rho = norms._modular_passes(f, e, domain, 1e-11, p_const, table)
            cuts = sorted({*f.singular_points, *e.breakpoints})
            counts[flat] = 0
            for lam in (0.3, 1.0, 7.0):
                table.clear()  # so that every node of the pass reaches f
                calls.clear()
                rho(lam)
                counts[flat] += len(calls)
                if flat:
                    pieces = [bisect_left(cuts, x) for x in calls if x not in cuts]
                    assert len(pieces) == len(set(pieces)), (domain, lam)
        assert counts[True] * 10 < counts[False], (domain, counts)


def _pass_integrand(f, e, lam):
    """The integrand of one pass of a solve of f on Ball(5), right after
    the pass at lam: its piece memo still holds the pass's last piece."""
    seen = []
    real = norms.integrate_ball
    norms.integrate_ball = lambda g, ball, tol, panels: \
        seen.append(g) or real(g, ball, tol=tol, panels=panels)
    try:
        domain = Ball(5.0)
        norms._modular_passes(f, e, domain, 1e-11,
                              e.constant_value_on(norms._components(domain)), {})(lam)
    finally:
        norms.integrate_ball = real
    return seen[0]


MEMO_CASES = [(f, e, lam, _pass_integrand(f, e, lam))
              for f in (chi_interval(0.0, 1.0), dyadic_step(3), PIN_MEMBERS["step_mix"],
                        with_sign(chi_ball(2.0)))
              for e in (CONST3, PW23) for lam in (0.7, 3.0)]
MEMO_POINTS = sorted({t for *_, g in MEMO_CASES for s in g.singular_points
                      for t in (s, math.nextafter(s, -math.inf),
                                math.nextafter(s, math.inf))})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(MEMO_POINTS),
                          st.floats(min_value=-5.0, max_value=5.0)), max_size=12))
@example([-0.5, 0.0, 0.5, 1.0, 1.5])  # into a cut from each side, and out
@example([0.5, 1.0, 2.0, 2.5, 2.0, 1.5, 1.0])
def test_the_piece_memo_returns_each_node_its_own_value(xs):
    # any order of nodes, cuts included, as later passes and quadrature
    # may bring them: the memo must never hand one node another's value
    for f, e, lam, g in MEMO_CASES:
        for x in xs:
            want = (abs(f.evaluate(x)) / lam) ** e.evaluate(x)
            assert struct.pack("<d", g.evaluate(x)) == struct.pack("<d", want), \
                (f, e.kind, lam, x)


def test_a_constant_exponent_is_never_evaluated_per_node(monkeypatch):
    calls = []
    evaluate = Exponent.evaluate

    def counted(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(Exponent, "evaluate", counted)
    for f in (chi_interval(0.0, 1.0), scaled_ball(2.0), power(0.5)):
        for domain in (Ball(3.0), DyadicRing(1)):
            luxemburg_norm(f, CONST2, domain)
            modular(f, CONST3, domain)
            luxemburg_norm(f, PW23, DyadicRing(3))  # p is 2 on both sides
    assert calls == []
    luxemburg_norm(scaled_ball(2.0), PW23, Ball(3.0))  # p varies on the ball
    assert calls
