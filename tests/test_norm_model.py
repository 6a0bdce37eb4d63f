"""The modular's known form decides which Luxemburg passes run.

Where p is constant on the domain, or f is flat under a piecewise-constant
p in dimension 1, the modular is a sum of w lam^-q.  A solve then runs
only the passes near that model's root, about 3, and its result is the
exact search's bit for bit.  A modular that breaks its model falls back
to the exact search, and building a model never raises.
"""

import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varlp import (FULL_LINE, Ball, DyadicRing, Func, chi_ball, chi_interval,
                   chi_ring, constant_exponent, dyadic_step, lincomb,
                   luxemburg_norm, piecewise_exponent, sign_func, with_sign)
from varlp import norms
from varlp.funcs import shifted

E2 = constant_exponent(2.0)
E3 = constant_exponent(3.0)
PW23 = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])
EXPONENTS = {"const2": E2, "const3": E3, "pw23": PW23}

FLAT = {
    "sign": sign_func(),
    "chi01": chi_interval(0.0, 1.0),
    "sgn_window": with_sign(chi_ball(2.0)),
    "dyadic_step": dyadic_step(),
    "ring1": chi_ring(1),
    "steps": lincomb([chi_interval(-1.5, 0.5), chi_interval(0.25, 3.0)], [2.0, -0.75]),
}
# compactly supported, so the whole line takes them
COMPACT = ("chi01", "sgn_window", "ring1", "steps")
SHIFTS = (0.0, 0.3, -1.25, 2.0)
REGIONS = (Ball(0.5), Ball(1.5), Ball(4.0), DyadicRing(1), DyadicRing(2),
           DyadicRing(3))


@contextmanager
def _counted():
    """Count the modular passes and the _search runs of the solves inside;
    a second _search run in one solve is the exact fallback."""
    counts = {"passes": 0, "searches": 0}
    make, search = norms._modular_passes, norms._search

    def passes(*args):
        rho = make(*args)

        def counted(lam):
            counts["passes"] += 1
            return rho(lam)

        return counted

    def searched(*args):
        counts["searches"] += 1
        return search(*args)

    with mock.patch.object(norms, "_modular_passes", passes), \
            mock.patch.object(norms, "_search", searched):
        yield counts


def _exact(f, e, domain, tol=1e-9, retried=None):
    """The exact search's result, every pass run.  Where its bracket from
    the seed gives out and the modular has a model, the search runs again
    from the model's root, and ``retried`` records it."""
    mod_tol = min(tol, norms.MODULAR_TOL)
    p_const = e.constant_value_on(norms._components(domain))
    rho = norms._modular_passes(f, e, domain, mod_tol, p_const, {})
    rho1 = rho(1.0)
    if rho1 == 0.0:
        return norms.NormResult(0.0, 0.0, 0, (0.0, 0.0))
    try:
        return norms._search(rho, norms._seed_lambda(f, e, domain), e.p_minus,
                             mod_tol)[0]
    except norms.BracketExpansionError:
        model = norms._model(f, e, domain, mod_tol, p_const, rho1)
        if not model:
            raise
    if retried is not None:
        retried.append(True)
    return norms._search(rho, norms._model_root(model), e.p_minus, mod_tol)[0]


def _outcome(call):
    """A result as its repr, an error as its type and text."""
    try:
        return repr(call())
    except (ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


def _solve(f, e, domain):
    """The solve's passes, after checking its outcome against the exact
    search's bit for bit, and that a result came with no fallback."""
    retried = []
    want = _outcome(lambda: _exact(f, e, domain, retried=retried))
    with _counted() as counts:
        got = _outcome(lambda: luxemburg_norm(f, e, domain))
    assert got == want, (f, e.kind, domain)
    # an error raised on the way reruns the exact search, which raises it;
    # where the exact search's bracket gives out, it runs a third time
    searches = 3 if retried else 1
    assert counts["searches"] <= searches or not isinstance(got, str), \
        (f, e.kind, domain)
    return counts["passes"]


def _whole_line_shift(f, c):
    """f - c on a ball holding f's support: compact, so the whole line
    takes it, and flat like f."""
    return lincomb([f, chi_ball(4.0)], [1.0, -c])


@pytest.mark.parametrize("exp", sorted(EXPONENTS))
@pytest.mark.parametrize("name", sorted(FLAT))
def test_flat_solves_take_the_model_and_keep_every_bit(name, exp):
    e = EXPONENTS[exp]
    cases = [(shifted(FLAT[name], c), region) for c in SHIFTS for region in REGIONS]
    if name in COMPACT:
        cases += [(_whole_line_shift(FLAT[name], c), FULL_LINE) for c in SHIFTS]
    for f, domain in cases:
        assert f.flat
        assert _solve(f, e, domain) <= 5, (name, exp, domain)


@st.composite
def _flat_cases(draw):
    """A random piecewise-constant exponent, a random step function shifted
    by c, and a ball, a ring or the whole line."""
    breaks = sorted(set(draw(st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4))))
    values = draw(st.lists(st.floats(1.05, 6.0), min_size=len(breaks) + 1,
                           max_size=len(breaks) + 1))
    e = piecewise_exponent(breaks, values)
    ends = draw(st.lists(st.floats(-3.5, 3.5), min_size=2, max_size=6))
    ends = sorted(set(ends))
    coefs = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(ends) - 1,
                          max_size=len(ends) - 1))
    base = lincomb([chi_interval(a, b) for a, b in zip(ends, ends[1:])], coefs) \
        if len(ends) > 1 else chi_interval(-1.0, 1.0)
    c = draw(st.sampled_from(SHIFTS + (draw(st.floats(-3.0, 3.0)),)))
    kind = draw(st.sampled_from(["ball", "ring", "line"]))
    if kind == "ball":
        return shifted(base, c), e, Ball(draw(st.floats(0.1, 5.0)))
    if kind == "ring":
        return shifted(base, c), e, DyadicRing(draw(st.integers(-2, 3)))
    return _whole_line_shift(base, c), e, FULL_LINE


@settings(max_examples=150, deadline=None)
@given(_flat_cases())
def test_random_flat_solves_match_the_exact_search(case):
    f, e, domain = case
    _solve(f, e, domain)


# a norm near 2e-62 that hypothesis drew: under q = 5 the fit check's
# lam ** -q overflowed at the passes near the root, and each overflow reran
# the exact search (221 passes, 2 searches)
TINY_FLAT = shifted(lincomb([chi_interval(-1.0, 0.0)], [1.9585316867964824e-62]), 0.0)


@pytest.mark.parametrize("e", [piecewise_exponent([0.0], [5.0, 2.0]),
                               constant_exponent(5.0)], ids=["pw(5|2)", "const5"])
def test_a_tiny_norm_is_checked_against_its_model_in_logs(e):
    # one search (checked by _solve), in at most 5 passes
    assert _solve(TINY_FLAT, e, Ball(1.0)) <= 5
    assert luxemburg_norm(TINY_FLAT, e, Ball(1.0)).value == \
        pytest.approx(1.9585316867964824e-62, rel=1e-8)


TWO_TERMS = [(2.0, 2.0), (3.0, 3.0)]


def _two_terms(lam):
    return 2.0 * lam ** -2.0 + 3.0 * lam ** -3.0


# a modular of the model's form, and three that break it: off by a factor
# everywhere, dropping by a tenth below the model's root (1.895...), and
# off only at lam = 1, where no side is read but the pass must fit too
SYNTHETIC = {
    "fits": (_two_terms, False),
    "scaled": (lambda lam: 1.01 * _two_terms(lam), True),
    "drop": (lambda lam: _two_terms(lam) * (1.0 if lam < 1.8 else 0.9), True),
    "off_at_one": (lambda lam: _two_terms(lam) * (2.0 if lam == 1.0 else 1.0), True),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_two_term_modular_off_its_model_falls_back(name, monkeypatch):
    modular_of, breaks_model = SYNTHETIC[name]
    f, e, mod_tol = chi_interval(0.0, 1.0), PW23, 1e-11
    want = norms._search(modular_of, norms._seed_lambda(f, e, FULL_LINE),
                         e.p_minus, mod_tol)[0]
    monkeypatch.setattr(norms, "_model", lambda *args: list(TWO_TERMS))
    passes = []

    def rho(lam):
        passes.append(lam)
        return modular_of(lam)

    assert repr(norms._bisect(rho, f, e, FULL_LINE, mod_tol, None)) == repr(want)
    # the exact search runs every pass (30 here); on its model, 3 or 4 run
    assert len(passes) >= 30 if breaks_model else len(passes) <= 4, passes


def test_model_root_solves_the_sum():
    assert norms._model_root([(9.0, 2.0)]) == pytest.approx(3.0, rel=1e-15)
    lam = norms._model_root(TWO_TERMS)
    assert abs(_two_terms(lam) - 1.0) <= 1e-14
    # terms far apart in size: no overflow, still the root (exp of t near
    # 345 carries about 345 ulp of relative error)
    lam = norms._model_root([(1e300, 2.0), (1e-300, 10.0)])
    assert lam == pytest.approx(1e150, rel=1e-12)


def _nan_flat():
    return Func(lambda x: math.nan, (0.0,), 1.0, flat=True)


def _raising_flat():
    def fn(x):
        raise ValueError("no value here")
    return Func(fn, (0.0,), 1.0, flat=True)


HUGE = lincomb([chi_interval(0.0, 1.0)], [1e200])
TINY = lincomb([chi_interval(0.0, 1.0)], [1e-300])
# (f, exponent, domain, rho(1)) for which there is no model
NO_MODEL = {
    "huge_overflows_a_weight": (HUGE, piecewise_exponent([0.5], [8.0, 12.0]),
                                FULL_LINE, math.inf),
    "huge_overflows_rho1": (HUGE, constant_exponent(12.0), FULL_LINE, math.inf),
    "tiny_underflows_rho1": (TINY, constant_exponent(10.0), FULL_LINE, 0.0),
    "tiny_underflows_a_weight": (TINY, piecewise_exponent([0.5], [10.0, 12.0]),
                                 FULL_LINE, 0.0),
    "sum_overflows": (lincomb([chi_interval(-2.0, -1.0), chi_interval(1.0, 2.0)],
                              [1e154, 1e154]), piecewise_exponent([3.0], [2.0, 3.0]),
                      FULL_LINE, math.inf),
    "no_terms": (chi_interval(0.0, 1.0), PW23, DyadicRing(3), 0.0),
    "nan_piece": (_nan_flat(), PW23, Ball(1.0), math.inf),
    "raising_piece": (_raising_flat(), PW23, Ball(1.0), math.inf),
    "not_flat": (Func(lambda x: x, (), 1.0), PW23, Ball(1.5), 1.0),
    "smooth_exponent": (chi_interval(0.0, 1.0),
                        norms.Exponent("custom-evaluable", {}, lambda x: 2.0 + x * x,
                                       2.0, 6.0), Ball(2.0), 1.0),
}


@pytest.mark.parametrize("name", sorted(NO_MODEL))
def test_a_model_that_cannot_be_built_is_none(name):
    f, e, domain, rho1 = NO_MODEL[name]
    p_const = e.constant_value_on(norms._components(domain))
    assert norms._model(f, e, domain, norms.MODULAR_TOL, p_const, rho1) is None


def test_extreme_scales_keep_their_norms():
    # with no model, the exponent bounds decide the passes, as before
    for e in (piecewise_exponent([0.5], [8.0, 12.0]), constant_exponent(12.0)):
        res = luxemburg_norm(HUGE, e)
        assert abs(res.value - 1e200) <= res.abs_error_bound
    # a known defect: |f|^10 underflows at lambda = 1, so rho(1) = 0 reads
    # as the zero function
    assert luxemburg_norm(TINY, constant_exponent(10.0)).value == 0.0


def test_flat_model_is_the_modular():
    f = shifted(with_sign(chi_ball(2.0)), 0.3)
    model = norms._model(f, PW23, Ball(4.0), norms.MODULAR_TOL, None, 1.0)
    # pw23 takes 2 and 3 on B(4): one term per exponent value
    assert sorted(q for _, q in model) == [2.0, 3.0]
    for lam in (0.5, 1.0, 3.0, 10.0):
        want = norms.modular(lincomb([f], [1.0 / lam]), PW23, Ball(4.0), tol=1e-12)
        got = sum(w * lam ** -q for w, q in model)
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("exp", ["const2", "pw23"])
def test_a_bracket_that_gives_out_restarts_from_the_model_root(exp):
    # p = 2 on B(0.1), so the norm of c chi_[-a, 0] is c sqrt(a), about
    # 9.3e-146: 200 quarterings of lambda from the seed stop short of it
    f = lincomb([chi_interval(-2.4e-276, 0.0)], [6e-8])
    e, domain = EXPONENTS[exp], Ball(0.1)
    retried = []
    _exact(f, e, domain, retried=retried)
    assert retried
    _solve(f, e, domain)
    res = luxemburg_norm(f, e, domain)
    assert res.value == pytest.approx(6e-8 * math.sqrt(2.4e-276), rel=1e-8)
