"""The panel rule: within one integration call, the GK15 panel on [-b, -a]
of an exactly even or odd integrand is read from the panel on [a, b]
computed before it, with the value negated for an odd one.  Every result
matches, bit for bit, that of a copy with both parity flags cleared, and no
call evaluates the integrand at both x and -x."""

import math
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varlp import (Ball, Func, OperatorImage, QuadratureNonConvergence, abs_power,
                   catalog_bank, chi_ball, chi_ring, dyadic_step, integrate_ball,
                   integrate_interval, lincomb, lr_aggregate, power, scaled_ball,
                   sign_func, with_sign)
from varlp import quadrature
from varlp.funcs import pointwise_product
from varlp.operators import _ShellTable
from varlp.quadrature import QuadResult, integrate_shell
from varlp.verify import equivalence_bank, symbol_bank


def _smooth(fn, even):
    """A smooth, exactly even or odd integrand that needs refinement near 0."""
    return Func(fn, (), math.inf, even=even, odd=not even)


def _members():
    out = {name: f for name, f in catalog_bank() + equivalence_bank() + symbol_bank()
           if f.even or f.odd}
    out.update({
        "ring1": chi_ring(1),
        "power(-0.5)": power(-0.5),
        "power(0.5)": power(0.5),
        "lincomb": lincomb([chi_ball(1.0), scaled_ball(2.0)], [0.7, -1.3]),
        "abs_power": abs_power(power(-0.25), 1.5),
        "dyadic_step(3)": dyadic_step(3),
        "with_sign(scaled_ball(2))": with_sign(scaled_ball(2.0)),
        "with_sign(power(-0.5))": with_sign(power(-0.5)),
        "product(sign,chi_ball(1))": pointwise_product(sign_func(), chi_ball(1.0)),
        "lr_aggregate(sign,chi_ball(1))": lr_aggregate([sign_func(), chi_ball(1.0)],
                                                        2.0),
        "bump": _smooth(lambda x: 1.0 / (1e-4 + x * x), even=True),
        "odd_bump": _smooth(lambda x: x / (1e-4 + x * x), even=False),
        "cubic": _smooth(lambda x: x * x * x, even=False),
        # a majorant centred at 0 keeps shells that hold 0 off the exact zero
        "cubic_with_majorant": Func(lambda x: x * x * x, (), math.inf, odd=True,
                                    local_majorant=(1.0, -1.0, 0.0)),
    })
    for name in ("sign", "dyadic_step(3)", "product(sign,chi_ball(1))", "ring1"):
        out[f"dual_kernel({name})"] = _ShellTable(out[name])._dual_kernel()
    for kind in ("commutator_hardy", "commutator_dual_hardy"):
        out[f"{kind}(sign,chi_ball(1))"] = OperatorImage(kind, chi_ball(1.0),
                                                         b=sign_func())
        out[f"{kind}(abs,chi_ball(2))"] = OperatorImage(kind, chi_ball(2.0),
                                                        b=power(1.0))
    return out


MEMBERS = _members()
TOLS = [1e-4, 1e-8, 1e-10, 1e-13]


def _copy(g, even, odd, seen=None):
    """g with the given parity flags, recording every point it is evaluated
    at in ``seen`` when one is given."""
    fn = g.evaluate
    if seen is not None:
        def fn(x, inner=g.evaluate):
            seen.append(x)
            return inner(x)
    return Func(fn, g.singular_points, g.support_radius, even=even, odd=odd,
                local_majorant=g.local_majorant)


def _with_points(g, pts):
    """g with the extra jump points pts, evaluated by g's own closure."""
    return Func(g.evaluate, (*pts, *g.singular_points), g.support_radius,
                even=g.even, odd=g.odd, local_majorant=g.local_majorant)


def _outcome(call):
    """A result as its packed bits, an error as its type, text and best result."""
    try:
        res = call()
    except QuadratureNonConvergence as exc:
        return type(exc), str(exc), repr(exc.best)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return struct.pack("<ddq", *res)


def _check(g, integrate, zero=False, nodes=True):
    """integrate(copy) on g's flags matches the unflagged copy bit for bit,
    or reads the exact zero where ``zero``.  No panel is computed together
    with its mirror (centre -c, same half-width) and, where ``nodes``, no
    x is evaluated together with -x; returns the evaluated points."""
    seen, panels = [], []
    flagged = _copy(g, g.even, g.odd, seen)

    def counted(fn, a, b):
        if fn is flagged.evaluate:  # not an image's own table shells
            panels.append((0.5 * (a + b), 0.5 * (b - a)))
        return gk15(fn, a, b)

    gk15 = quadrature._gk15
    with mock.patch.object(quadrature, "_gk15", counted):
        got = _outcome(lambda: integrate(flagged))
    if zero:
        assert got == struct.pack("<ddq", *QuadResult(0.0, 0.0, 0)) and not seen
    else:
        assert got == _outcome(lambda: integrate(_copy(g, False, False)))
    done = set(panels)
    assert not [(c, h) for c, h in done if c != 0.0 and (-c, h) in done]
    if nodes:
        points = set(seen)
        assert not [x for x in points if x != 0.0 and -x in points]
    return seen


def test_members_cover_both_parities():
    assert all(f.even != f.odd for f in MEMBERS.values())
    # mirror-closed jumps, so balls and shells are checked node by node
    assert all(set(f.singular_points) == {-s for s in f.singular_points}
               for f in MEMBERS.values())
    assert sum(f.odd for f in MEMBERS.values()) >= 12
    assert sum(f.even for f in MEMBERS.values()) >= 12


ENDS = st.floats(min_value=1e-3, max_value=50.0)
BREAKS = st.lists(st.floats(min_value=-60.0, max_value=60.0), max_size=4)


@st.composite
def _intervals(draw):
    """A symmetric, straddling or one-sided interval, its breakpoints, and
    whether both are mirror-closed.  The origin is a breakpoint of every
    interval that straddles it, as in integrate_ball, since a panel centred
    on 0 holds +-x itself.  Elsewhere a node of one panel can equal minus a
    node of a panel that mirrors none (hypothesis finds such breakpoints),
    so only mirror-closed draws are checked node by node."""
    shape = draw(st.sampled_from(["symmetric", "straddling", "right", "left"]))
    b = draw(ENDS)
    if shape == "symmetric":
        a = -b
    elif shape == "straddling":
        a = -draw(ENDS)
    else:
        a = draw(st.floats(min_value=0.0, max_value=b))
        if shape == "left":
            a, b = -b, -a
    pts = draw(BREAKS)
    mirrored = draw(st.booleans())
    if mirrored:
        pts += [-s for s in pts]  # mirrored breakpoints give mirrored panels
    if a < 0.0 < b:
        pts.append(0.0)
    return a, b, pts, mirrored and a == -b


@pytest.mark.parametrize("name", sorted(MEMBERS))
@settings(max_examples=25, deadline=None)
@given(_intervals(), st.sampled_from(TOLS))
@example((-1.0, 1.0, [0.0], True), 1e-10)
@example((-3.0, 1.0, [0.0, 0.5, -0.5], False), 1e-13)
@example((-1.0, 1.0, [0.9914553711208126, 0.0], False), 1e-4)
def test_integrate_interval_matches_the_unflagged_copy(name, interval, tol):
    g = MEMBERS[name]
    a, b, pts, mirrored = interval
    _check(g, lambda h: integrate_interval(_with_points(h, pts), a, b, tol=tol),
           nodes=mirrored)


@pytest.mark.parametrize("name", sorted(MEMBERS))
@settings(max_examples=15, deadline=None)
@given(ENDS, st.sampled_from(TOLS))
@example(1.0, 1e-10)
def test_integrate_ball_matches_the_unflagged_copy(name, r, tol):
    _check(MEMBERS[name], lambda h: integrate_ball(h, Ball(r), tol=tol))


@pytest.mark.parametrize("name", sorted(MEMBERS))
@settings(max_examples=25, deadline=None)
@given(ENDS, st.floats(min_value=0.0, max_value=1.0), st.sampled_from(TOLS))
@example(1.0, 0.0, 1e-10)
@example(2.0, 0.5, 1e-13)
def test_integrate_shell_matches_the_unflagged_copy(name, outer, share, tol):
    g = MEMBERS[name]
    inner = share * outer
    local = g.local_majorant
    # an odd g's finite shell is the exact zero unless it holds the centre
    zero = g.odd and (local is None or not inner <= abs(local[2]) <= outer)
    _check(g, lambda h: integrate_shell(h, inner, outer, tol=tol), zero=zero)


def test_mirrored_panels_are_read_not_evaluated():
    # a ball's left panels come first and are split first, so the flagged
    # copy evaluates the unflagged copy's left nodes alone, in its order
    for name in ("bump", "odd_bump", "commutator_hardy(sign,chi_ball(1))"):
        g = MEMBERS[name]
        flagged = _check(g, lambda h: integrate_ball(h, Ball(2.0), tol=1e-12))
        plain = []
        integrate_ball(_copy(g, False, False, plain), Ball(2.0), tol=1e-12)
        assert flagged == [x for x in plain if x < 0.0], name
        assert len(flagged) < 0.6 * len(plain), name


# integrands over shells with no jump inside a side whose one-panel test
# fails, so the two runs refine: the right side fails alone for "steep_right"
SHELL_FALLBACKS = {
    "even": (Func(lambda x: math.cos(40.0 * x), (), math.inf, even=True), 0.5),
    # a majorant centred at 0 keeps the shell that holds 0 off the exact zero
    "odd": (Func(lambda x: math.sin(40.0 * x), (), math.inf, odd=True,
                 local_majorant=(1.0, 0.0, 0.0)), 0.0),
    "no_parity": (Func(lambda x: math.exp(3.0 * x) * math.cos(20.0 * x), (),
                       math.inf), 0.5),
    "steep_right": (Func(lambda x: 1.0 if x < 0.0 else math.cos(40.0 * x), (),
                         math.inf), 0.5),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("name", sorted(SHELL_FALLBACKS))
def test_shell_runs_start_from_the_panels_of_the_one_panel_test(name, tol):
    g, inner = SHELL_FALLBACKS[name]
    outer = inner + 2.0
    got = integrate_shell(g, inner, outer, tol=tol)
    # the two runs alone: their first panels are the one-panel test's
    panel = quadrature._panel_rule(quadrature._parity(g))
    want = (quadrature._adapt(g.evaluate, panel, -outer, -inner, [], tol / 2)
            + quadrature._adapt(g.evaluate, panel, inner, outer, [], tol / 2))
    assert got.subdivisions > 2  # the one-panel test failed
    assert struct.pack("<ddq", *got) == struct.pack("<ddq", *want)
