"""The evaluable protocol: every catalog function, derived function and
operator image carries the same metadata, and its |f| bounds and the
Luxemburg seed they feed keep every bit."""

import math

import pytest

from varlp import (FULL_LINE, Ball, DyadicRing, OperatorImage, abs_power,
                   catalog_bank, chi_ball, chi_interval, chi_ring, constant,
                   constant_exponent, dyadic_step, lincomb, lr_aggregate,
                   piecewise_exponent, power, scaled_ball, sign_func, with_sign,
                   zero)
from varlp.funcs import pointwise_product, shifted
from varlp.norms import _seed_lambda, dual_extremizer
from varlp.verify import (commutator_bank, equivalence_bank, symbol_bank,
                          vv_sequence_bank)

PROTOCOL = ("evaluate", "singular_points", "support_radius", "even", "odd",
            "flat", "power_tail", "local_majorant", "kind", "abs_bound_on")

# lo = 0, lo < 0, an inner shell, hi = inf, and lo beyond every finite
# support in the table (dyadic_step reaches 2^40 + 1)
SHELLS = ((0.0, 1.0), (-2.0, 1.5), (0.5, 3.0), (3.0, math.inf), (1e13, 2e13))

EVALUABLES = {
    "zero": zero,
    "constant": lambda: constant(-2.5),
    "chi_interval": lambda: chi_interval(-0.5, 2.0),
    "chi_interval_left": lambda: chi_interval(-3.0, -2.5),  # met by -shell only
    "chi_ring": lambda: chi_ring(2),
    "power_pos": lambda: power(0.5),
    "power_neg": lambda: power(-0.5),
    "sign": sign_func,
    "dyadic_step": dyadic_step,
    "dyadic_step_3": lambda: dyadic_step(3),
    "scaled_ball": lambda: scaled_ball(2.0),
    "lincomb": lambda: lincomb([chi_interval(0.0, 1.0), zero(), power(-0.5),
                                scaled_ball(4.0), chi_ring(1)],
                               [1.5, 3.0, -2.0, 0.0, 0.1]),
    "with_sign": lambda: with_sign(scaled_ball(2.0)),
    "abs_power": lambda: abs_power(lincomb([chi_ball(1.0), power(0.5)],
                                           [-3.0, 0.7]), 0.5),
    "abs_power_neg": lambda: abs_power(power(-1.0), 2.0),
    "product": lambda: pointwise_product(sign_func(), chi_ball(1.0)),
    "product_powers": lambda: pointwise_product(power(0.5), power(-1.0)),
    "shifted": lambda: shifted(chi_interval(0.0, 1.0), 0.3),
    "shifted_zero": lambda: shifted(dyadic_step(3), 0.0),
    "lr_aggregate": lambda: lr_aggregate([chi_ball(1.0), scaled_ball(2.0),
                                          power(0.5)], 2.0),
    "dual_extremizer": lambda: dual_extremizer(chi_interval(0.0, 1.0),
                                               constant_exponent(2.0), 1.0),
    "hardy": lambda: OperatorImage("hardy", chi_ball(1.0)),
    "dual_hardy": lambda: OperatorImage("dual_hardy", scaled_ball(2.0)),
    "commutator_hardy": lambda: OperatorImage("commutator_hardy", chi_ball(1.0),
                                              b=sign_func()),
    "commutator_dual_hardy": lambda: OperatorImage(
        "commutator_dual_hardy", scaled_ball(2.0), b=power(0.5)),
    "hardy_scaled_ball": lambda: OperatorImage("hardy", scaled_ball(1.0)),
    "dual_hardy_chi_ring": lambda: OperatorImage("dual_hardy", chi_ring(1)),
}

# reprs recorded before catalog and derived functions became one class and
# each constructor took over its own bound
PINNED_BOUNDS = {
    "zero": "(0.0, 0.0, 0.0, 0.0, 0.0)",
    "constant": "(2.5, 2.5, 2.5, 2.5, 2.5)",
    "chi_interval": "(1.0, 1.0, 1.0, 0.0, 0.0)",
    "chi_interval_left": "(0.0, 0.0, 1.0, 1.0, 0.0)",
    "chi_ring": "(0.0, 0.0, 1.0, 1.0, 0.0)",
    "power_pos": "(1.0, 1.224744871391589, 1.7320508075688772, inf, 4472135.954999579)",
    "power_neg": "(inf, inf, 1.4142135623730951, 0.5773502691896257, 3.162277660168379e-07)",
    "sign": "(1.0, 1.0, 1.0, 1.0, 1.0)",
    "dyadic_step": "(0.0, 1.0, 2.0, 1099511627776.0, 0.0)",
    "dyadic_step_3": "(0.0, 1.0, 2.0, 8.0, 0.0)",
    "scaled_ball": "(0.25, 0.375, 0.5, 0.0, 0.0)",
    "lincomb": "(inf, inf, 4.4284271247461895, 1.1547005383792515, 6.324555320336758e-07)",
    "with_sign": "(0.25, 0.375, 0.5, 0.0, 0.0)",
    "abs_power": "(1.9235384061671346, 1.9640064689236927, 2.0524218780012586, inf, 1769.3205386531026)",
    "abs_power_neg": "(inf, inf, 4.0, 0.1111111111111111, 1e-26)",
    "product": "(1.0, 1.0, 1.0, 0.0, 0.0)",
    "product_powers": "(inf, inf, 3.4641016151377544, inf, 4.472135954999579e-07)",
    "shifted": "(1.3, 1.3, 1.3, 0.3, 0.3)",
    "shifted_zero": "(0.0, 1.0, 2.0, 8.0, 0.0)",
    "lr_aggregate": "(1.4361406616345072, 1.625, 2.0615528128088303, inf, 4472135.954999579)",
    "dual_extremizer": "(inf, inf, inf, inf, inf)",
    "hardy": "(inf, inf, 4.0, 0.6666666666666666, 2e-13)",
    "dual_hardy": "(inf, inf, 1.3862943611198906, 0.0, 0.0)",
    "commutator_hardy": "(inf, inf, 8.0, 1.3333333333333333, 4e-13)",
    # 0.0 beyond the input's support (nan, from inf * 0, before the bound was fixed)
    "commutator_dual_hardy": "(inf, inf, 4.361648554642982, 0.0, 0.0)",
    # recorded while operators still took a dimension, with the same bits
    "hardy_scaled_ball": "(inf, inf, 2.0, 0.3333333333333333, 1e-13)",
    "dual_hardy_chi_ring": "(inf, inf, 2.772588722239781, 0.0, 0.0)",
}


@pytest.mark.parametrize("name", sorted(EVALUABLES))
def test_evaluable_carries_the_protocol(name):
    f = EVALUABLES[name]()
    for attr in PROTOCOL:
        assert hasattr(f, attr), (name, attr)
    assert isinstance(f.singular_points, tuple)


def _bank_evaluables():
    """The bank members, derived functions of them, and the commutator
    images of commutator_bank x symbol_bank."""
    out = {}
    for name, f in catalog_bank() + equivalence_bank() + symbol_bank():
        out[name] = f
    for name, _, f in commutator_bank():
        out[name] = f
    for _, _, fs in vv_sequence_bank():
        out.update((repr(f), f) for f in fs)
    names = sorted(out)
    for name, nxt in zip(names, names[1:] + names[:1]):
        f, g = out[name], out[nxt]
        out[f"lincomb({name},{nxt})"] = lincomb([f, g], [0.7, -1.3])
        out[f"product({name},{nxt})"] = pointwise_product(f, g)
        out[f"shifted({name})"] = shifted(f, 0.3)
    for name, _, f in commutator_bank():
        for b_name, b in symbol_bank():
            for kind in ("commutator_hardy", "commutator_dual_hardy"):
                out[f"{kind}({b_name},{name})"] = OperatorImage(kind, f, b=b)
    return {**{name: make() for name, make in EVALUABLES.items()}, **out}


@pytest.mark.parametrize("name, f", sorted(_bank_evaluables().items()))
def test_singular_points_are_sorted_distinct_floats(name, f):
    # integrate_shell bisects them to decide whether a shell holds a jump
    pts = f.singular_points
    assert type(pts) is tuple
    assert all(type(s) is float and not math.isnan(s) for s in pts)
    assert all(a < b for a, b in zip(pts, pts[1:]))  # -0.0 and 0.0 are not distinct


@pytest.mark.parametrize("name", sorted(EVALUABLES))
def test_abs_bound_on_is_bit_identical_to_pinned(name):
    f = EVALUABLES[name]()
    got = tuple(f.abs_bound_on(lo, hi) for lo, hi in SHELLS)
    assert repr(got) == PINNED_BOUNDS[name]


SEED_EXPONENTS = (constant_exponent(2.0),
                  piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0]))
SEED_DOMAINS = (Ball(2.0), DyadicRing(1), FULL_LINE)
SEED_EXTRAS = {
    "power_neg": EVALUABLES["power_neg"],
    "constant": EVALUABLES["constant"],
    "hardy": EVALUABLES["hardy"],
    "shifted": EVALUABLES["shifted"],
}
PINNED_SEEDS = {
    "chi01": "(2.0, 1.4142135623730951, 1.4142135623730951, 1.5874010519681994, 1.2599210498948732, 1.2599210498948732)",
    "chi_pm1": "(2.0, 1.4142135623730951, 1.4142135623730951, 1.5874010519681994, 1.2599210498948732, 1.2599210498948732)",
    "ring1": "(2.0, 1.4142135623730951, 2.0, 1.5874010519681994, 1.2599210498948732, 1.5874010519681994)",
    "step_mix": "(6.0, 4.242640687119286, 7.348469228349534, 4.762203155904598, 3.7797631496846193, 5.451361778496419)",
    "hat": "(4.0, 2.8284271247461903, 2.8284271247461903, 3.1748021039363987, 2.5198420997897464, 2.5198420997897464)",
    "f0_r1": "(1.0, 0.7071067811865476, 0.7071067811865476, 0.7937005259840997, 0.6299605249474366, 0.6299605249474366)",
    "f0_r4": "(0.5, 0.3535533905932738, 1.4142135623730951, 0.39685026299204984, 0.3149802624737183, 1.0)",
    "sgn_window": "(2.0, 1.4142135623730951, 2.0, 1.5874010519681994, 1.2599210498948732, 1.5874010519681994)",
    "ramp_half": "(1.4142135623730951, 1.0000000000000002, 1.4142135623730951, 1.122462048309373, 0.8908987181403394, 1.122462048309373)",
    "ramp_quarter": "(1.681792830507429, 1.189207115002721, 1.189207115002721, 1.3348398541700341, 1.0594630943592953, 1.0594630943592953)",
    "dyadic_step": "(2.0, 1.4142135623730951, 1.6304772281673393e+18, 1.5874010519681994, 1.2599210498948732, 1.429803757226736e+16)",
    "power_neg": "(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)",
    "constant": "(5.0, 3.5355339059327378, 3620.3867196751235, 3.9685026299204984, 3.149802624737183, 319.99999999999994)",
    "hardy": "(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)",
    "shifted": "(2.6, 1.8384776310850237, 1882.6010942310643, 2.0636213675586594, 1.6378973648633353, 166.39999999999998)",
}


@pytest.mark.parametrize("name", sorted(PINNED_SEEDS))
def test_seed_lambda_is_bit_identical_to_pinned(name):
    bank = dict(catalog_bank())
    f = bank[name] if name in bank else SEED_EXTRAS[name]()
    got = tuple(_seed_lambda(f, e, dom) for e in SEED_EXPONENTS
                for dom in SEED_DOMAINS)
    assert repr(got) == PINNED_SEEDS[name]
