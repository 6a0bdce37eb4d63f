"""Function and exponent specs: one description, two independent builds.

build_func(spec) makes the varlp object through varlp's public
constructors; pieces(spec) writes the same function as oracle pieces
(see oracle.py) without calling varlp.  The seeded generators below draw
specs only, so a workload's inputs are plain data until they are built.
"""

from __future__ import annotations

import math

# the catalog bank members, written out as specs; catalog_bank() itself
# builds the varlp objects (see catalog())
CATALOG = {
    "chi01": ("chi", 0.0, 1.0),
    "chi_pm1": ("chi", -1.0, 1.0),
    "ring1": ("ring", 1),
    "step_mix": ("lincomb", ((1.0, ("chi", 0.0, 1.0)), (-2.0, ("chi", 1.0, 3.0)))),
    "hat": ("lincomb", ((1.0, ("chi", -1.0, 1.0)), (1.0, ("chi", -0.5, 0.5)))),
    "f0_r1": ("scaled_ball", 1.0),
    "f0_r4": ("scaled_ball", 4.0),
    "sgn_window": ("sgn_window", 2.0),
    "ramp_half": ("ramp", 2.0, 0.5),
    "ramp_quarter": ("ramp", 1.0, 0.25),
    "dyadic_step": ("dyadic_step", 40),
}
PIECEWISE_CONSTANT = ("chi01", "chi_pm1", "ring1", "step_mix", "hat",
                      "sgn_window", "dyadic_step")

EXPONENTS = {
    "const2": ("const", 2.0),
    "const3": ("const", 3.0),
    "const10": ("const", 10.0),
    "pw23": ("pw", (1.0, 2.0), (2.0, 3.0, 2.0)),
    "inv_one_plus_abs": ("smooth", "inv_one_plus_abs", 2.0, 1.0),
    "inv_one_plus_sq": ("smooth", "inv_one_plus_sq", 2.0, 1.0),
}


def catalog():
    """varlp's catalog bank by name; refuses a bank these specs do not describe."""
    from varlp import catalog_bank

    bank = dict(catalog_bank())
    if set(bank) != set(CATALOG):
        raise ValueError(f"catalog bank {sorted(bank)} differs from the specs {sorted(CATALOG)}")
    return bank


def build_exponent(name):
    from varlp import constant_exponent, piecewise_exponent, smooth_exponent

    exp = EXPONENTS[name]
    if exp[0] == "const":
        return constant_exponent(exp[1])
    if exp[0] == "pw":
        return piecewise_exponent(exp[1], exp[2])
    return smooth_exponent(exp[1], {"base": exp[2], "amp": exp[3]})


def build_func(spec, bank=None):
    """The varlp object for a spec; bank maps catalog names to objects."""
    from varlp import funcs

    kind = spec[0]
    if kind == "bank":
        return bank[spec[1]]
    if kind == "chi":
        return funcs.chi_interval(spec[1], spec[2])
    if kind == "lincomb":
        return funcs.lincomb([build_func(s, bank) for _, s in spec[1]],
                             [w for w, _ in spec[1]])
    if kind == "tail":
        # |x|^a outside the closed ball of radius r, zero inside
        outside = funcs.lincomb([funcs.constant(1.0), funcs.chi_ball(spec[2])],
                                [1.0, -1.0])
        return funcs.pointwise_product(funcs.power(spec[1]), outside)
    if kind == "power":
        return funcs.power(spec[1])
    if kind == "constant":
        return funcs.constant(spec[1])
    if kind == "sign":
        return funcs.sign_func()
    raise ValueError(f"unknown spec kind {kind!r}")


def _const_terms(spec):
    """[(a, b, c), ...] of a piecewise-constant spec (pieces may overlap)."""
    kind = spec[0]
    if kind == "bank":
        return _const_terms(CATALOG[spec[1]])
    if kind == "chi":
        return [(spec[1], spec[2], 1.0)]
    if kind == "ring":
        inner, outer = 2.0 ** (spec[1] - 1), 2.0 ** spec[1]
        return [(-outer, -inner, 1.0), (inner, outer, 1.0)]
    if kind == "lincomb":
        return [(a, b, w * c) for w, s in spec[1] for a, b, c in _const_terms(s)]
    if kind == "sgn_window":
        return [(-spec[1], 0.0, -1.0), (0.0, spec[1], 1.0)]
    if kind == "dyadic_step":
        out = []
        for j in range(spec[1] + 1):
            out += [(2.0 ** j, 2.0 ** j + 1.0, 2.0 ** j),
                    (-(2.0 ** j) - 1.0, -(2.0 ** j), -(2.0 ** j))]
        return out
    if kind == "sign":
        return [(-math.inf, 0.0, -1.0), (0.0, math.inf, 1.0)]
    return None


def midpoint(lo, hi):
    if math.isinf(lo):
        return hi - 1.0
    if math.isinf(hi):
        return lo + 1.0
    return 0.5 * (lo + hi)


def const_pieces(terms):
    """Sum of weighted piecewise-constant functions as disjoint pieces.

    terms: [(weight, [(a, b, c), ...]), ...]; zero pieces are dropped.
    """
    cuts = sorted({t for _, ps in terms for a, b, _ in ps for t in (a, b)})
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = midpoint(lo, hi)
        total = sum(w * c for w, ps in terms for a, b, c in ps if a < mid < b)
        if total != 0.0:
            out.append((lo, hi, total, 0.0))
    return out


def pieces(spec):
    """Oracle pieces (a, b, c, s) of a spec."""
    terms = _const_terms(spec)
    if terms is not None:
        return const_pieces([(1.0, terms)])
    kind = spec[0]
    if kind == "bank":
        return pieces(CATALOG[spec[1]])
    if kind == "scaled_ball":
        r = spec[1]
        return [(-r, 0.0, 1.0 / (2.0 * r), 1.0), (0.0, r, 1.0 / (2.0 * r), 1.0)]
    if kind == "ramp":
        r, q = spec[1], spec[2]
        c = (2.0 * r) ** -q
        return [(-r, 0.0, c, q), (0.0, r, c, q)]
    if kind == "tail":
        a, r = spec[1], spec[2]
        return [(-math.inf, -r, 1.0, a), (r, math.inf, 1.0, a)]
    raise ValueError(f"no pieces for spec kind {kind!r}")


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def random_lincomb(rng, terms=3):
    """A piecewise-constant lincomb of intervals with grid endpoints.

    The number of intervals is fixed so that every seed's ops cost about
    the same; endpoints sit on a 1/8 grid so that pieces never collapse
    below the resolution the point queries keep away from.
    """
    out = []
    for _ in range(terms):
        a = rng.randint(-32, 24) / 8.0
        b = a + rng.randint(2, 24) / 8.0
        w = round(rng.uniform(0.3, 3.0), 3) * rng.choice((-1.0, 1.0))
        out.append((w, ("chi", a, b)))
    return ("lincomb", tuple(out))

