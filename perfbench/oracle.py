"""Independent mpmath oracles for the benchmark's correctness checks.

A function is described here by its own pieces, written from the spec that
built the varlp object, never by evaluating varlp: a list of
(a, b, c, s) meaning c * |x|**s on the open interval (a, b), with pieces
split at 0 whenever s != 0 and a or b allowed to be infinite.  Exponents
are ("const", p), ("pw", breaks, values) or ("smooth", formula, base, amp).

Luxemburg norms with a constant or piecewise-constant exponent have a
closed-form modular, sum over pieces of |c|^p * lambda^(-p) * int |x|^(s p),
whose root in lambda is found with mpmath.findroot.  With a smooth exponent
the modular is integrated by mpmath.quad at the returned lambda and the
unit-modular identity is checked instead.
"""

from __future__ import annotations

import math

import mpmath

from specs import midpoint as _midpoint

mpmath.mp.dps = 30

NORM_REL_TOL = 1e-7      # acceptance tolerance for norms
POINT_REL_TOL = 1e-7     # relative to the absolute mass a point value sums
POINT_ABS_TOL = 1e-8     # quadrature tolerance floor of a point query


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------

def split_at(pieces, cuts):
    """Split every piece at the given points."""
    out = []
    for a, b, c, s in pieces:
        edges = [a, *sorted(t for t in cuts if a < t < b), b]
        out.extend((lo, hi, c, s) for lo, hi in zip(edges[:-1], edges[1:]))
    return out


def clip(pieces, intervals):
    """Restrict pieces to a union of disjoint intervals."""
    out = []
    for a, b, c, s in pieces:
        for lo, hi in intervals:
            u, v = max(a, lo), min(b, hi)
            if u < v:
                out.append((u, v, c, s))
    return out


def value_at(pieces, x):
    return sum(c * abs(x) ** s for a, b, c, s in pieces if a < x < b)


def breakpoints(pieces):
    return sorted({t for a, b, _, _ in pieces for t in (a, b) if math.isfinite(t)})


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _power_integral(a, b, q):
    """int_a^b |x|^q dx over an interval that does not straddle 0."""
    if b <= 0:
        a, b = -b, -a
    a, b, q = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
    if a == 0 and q <= -1:
        return mpmath.inf
    if mpmath.isinf(b):
        if q >= -1:
            return mpmath.inf
        return -a ** (q + 1) / (q + 1)
    if q == -1:
        return mpmath.log(b / a)
    return (b ** (q + 1) - a ** (q + 1)) / (q + 1)


def _exponent_cuts(exp):
    if exp[0] == "pw":
        return list(exp[1])
    if exp[0] == "smooth":
        return [0.0]
    return []


def _exponent_on(exp, lo, hi):
    """The constant exponent value on (lo, hi), or None when it varies."""
    if exp[0] == "const":
        return exp[1]
    if exp[0] == "pw":
        breaks, values = exp[1], exp[2]
        mid = _midpoint(lo, hi)
        return values[sum(1 for t in breaks if t <= mid)]
    return None


def _smooth_p(exp, x):
    _, formula, base, amp = exp
    if formula == "inv_one_plus_abs":
        return base + amp / (1 + abs(x))
    if formula == "inv_one_plus_sq":
        return base + amp / (1 + x * x)
    raise ValueError(f"no oracle for smooth exponent {formula!r}")


def modular(pieces, exp, lam):
    """int |f / lam|^p(x) dx over the pieces, in mpmath."""
    lam = mpmath.mpf(lam)
    total = mpmath.mpf(0)
    for a, b, c, s in split_at(pieces, _exponent_cuts(exp)):
        p = _exponent_on(exp, a, b)
        if p is not None:
            total += (abs(mpmath.mpf(c)) / lam) ** p * _power_integral(a, b, s * p)
            continue
        mc = abs(mpmath.mpf(c))
        total += mpmath.quad(
            lambda x: (mc * abs(x) ** s / lam) ** _smooth_p(exp, x), [a, b])
    return total


def closed_form(exp) -> bool:
    return exp[0] in ("const", "pw")


def norm_root(pieces, exp, guess):
    """The lambda with modular(f / lambda) = 1, for closed-form exponents."""
    def g(t):
        return mpmath.log(modular(pieces, exp, mpmath.exp(t)))

    t0 = mpmath.log(guess) if guess > 0 and math.isfinite(guess) else mpmath.mpf(0)
    lo, hi = t0 - 1, t0 + 1
    while g(lo) < 0:
        lo -= 2 * (hi - lo)
    while g(hi) > 0:
        hi += 2 * (hi - lo)
    return mpmath.exp(mpmath.findroot(g, (lo, hi), solver="anderson"))


def check_norm(pieces, exp, got):
    """None when got is the norm within NORM_REL_TOL, else a reason."""
    if not (got > 0 and math.isfinite(got)):
        return f"norm {got!r} is not positive and finite"
    if closed_form(exp):
        want = norm_root(pieces, exp, got)
        err = abs(got - want) / want
        return None if err <= NORM_REL_TOL else \
            f"norm {got!r} vs mpmath root {mpmath.nstr(want, 17)} (rel {float(err):.2e})"
    # the modular's log-slope in lambda is at least p_minus in size, so a
    # modular off 1 by delta puts lambda off the root by at most delta / p_minus
    rho = modular(pieces, exp, got)
    err = abs(rho - 1) / exponent_bounds(exp)[0]
    return None if err <= NORM_REL_TOL else \
        f"modular at returned norm {got!r} is {mpmath.nstr(rho, 12)} (rel {float(err):.2e})"


# varlp takes the bounds of a smooth exponent over its working box
# |x| <= 2^20, where base + amp / (1 + |x|) has not yet reached base
WORKING_RADIUS = 2.0 ** 20


def exponent_bounds(exp):
    """(p_minus, p_plus) as varlp defines them."""
    if exp[0] == "const":
        return exp[1], exp[1]
    if exp[0] == "pw":
        return min(exp[2]), max(exp[2])
    _, formula, base, amp = exp
    far = WORKING_RADIUS if formula == "inv_one_plus_abs" else WORKING_RADIUS ** 2
    return base + amp / (1.0 + far), base + amp


def conjugate_bracket_constant(exp):
    """1 + 1/p_minus + 1/p_plus, the duality bracket's upper factor."""
    lo, hi = exponent_bounds(exp)
    return 1.0 + 1.0 / lo + 1.0 / hi


# ---------------------------------------------------------------------------
# point values of piecewise-constant functions
# ---------------------------------------------------------------------------

def _mass(pieces, lo, hi, weight=None):
    """(int over (lo, hi) of f, same of |f|); weight 1/|y| when asked."""
    val = mpmath.mpf(0)
    mass = mpmath.mpf(0)
    for a, b, c, _ in pieces:
        u, v = max(a, lo), min(b, hi)
        if u >= v:
            continue
        piece = _power_integral(u, v, -1) if weight == "inv" else mpmath.mpf(v) - u
        val += c * piece
        mass += abs(c) * piece
    return val, mass


def _ball(pieces, t):
    return _mass(pieces, -t, t)


def _outside(pieces, t):
    v1, m1 = _mass(pieces, -math.inf, -t, "inv")
    v2, m2 = _mass(pieces, t, math.inf, "inv")
    return v1 + v2, m1 + m2


def product(f_pieces, b_pieces):
    cuts = sorted(set(breakpoints(f_pieces)) | set(breakpoints(b_pieces)))
    out = []
    for a, b, c, _ in split_at(f_pieces, cuts):
        bc = value_at(b_pieces, _midpoint(a, b))
        if bc != 0.0:
            out.append((a, b, c * bc, 0.0))
    return out


def point_value(kind, f_pieces, x, b_pieces=None, radius=None, p=None, grid=None):
    """(exact value, absolute mass scale) of one bisection-free query."""
    t = abs(x) if x is not None else None
    if kind == "hardy":
        v, m = _ball(f_pieces, t)
        return v / t, m / t
    if kind == "dual_hardy":
        return _outside(f_pieces, t)
    if kind in ("commutator_hardy", "commutator_dual_hardy"):
        bx = value_at(b_pieces, x)
        bf = product(f_pieces, b_pieces)
        op = _ball if kind == "commutator_hardy" else _outside
        vf, mf = op(f_pieces, t)
        vbf, mbf = op(bf, t)
        v, m = bx * vf - vbf, abs(bx) * mf + mbf
        return (v / t, m / t) if kind == "commutator_hardy" else (v, m)
    if kind == "maximal":
        abs_pieces = [(a, b, abs(c), s) for a, b, c, s in f_pieces]
        best = mpmath.mpf(abs(value_at(f_pieces, x)))
        for s in breakpoints(f_pieces):
            r = abs(x - s)
            if r > 0:
                best = max(best, _mass(abs_pieces, x - r, x + r)[1] / (2 * r))
        return best, best
    if kind == "mean_on_ball":
        v, m = _ball(f_pieces, radius)
        return v / (2 * radius), m / (2 * radius)
    if kind == "cbmo_classical_norm":
        best = mpmath.mpf(0)
        for r in grid:
            mean = _ball(f_pieces, r)[0] / (2 * r)
            inner = clip(f_pieces, [(-r, r)])
            total = mpmath.mpf(0)
            covered = mpmath.mpf(0)
            for a, b, c, _ in inner:
                total += abs(c - mean) ** p * (mpmath.mpf(b) - a)
                covered += mpmath.mpf(b) - a
            total += abs(mean) ** p * (2 * r - covered)
            best = max(best, (total / (2 * r)) ** (mpmath.mpf(1) / p))
        return best, best
    raise ValueError(f"no oracle for {kind!r}")


def check_point(got, want, scale):
    """None when |got - want| is within tolerance of the mass it sums."""
    err = abs(mpmath.mpf(got) - want)
    limit = POINT_REL_TOL * max(abs(want), scale) + POINT_ABS_TOL
    return None if err <= limit else \
        f"value {got!r} vs exact {mpmath.nstr(want, 17)} (abs err {float(err):.2e})"
