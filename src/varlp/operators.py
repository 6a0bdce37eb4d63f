"""Pointwise Hardy-type averaging operators, their commutators with a
symbol, and the centered maximal function.

The averaging operator integrates f over the ball |y| <= |x| and divides
by |x|; its dual integrates f(y)/|y| over the complement.  Commutators
with a symbol b are evaluated through the algebraic split

    [b, H]f(x)  = b(x) Hf(x)  - H(b f)(x)
    [b, H*]f(x) = b(x) H*f(x) - H*(b f)(x)

which lets one cumulative table of shell integrals (between consecutive
jump radii of the integrand) serve every evaluation point: a point query
costs one partial panel instead of a full adaptive pass.  Operator outputs
are exposed as lazy evaluables with jump metadata and certified power-law
tails, so the norm layer can integrate them like any catalog function.

The four kinds are two facts, decoded once per image: ball tables
(divided by |x|) or tail tables, and a symbol or none.  Everything of a
point query but the symbol's value b(x) depends on t = |x| only.  An
image with a parity flag never has -x evaluated where x was: quadrature reads the mirrored
panels of it, and of the even modular it enters under an exponent
constant on the domain or exactly even.  An image with no symbol or an
even one is even.
Each table shell lies between consecutive jump radii, so
``integrate_shell`` takes it with one GK15 panel per side.  An odd symbol
on an even input (or an even one on an odd input) makes b f odd, and its
table free: each shell of b f and of its dual kernel is the
exact 0, with no panel.  An odd symbol on an even input also makes the
image odd, b(x) times a function of |x|, and it reads no table of b f.
An odd input reads the exact zero from its own tables, so an odd symbol
on an odd input makes the image even: -T(b f)(|x|), up to a zero's sign.
The shell tables are the only state, built lazily on the image instance,
never at module level; they die with the image.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .funcs import Func, combine_tails, pointwise_product
from .quadrature import integrate_interval, integrate_shell


@dataclass(frozen=True)
class OperatorSample:
    x: float
    value: float
    abs_error_bound: float


class _ShellTable:
    """Cumulative integrals of g over the shells between its jump radii.

    ball(t):  integral of g over |y| <= t
    tail(t):  integral of g(y)/|y| over t < |y| <= top radius

    The top radius is the support radius for compactly supported g; for the
    tail of a power-decaying g the table is extended until the analytic
    remainder falls below tolerance, and that remainder is reported as part
    of the error.
    """

    def __init__(self, g, tol: float = 1e-10):
        self.g = g
        self.tol = tol
        radii = {0.0}
        for s in g.singular_points:
            radii.add(abs(s))
        support = g.support_radius
        self._tail_remainder = 0.0
        if math.isfinite(support):
            radii.add(support)
            top = support
        else:
            tail = g.power_tail
            if tail is None:
                top = math.inf
            else:
                coef, a, r_from = tail
                top = max(r_from, 1.0, *(r for r in radii if math.isfinite(r)))
                if coef > 0.0:
                    if a >= 0.0:
                        top = math.inf
                    else:
                        # extend until the dual-kernel remainder (both half-lines)
                        # is certified small
                        while 2.0 * coef * top ** a / (-a) > tol / 4.0 and top < 1e300:
                            top *= 4.0
                        self._tail_remainder = 2.0 * coef * top ** a / (-a)
                        radii.add(top)
        self.top = top
        if math.isfinite(top) and top > 2.0 ** -58:
            # a geometric ladder keeps every partial-shell query within one
            # factor-2 band regardless of how sparse the jump radii are
            j = -60
            while 2.0 ** j < top:
                radii.add(2.0 ** j)
                j += 1
        self.radii = sorted(r for r in radii if math.isinf(top) or r <= top)
        self._ball_pref: Optional[list[float]] = None
        self._ball_err = 0.0
        self._tail_suff: Optional[list[float]] = None
        self._tail_err = 0.0

    def _shells(self, g, from_origin: bool) -> tuple[list[float], float]:
        """The integrals of g over the shells between consecutive radii,
        innermost first, and their summed error; the shell at the origin
        reads 0 unless ``from_origin`` (the dual kernel may not be
        integrable down to 0)."""
        values = []
        err = 0.0
        for lo, hi in zip(self.radii[:-1], self.radii[1:]):
            if lo == 0.0 and not from_origin:
                values.append(0.0)
                continue
            res = integrate_shell(g, lo, hi, tol=self.tol)
            values.append(res.value)
            err += res.abs_error_bound
        return values, err

    # -- plain shells -------------------------------------------------------

    def _build_ball(self) -> None:
        values, self._ball_err = self._shells(self.g, True)
        self._ball_pref = list(accumulate(values, initial=0.0))

    def ball(self, t: float) -> tuple[float, float]:
        if t <= 0.0:
            return 0.0, 0.0
        supp = self.g.support_radius
        if math.isfinite(supp) and t > supp:
            t = supp  # the integral is complete; skip the empty partial shell
        if self._ball_pref is None:
            self._build_ball()
        i = bisect_right(self.radii, t) - 1
        base, base_err = self._ball_pref[i], self._ball_err
        lo = self.radii[i]
        if t > lo:
            res = integrate_shell(self.g, lo, t, tol=self.tol)
            return base + res.value, base_err + res.abs_error_bound
        return base, base_err

    # -- dual-kernel shells ---------------------------------------------------

    def _dual_kernel(self):
        """g(y) / |y|, with a local majorant centred at 0, where it is
        unbounded unless g vanishes there: g's sup on |y| <= 1 times
        |y|^-1, or g's own majorant centred at 0 with 1 off its exponent.
        Around a majorant of g centred elsewhere the kernel claims none,
        and so no oddness (``integrate_shell`` could not tell which shells
        hold a singularity)."""
        g = self.g
        gfn = g.evaluate

        def k(y: float) -> float:
            return gfn(y) / abs(y)

        local = g.local_majorant
        if local is None:
            local = (g.abs_bound_on(0.0, 1.0), -1.0, 0.0)
        elif local[2] == 0.0:
            local = (local[0], local[1] - 1.0, 0.0)
        else:
            local = None
        kern = Func(k, (), g.support_radius, even=g.even,
                    odd=g.odd and local is not None, local_majorant=local)
        # g's tuple is sorted and distinct already, and rebuilding it through
        # the constructor cost most of the kernel's build for many jumps
        kern.singular_points = g.singular_points
        return kern

    def _build_tail(self) -> None:
        if math.isinf(self.top):
            raise ValueError(
                "dual operator tail is not certifiably small: the integrand has "
                "no decaying power majorant"
            )
        kern = self._dual_kernel()
        values, err = self._shells(kern, False)
        self._tail_suff = list(accumulate(reversed(values), initial=0.0))[::-1]
        self._tail_err = err + self._tail_remainder
        self._tail_kernel = kern

    def tail(self, t: float) -> tuple[float, float]:
        if t <= 0.0:
            raise ValueError("dual operator is evaluated away from the origin only")
        if t >= self.top:
            return 0.0, self._tail_remainder
        if self._tail_suff is None:
            self._build_tail()
        i = bisect_right(self.radii, t)
        # t sits in [radii[i-1], radii[i]); integrate the partial shell up to radii[i]
        hi = self.radii[i] if i < len(self.radii) else self.top
        val, err = 0.0, self._tail_err
        if hi > t:
            res = integrate_shell(self._tail_kernel, t, hi, tol=self.tol)
            val += res.value
            err += res.abs_error_bound
        if i < len(self.radii):
            val += self._tail_suff[i]
        return val, err


def _jump_points(*gs) -> tuple[float, ...]:
    """The origin and +-|s| for every jump s and finite support radius s of
    the given functions, sorted."""
    pts = {0.0}
    for g in gs:
        for s in g.singular_points:
            pts.update((abs(s), -abs(s)))
        if math.isfinite(g.support_radius):
            pts.update((g.support_radius, -g.support_radius))
    return tuple(sorted(pts))


class OperatorImage:
    """Lazy pointwise image of f under one of the operators.

    The kind is decoded once: the dual operators read tail tables, the
    others ball tables, and a commutator also reads the tables of the
    product b f and evaluates its symbol b, which no other kind accepts.
    Carries the whole evaluable protocol of ``funcs.Func``: jump radii (the
    origin, the symbol's jumps, and the reflected jump radii of the input,
    a sorted tuple of distinct floats),
    a support radius when the output provably vanishes far out, a certified
    power tail otherwise, no local majorant (images are bounded away from
    the origin and never claim one), and shell sup bounds.
    """

    KINDS = ("hardy", "dual_hardy", "commutator_hardy", "commutator_dual_hardy")

    def __init__(self, kind: str, f, b=None, tol: float = 1e-10):
        if kind not in self.KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        if kind.startswith("commutator") != (b is not None):
            raise ValueError("a commutator needs a symbol b, and only a "
                             f"commutator takes one (kind {kind!r})")
        self.kind = kind
        self.f = f
        self.b = b
        self.tol = tol
        self._dual = kind.endswith("dual_hardy")

        self._table_f = _ShellTable(f, tol)
        self._bf = pointwise_product(b, f) if b is not None else None
        self._table_bf = _ShellTable(self._bf, tol) if b is not None else None

        self.singular_points = _jump_points(f) if b is None else _jump_points(f, b)
        # an odd f reads the exact zero from its tables, as an odd b f does
        # below, so under an odd b the image is -T(b f)(|x|) up to a zero's
        # sign: even
        self.even = b is None or b.even or (b.odd and f.odd)
        # an odd b f (an odd b on an even f) reads the exact zero from its
        # table, with the tail remainder as its only error where the tail
        # is certified, so the image is b(x) times a function of |x|: odd
        self.odd = (b is not None and b.odd and self._bf.odd
                    and not (self._dual and math.isinf(self._table_bf.top)))
        if self.odd:
            self._bf_read = (0.0, self._table_bf._tail_remainder if self._dual else 0.0)
        self.flat = False
        self.support_radius = math.inf
        self.power_tail = None
        self.local_majorant = None
        self._derive_far_field()

    # -- far field ------------------------------------------------------------

    def _derive_far_field(self) -> None:
        f = self.f
        if not math.isfinite(f.support_radius):
            # no certified far field; bounded-domain use only
            return
        R_f = f.support_radius
        if self._dual:
            self.support_radius = R_f
            return
        tot_f, err_f = self._table_f.ball(R_f)
        b = self.b
        if b is None:
            coef = abs(tot_f) + err_f
            r0 = max(R_f, 1.0)
            if coef == 0.0:
                self.support_radius = R_f
            else:
                self.power_tail = (coef, -1.0, r0)
            return
        tot_bf, err_bf = self._table_bf.ball(min(R_f, self._bf.support_radius))
        terms = [(abs(tot_bf) + err_bf, -1.0)]
        if math.isfinite(b.support_radius):
            r0 = max(R_f, b.support_radius, 1.0)
        else:
            if b.power_tail is None:
                return
            cb, ab, rb = b.power_tail
            r0 = max(R_f, rb, 1.0)
            terms.append((cb * (abs(tot_f) + err_f), ab - 1.0))
        # unit weights (1.0 * c == c), and r0 >= 1 is every term's r_from
        tail = combine_tails([(1.0, (c, a, r0)) for c, a in terms])
        if tail[0] == 0.0:
            self.support_radius = r0
        else:
            self.power_tail = tail

    # -- evaluation -------------------------------------------------------------

    def _compute(self, x: float) -> tuple[float, float]:
        """b(x) Tf - T(bf) for a commutator, Tf otherwise, with its error;
        T divides its ball integrals by |x|, and its dual does not.  Every
        table read depends on t = |x| only; an odd image knows the
        product's read without reading."""
        if x == 0.0:
            raise ValueError("operator images are defined away from the origin")
        t = abs(x)
        read = _ShellTable.tail if self._dual else _ShellTable.ball
        b = self.b
        if b is None:
            v, e = read(self._table_f, t)
        else:
            # a dual image vanishes from its support radius on, the other beyond
            if t >= self.support_radius if self._dual else t > self.support_radius:
                return 0.0, 0.0
            bx = b.evaluate(x)
            vf, ef = read(self._table_f, t)
            vbf, ebf = self._bf_read if self.odd else read(self._table_bf, t)
            v, e = bx * vf - vbf, abs(bx) * ef + ebf
        if self._dual:
            return v, e
        return v / t, e / t

    def evaluate(self, x: float) -> float:
        return self._compute(x)[0]

    def sample(self, x: float) -> OperatorSample:
        value, err = self._compute(x)
        return OperatorSample(x, value, err)

    # -- certified sup bounds on shells ------------------------------------------

    def abs_bound_on(self, lo: float, hi: float) -> float:
        """Crude but certified sup bound for the image on lo <= |x| <= hi."""
        def hardy_bound(g) -> float:
            if lo <= 0.0:
                return math.inf
            reach = min(hi, g.support_radius)
            if reach <= 0.0:
                return 0.0
            return g.abs_bound_on(0.0, reach) * 2.0 * reach / lo

        def dual_bound(g) -> float:
            if lo <= 0.0 or not math.isfinite(g.support_radius):
                return math.inf
            if g.support_radius <= lo:
                return 0.0
            m = g.abs_bound_on(lo, g.support_radius)
            return m * 2.0 * math.log(g.support_radius / lo)

        bound = dual_bound if self._dual else hardy_bound
        m = bound(self.f)
        if self.b is None:
            return m
        # where f's bound is 0 the image vanishes, whatever b's bound (no inf * 0)
        return (self.b.abs_bound_on(lo, hi) * m if m else 0.0) + bound(self._bf)


# ---------------------------------------------------------------------------
# single-point entry points
# ---------------------------------------------------------------------------

def hardy(f, x: float, tol: float = 1e-9) -> OperatorSample:
    """|x|^(-1) times the integral of f over the ball |y| <= |x|."""
    return OperatorImage("hardy", f, tol=tol).sample(x)


def dual_hardy(f, x: float, tol: float = 1e-9) -> OperatorSample:
    """Integral of f(y) / |y| over |y| > |x|."""
    return OperatorImage("dual_hardy", f, tol=tol).sample(x)


def commutator_hardy(b, f, x: float, tol: float = 1e-9) -> OperatorSample:
    """|x|^(-1) int_{|y|<=|x|} (b(x) - b(y)) f(y) dy."""
    return OperatorImage("commutator_hardy", f, b=b, tol=tol).sample(x)


def commutator_dual_hardy(b, f, x: float, tol: float = 1e-9) -> OperatorSample:
    """int_{|y|>|x|} (b(x) - b(y)) f(y) / |y| dy."""
    return OperatorImage("commutator_dual_hardy", f, b=b, tol=tol).sample(x)


# ---------------------------------------------------------------------------
# centered maximal function
# ---------------------------------------------------------------------------

def _inner_edges(x: float, r: float) -> tuple[float, float]:
    """The window [x - r, x + r] with each float edge rounded toward x.

    fl(x - r) and fl(x + r) may round outward, and a window wider than 2r
    would overestimate the average; the exact TwoSum error tells which
    way each edge rounded, and one step toward x moves it inside.
    """
    edges = []
    for b in (-r, r):
        s = x + b
        bb = s - x
        err = (x - (s - bb)) + (b - bb)  # x + b == s + err exactly
        if err != 0.0 and (err > 0.0) == (b < 0.0):
            s = math.nextafter(s, x)
        edges.append(s)
    return edges[0], edges[1]


def maximal(f, x: float, tol: float = 1e-9) -> OperatorSample:
    """Grid supremum of the centered ball averages of |f| around x.

    The supremum is taken over a geometric radius grid enriched with the
    critical radii at which the ball boundary crosses a jump of f, so the
    grid error is one-sided (an underestimate) and the exact optimum is hit
    whenever it occurs at such a crossing.  Each window's float edges are
    rounded toward x, so the integral never covers more than the window
    even where x +- r loses its last bits.  Averages are normalized by the
    ball measure 2r; multiply by 2 for the r^(-1) convention.
    """
    radii = {2.0 ** (j / 4.0) for j in range(-40, 41)}
    for s in (*f.singular_points,
              *((f.support_radius, -f.support_radius)
                if math.isfinite(f.support_radius) else ())):
        r = abs(x - s)
        if r > 0.0:
            radii.add(r)
    if math.isfinite(f.support_radius):
        radii.add(abs(x) + f.support_radius)
    grid = sorted(radii)

    ffn = f.evaluate
    absf = Func(lambda y: abs(ffn(y)), f.singular_points, f.support_radius,
                even=f.even)
    best = 0.0
    best_err = 0.0
    acc = 0.0
    acc_err = 0.0
    prev_lo = prev_hi = x
    for r in grid:
        lo, hi = _inner_edges(x, r)
        left = integrate_interval(absf, lo, prev_lo, tol=tol)
        right = integrate_interval(absf, prev_hi, hi, tol=tol)
        acc += left.value + right.value
        acc_err += left.abs_error_bound + right.abs_error_bound
        avg = acc / (2.0 * r)
        if avg > best:
            best, best_err = avg, acc_err / (2.0 * r)
        prev_lo, prev_hi = lo, hi
    return OperatorSample(x, best, best_err)
