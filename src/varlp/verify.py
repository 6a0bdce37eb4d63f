"""One checker per quantitative statement, each emitting a CheckReport.

Verdict conventions:

* "Bounded" means the grid supremum exists and the top-decade log-log
  slope of the sweep stays below the slope tolerance.  A finite grid can
  never certify a supremum, so forward boundedness checks are labeled "no
  counterexample found" rather than "verified".
* "Divergent" requires the sweep maximum at the grid edge, slope above the
  tolerance, and fit quality r^2 > 0.9.
* Empirical constants are reported, never asserted against external
  values: the statements only claim such constants exist.

Every checker is deterministic given the config (fixed grids, fixed banks,
seeded generation of the randomized Minkowski lists), so two runs with the
same config produce byte-identical reports.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from . import funcs
from .config import ExperimentConfig
from .exponents import Exponent, constant_exponent, r_p_constant
from .funcs import (Func, chi_ball, chi_interval, chi_ring, dyadic_step,
                    lincomb, lr_aggregate, mean_on_ball, scaled_ball,
                    sign_func, with_sign)
from .geometry import Ball
from .norms import dual_pairing_sup, luxemburg_norm
from .operators import OperatorImage
from .quadrature import integrate_interval
from .report import CheckReport, fit_loglog, slope_is_flat
from .spaces import (cbmo_classical_norm, cbmo_inf_norm, cbmo_star_norm,
                     cbmo_var_norm, default_radius_grid, herz_breakdown,
                     lq_aggregate, lq_aggregate_large, lq_aggregate_small)


def _radius_grid(span: Sequence[int]) -> list[float]:
    return default_radius_grid(int(span[0]), int(span[1]))


def merge_reports(statement_id: str, parts: list[CheckReport],
                  notes: str = "") -> CheckReport:
    """AND the partial verdicts and pool their witnesses."""
    const = max((p.empirical_constant for p in parts
                 if p.empirical_constant is not None), default=None)
    fitted = next((p.fitted_exponent for p in reversed(parts)
                   if p.fitted_exponent is not None), None)
    wit: list[tuple[str, float, float]] = []
    for p in parts:
        wit.extend(p.witnesses)
    sub_notes = "; ".join(p.notes for p in parts if p.notes)
    return CheckReport(statement_id, all(p.passed for p in parts), const,
                       fitted, wit, notes or sub_notes)


# ---------------------------------------------------------------------------
# banks
# ---------------------------------------------------------------------------

def duality_bank() -> list[tuple[str, Func]]:
    return funcs.catalog_bank()[:8]


def embedding_bank() -> list[tuple[str, Func]]:
    return [
        ("sign", sign_func()),
        ("sgn_window", with_sign(chi_ball(2.0))),
        ("chi01", chi_interval(0.0, 1.0)),
        ("ring1", chi_ring(1)),
        ("hat", lincomb([chi_ball(1.0), chi_ball(0.5)], [1.0, 1.0])),
    ]


def equivalence_bank() -> list[tuple[str, Func]]:
    return [
        ("sign", sign_func()),
        ("chi01", chi_interval(0.0, 1.0)),
        ("sgn_window", with_sign(chi_ball(2.0))),
    ]


def symbol_bank() -> list[tuple[str, Func]]:
    return [
        ("sign", sign_func()),
        ("abs", funcs.power(1.0)),
        ("chi_pm1", chi_ball(1.0)),
        ("dyadic_step", dyadic_step()),
    ]


def commutator_bank(m_lo: int = -8, m_hi: int = 12) -> list[tuple[str, Optional[float], Func]]:
    """Scaled ball characteristics plus assorted shapes; scale drives trends."""
    bank: list[tuple[str, Optional[float], Func]] = []
    for m in range(m_lo, m_hi + 1):
        r = 2.0 ** m
        bank.append((f"chi_ball_2^{m}", r, chi_ball(r)))
    for k in range(0, 5):
        bank.append((f"ring{k}", None, chi_ring(k)))
    for m in (0, 2):
        r = 2.0 ** m
        bank.append((f"sgn_window_2^{m}", None, with_sign(chi_ball(r))))
    for r in (1.0, 4.0):
        bank.append((f"f0_r{r:g}", None, scaled_ball(r)))
    return bank


def subset_pairs(count: int = 50) -> list[tuple[str, Ball, Func, float]]:
    """(description, B, chi_S, |S|) with S drawn from balls, shells, and
    off-center intervals inside B.  Deterministic by construction."""
    pairs = []
    for j in (-2, 0, 2, 4, 6):
        r = 2.0 ** j
        B = Ball(r)
        for i in (1, 2, 3, 4):
            s = r / 2.0 ** i
            pairs.append((f"B(2^{j}) ball(r/{2 ** i})", B, chi_ball(s), 2.0 * s))
        for (a, b) in ((r / 4.0, r / 2.0), (-r, -r / 8.0), (0.0, r / 16.0)):
            pairs.append((f"B(2^{j}) interval[{a:g},{b:g}]", B,
                          chi_interval(a, b), b - a))
        for i in (1, 2, 3):
            hi, lo = r / 2.0 ** (i - 1), r / 2.0 ** i
            shell = lincomb([chi_ball(hi), chi_ball(lo)], [1.0, -1.0])
            pairs.append((f"B(2^{j}) shell[{lo:g},{hi:g}]", B, shell,
                          2.0 * (hi - lo)))
    return pairs[:count]


def diening_families() -> list[tuple[str, list[tuple[float, float]], list[float], Func]]:
    """(name, cubes, weights, f) with f averaging to something nonzero on
    every cube."""
    one_plus_abs = lincomb([funcs.constant(1.0), funcs.power(1.0)], [1.0, 1.0])
    return [
        ("flat", [(0.0, 1.0), (2.0, 3.0)], [1.0, 1.0], funcs.constant(1.0)),
        ("half_chi", [(0.0, 1.0)], [1.0], chi_interval(0.0, 0.5)),
        ("graded", [(0.0, 0.5), (1.0, 2.0), (4.0, 8.0)], [1.0, 2.0, 0.5],
         one_plus_abs),
    ]


def minkowski_lists(seed: int, count: int = 50) -> list[list[Func]]:
    # numpy is the package's only use of it, so `import varlp` does not load it
    import numpy as np

    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(count):
        n = int(rng.integers(2, 5))
        members = []
        for _ in range(n):
            shape = int(rng.integers(0, 3))
            c = float(rng.uniform(0.3, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            if shape == 0:
                a = float(rng.uniform(-4.0, 3.0))
                b = a + float(rng.uniform(0.25, 3.0))
                atom = chi_interval(a, b)
            elif shape == 1:
                atom = scaled_ball(float(rng.uniform(0.5, 4.0)))
            else:
                atom = chi_ring(int(rng.integers(-2, 3)))
            members.append(lincomb([atom], [c]))
        lists.append(members)
    return lists


def vv_sequence_bank() -> list[tuple[str, Optional[float], list[Func]]]:
    """Ten sequences: a dyadically scaled ring family that drives the trend
    fit, plus unscaled shape variety that only feeds the supremum."""
    bank: list[tuple[str, Optional[float], list[Func]]] = []
    for j in range(-2, 4):
        bank.append((f"rings_{j}", 2.0 ** (j + 1), [chi_ring(j), chi_ring(j + 1)]))
    for j in (0, 1):
        r = 2.0 ** j
        bank.append((f"ball_pair_{j}", None, [scaled_ball(r), chi_ball(r)]))
    for j in (-1, 2):
        r = 2.0 ** j
        bank.append((f"signed_{j}", None, [with_sign(chi_ball(r)), chi_ball(r)]))
    return bank


# ---------------------------------------------------------------------------
# statement checkers
# ---------------------------------------------------------------------------

def check_duality(e: Exponent, func_bank: Sequence[tuple[str, Func]],
                  tol: float = 1e-9, ratio_tol: float = 1e-4,
                  label: str = "") -> CheckReport:
    """Pairing bracket: norm <= sup of pairings <= (1 + 1/p- + 1/p+) norm.

    With the analytic extremizer in the bank the lower pairing bound
    attains the norm, so the observed ratio must sit in
    [1 - tol, r_p + tol].
    """
    rp = r_p_constant(e)
    atoms = [f for _, f in func_bank[:3]]
    witnesses = []
    worst = None
    ok = True
    for name, f in func_bank:
        nf = luxemburg_norm(f, e, tol=tol).value
        if nf == 0.0:
            continue
        lower, upper = dual_pairing_sup(f, e, atoms, tol=tol)
        ratio = lower / nf
        witnesses.append((f"{label}{name}: pairing ratio", ratio, rp))
        ok = ok and (1.0 - ratio_tol <= ratio <= rp + ratio_tol) and lower <= upper * (1.0 + ratio_tol)
        worst = ratio if worst is None else max(worst, ratio)
    return CheckReport("eq1.1", ok, worst, None, witnesses,
                       notes=f"r_p={rp:.6g}; ratio_tol={ratio_tol:g}")


def check_diening_single_family(e: Exponent,
                                cubes: Sequence[tuple[float, float]],
                                weights: Sequence[float], f: Func,
                                delta_grid: Sequence[float],
                                tol: float = 1e-9, cap: float = 100.0,
                                label: str = "") -> CheckReport:
    """Weighted-oscillation inequality on one finite family of disjoint cubes:
    some exponent delta in (0, 1) must keep ||sum t_Q |f/f_Q|^delta chi_Q||
    within a constant of ||sum t_Q chi_Q||."""
    means = []
    for (a, b) in cubes:
        res = integrate_interval(f, a, b, tol=tol)
        means.append(res.value / (b - a))
    usable = [(q, t, m) for q, t, m in zip(cubes, weights, means) if m != 0.0]
    skipped = len(means) - len(usable)
    edges = [x for (a, b) in cubes for x in (a, b)]
    support = max(abs(x) for x in edges)

    def rhs_fn(x: float) -> float:
        for (a, b), t, _ in usable:
            if a <= x <= b:
                return t
        return 0.0

    rhs = funcs.Func(rhs_fn, edges, support, even=False)
    rhs_norm = luxemburg_norm(rhs, e, tol=tol).value
    witnesses = []
    best_ratio, best_delta = math.inf, None
    for delta in delta_grid:
        def lhs_fn(x: float, _d=delta) -> float:
            for (a, b), t, m in usable:
                if a <= x <= b:
                    return t * abs(f.evaluate(x) / m) ** _d
            return 0.0

        lhs = funcs.Func(lhs_fn, (*edges, *f.singular_points), support, even=False)
        lhs_norm = luxemburg_norm(lhs, e, tol=tol).value
        ratio = lhs_norm / rhs_norm if rhs_norm > 0.0 else 0.0
        witnesses.append((f"{label}delta={delta:g}", ratio, cap))
        if ratio < best_ratio:
            best_ratio, best_delta = ratio, delta
    notes = f"weights and cubes fixed; {skipped} cube(s) skipped for zero mean" \
        if skipped else "finite explicit family only; the full quantifier is out of numerical reach"
    return CheckReport("lemma2.2", best_ratio <= cap, best_ratio, best_delta,
                       witnesses, notes=notes)


def check_chi_product(e: Exponent, radius_grid: Sequence[float],
                      tol: float = 1e-9, slope_tol: float = 0.05,
                      label: str = "") -> CheckReport:
    """||chi_B||_p * ||chi_B||_p' / |B| stays bounded over central balls."""
    from .norms import chi_norm
    ec = e.conjugate()
    scales, vals = [], []
    for r in radius_grid:
        ball = Ball(r)
        v = chi_norm(ball, e, tol=tol).value * chi_norm(ball, ec, tol=tol).value \
            / ball.measure
        scales.append(r)
        vals.append(v)
    sup = max(vals)
    top_fit = fit_loglog(scales, vals)
    top_flat = top_fit is None or top_fit[0] < slope_tol
    # growth toward r -> 0 shows up as a positive slope against 1/r
    inv_fit = fit_loglog([1.0 / s for s in scales][::-1], vals[::-1])
    bottom_flat = inv_fit is None or inv_fit[0] < slope_tol
    witnesses = [(f"{label}sup over {len(vals)} radii", sup, math.inf),
                 (f"{label}top-decade slope",
                  top_fit[0] if top_fit else 0.0, slope_tol)]
    return CheckReport("lemma2.3", top_flat and bottom_flat, sup, None,
                       witnesses, notes=f"slope_tol={slope_tol:g}")


def check_subset_ratios(e: Exponent,
                        pairs: Sequence[tuple[str, Ball, Func, float]],
                        p0_grid: Sequence[float], tol: float = 1e-9,
                        rel_tol: float = 1e-6,
                        label: str = "") -> tuple[CheckReport, CheckReport]:
    """Subset-to-ball norm ratios: the doubling bound, the fitted reverse
    exponent, and its sharpened 1/p0 form.  Returns the two reports."""
    from .norms import chi_norm
    ball_norms = {B: chi_norm(B, e, tol=tol).value
                  for B in dict.fromkeys(B for _, B, _, _ in pairs)}
    rows = [(desc, ball_norms[B], luxemburg_norm(chi_s, e, tol=tol).value,
             B.measure, meas_s) for desc, B, chi_s, meas_s in pairs]

    # forward bound: ||chi_B|| / ||chi_S|| <= C |B| / |S|
    c_forward = max((nb / ns) / (mb / ms) for _, nb, ns, mb, ms in rows)
    # reverse bound: fit ||chi_S|| / ||chi_B|| against (|S|/|B|)^delta
    delta_hat, _ = fit_loglog([ms / mb for _, _, _, mb, ms in rows],
                              [ns / nb for _, nb, ns, _, _ in rows],
                              decades=math.inf)
    c_reverse = max((ns / nb) / (ms / mb) ** delta_hat
                    for _, nb, ns, mb, ms in rows)
    wit24 = [(f"{label}forward constant", c_forward, math.inf),
             (f"{label}fitted reverse exponent", delta_hat, 1.0)]
    ok24 = math.isfinite(c_forward) and 0.0 < delta_hat <= 1.0 + rel_tol
    rep24 = CheckReport("lemma2.4", ok24, c_forward, delta_hat, wit24,
                        notes=f"reverse constant at fitted exponent: {c_reverse:.6g}")

    wit25 = []
    ok25 = True
    worst = 0.0
    is_const = e.p_minus == e.p_plus
    for p0 in p0_grid:
        c25 = max((nb / ns) / (mb / ms) ** (1.0 / p0)
                  for _, nb, ns, mb, ms in rows)
        worst = max(worst, c25)
        wit25.append((f"{label}p0={p0:g}", c25,
                      1.0 + rel_tol if is_const else math.inf))
        ok25 = ok25 and math.isfinite(c25)
        if is_const and p0 <= e.p_plus:
            # exactness at constant exponent: the ratio is (|B|/|S|)^(1/p)
            ok25 = ok25 and c25 <= 1.0 + rel_tol
    rep25 = CheckReport("lemma2.5", ok25, worst, None, wit25,
                        notes="constant-exponent case must meet the bound with C=1")
    return rep24, rep25


def check_counterexample(p0: float, k_max: int, radius_grid: Sequence[float],
                         tol: float = 1e-9, slope_tol: float = 0.05,
                         mean_tol: float = 1e-9, fit_r2: float = 0.9) -> CheckReport:
    """The signed dyadic-band function: bounded 1-mean oscillation, zero ball
    averages, yet oscillation ratio growing like r^(1 - 1/p0) at constant
    exponent p0."""
    f = dyadic_step(k_max)
    witnesses = []

    classical = cbmo_classical_norm(f, 1.0, radius_grid, tol=tol)
    scales = [s for s, _ in classical.breakdown]
    vals = [v for _, v in classical.breakdown]
    flat = slope_is_flat(scales, vals, slope_tol)
    witnesses.append(("classical p=1 oscillation sup", classical.value, math.inf))

    worst_mean = 0.0
    for r in radius_grid:
        worst_mean = max(worst_mean, abs(mean_on_ball(f, Ball(r), tol=tol).value))
    witnesses.append(("max |ball average|", worst_mean, mean_tol))

    var = cbmo_var_norm(f, constant_exponent(p0), radius_grid, tol=tol)
    target = 1.0 - 1.0 / p0
    slope, r2 = var.divergence_fit if var.divergence_fit else (0.0, 0.0)
    witnesses.append((f"p0={p0:g} divergence slope", slope, target))
    slope_ok = abs(slope - target) <= slope_tol and r2 > fit_r2 and var.diverged

    passed = flat and worst_mean <= mean_tol and slope_ok
    return CheckReport("prop3.1", passed, var.value, slope, witnesses,
                       notes=f"target slope {target:g} (rate r^(1-1/p0)); r2={r2:.4f}")


def check_embedding_cbmo_q(e: Exponent, q_grid: Sequence[float],
                           func_bank: Sequence[tuple[str, Func]],
                           radius_grid: Sequence[float], tol: float = 1e-9,
                           cap: float = 1e6, label: str = "") -> CheckReport:
    """Classical q-oscillation controls the variable-exponent oscillation:
    the ratio must stay finite for the largest tested q."""
    witnesses = []
    sup_by_q = {}
    nums = [cbmo_var_norm(f, e, radius_grid, tol=tol).value for _, f in func_bank]
    for q in q_grid:
        sup = 0.0
        for (_, f), num in zip(func_bank, nums):
            den = cbmo_classical_norm(f, q, radius_grid, tol=tol).value
            if den <= tol:
                continue
            sup = max(sup, num / den)
        sup_by_q[q] = sup
        witnesses.append((f"{label}q={q:g} sup ratio", sup, cap))
    q_top = max(q_grid)
    passed = math.isfinite(sup_by_q[q_top]) and sup_by_q[q_top] <= cap
    return CheckReport("prop3.2", passed, sup_by_q[q_top], None, witnesses,
                       notes=f"largest tested q={q_top:g}")


def check_norm_equivalences(e: Exponent,
                            func_bank: Sequence[tuple[str, Func]],
                            radius_grid: Sequence[float], tol: float = 1e-9,
                            cap: float = 1e6,
                            label: str = "") -> tuple[CheckReport, CheckReport]:
    """Free-center and minimized-center oscillation norms against the
    defining one: the ball-average rule reproduces it exactly, the infimum
    sits below it, and their ratio kappa stays finite."""
    wit3, wit4 = [], []
    ok3, ok4 = True, True
    kappa_max = None
    for name, f in func_bank:
        var = cbmo_var_norm(f, e, radius_grid, tol=tol)
        star = cbmo_star_norm(f, e, "ball-average", radius_grid, tol=tol)
        inf_ = cbmo_inf_norm(f, e, radius_grid, tol=tol)
        wit3.append((f"{label}{name}: star(ball-avg) vs var", star.value, var.value))
        ok3 = ok3 and abs(star.value - var.value) <= 1e-9 * (1.0 + var.value)
        ok3 = ok3 and inf_.value <= star.value + 1e-6 * (1.0 + star.value)
        if inf_.value > tol:
            kappa = var.value / inf_.value
            kappa_max = kappa if kappa_max is None else max(kappa_max, kappa)
            wit4.append((f"{label}{name}: kappa", kappa, cap))
            ok4 = ok4 and kappa <= cap and kappa >= 1.0 - 1e-6
    rep3 = CheckReport("prop3.3", ok3, None, None, wit3,
                       notes="ball-average centers reproduce the defining norm; "
                             "infimum centers sit below it")
    rep4 = CheckReport("prop3.4", ok4, kappa_max, None, wit4,
                       notes="kappa = defining norm / minimized-center norm; "
                             "the equivalence constant itself is not certified")
    return rep3, rep4


def _nudge(x: float, hazards: Sequence[float], h: float) -> float:
    for _ in range(64):
        if all(abs(x - s) > h for s in hazards):
            return x
        x += 2.13 * h
    return x


def check_commutator_identity(b_bank: Sequence[tuple[str, Func]],
                              ball_grid: Sequence[float],
                              points_per_ball: int = 20,
                              tol: float = 1e-9,
                              abs_tol: float = 1e-6) -> CheckReport:
    """Exact splitting of the ball mean oscillation of a symbol at a point:

        b(x) - b_B = (|x| / |B|) [b,H](chi_B)(x) + [b,H*](f0)(x)

    with f0 = |x| |B|^(-1) chi_B, for every x in B away from the origin.
    Splitting the ball average of b(x) - b(y) at |y| = |x| gives the two
    operator terms, so the residual is pure quadrature error."""
    witnesses = []
    worst = 0.0
    for name, b in b_bank:
        for r in ball_grid:
            ball = Ball(r)
            b_mean = mean_on_ball(b, ball, tol=tol).value
            com = OperatorImage("commutator_hardy", chi_ball(r), b=b, tol=tol / 10)
            com_dual = OperatorImage("commutator_dual_hardy", scaled_ball(r), b=b,
                                     tol=tol / 10)
            resid = 0.0
            half = points_per_ball // 2
            for j in range(1, half + 1):
                mag = r * (2 * j - 1) / (2.0 * half)
                for sgn in (1.0, -1.0):
                    x = _nudge(sgn * mag, (*b.singular_points, 0.0), 1e-9 * r)
                    lhs = b.evaluate(x) - b_mean
                    rhs = (abs(x) / ball.measure) * com.evaluate(x) \
                        + com_dual.evaluate(x)
                    resid = max(resid, abs(lhs - rhs))
            witnesses.append((f"{name} on B(0,{r:g}): max residual", resid, abs_tol))
            worst = max(worst, resid)
    return CheckReport("thm4.1-converse-identity", worst <= abs_tol, worst, None,
                       witnesses, notes=f"abs_tol={abs_tol:g}")


def check_commutator_bounded(b: Func, e: Exponent,
                             func_bank: Sequence[tuple[str, Optional[float], Func]],
                             tol: float = 1e-9, slope_tol: float = 0.05,
                             expect: str = "bounded",
                             label: str = "") -> CheckReport:
    """Operator-norm lower bounds for both commutators on the bank.

    expect="bounded": the per-scale ratio sweep must be flat at the top
    (no counterexample to boundedness found).  expect="increasing": the
    sweep must grow strictly, corroborating that an unbounded-oscillation
    symbol cannot have bounded commutators.
    """
    e_conj = e.conjugate()
    same = e.p_minus == e.p_plus and abs(e.p_plus - 2.0) < 1e-12
    exps = [("p", e)] if same else [("p", e), ("p'", e_conj)]
    witnesses = []
    ok = True
    worst = 0.0
    input_norms = {exp_label: [luxemburg_norm(f, ee, tol=tol).value
                               for _, _, f in func_bank] for exp_label, ee in exps}
    for op_kind, op_label in (("commutator_hardy", "[b,H]"),
                              ("commutator_dual_hardy", "[b,H*]")):
        for exp_label, ee in exps:
            scales, ratios = [], []
            sup = 0.0
            for (name, scale, f), nf in zip(func_bank, input_norms[exp_label]):
                if nf == 0.0:
                    continue
                img = OperatorImage(op_kind, f, b=b, tol=tol / 10)
                nw = luxemburg_norm(img, ee, tol=tol).value
                ratio = nw / nf
                sup = max(sup, ratio)
                if scale is not None:
                    scales.append(scale)
                    ratios.append(ratio)
            worst = max(worst, sup)
            key = f"{op_label} on L^{exp_label}"
            witnesses.append((f"{label}{key}: sup ratio", sup, math.inf))
            if expect == "bounded":
                flat = slope_is_flat(scales, ratios, slope_tol)
                witnesses.append((f"{label}{key}: top slope flat", float(flat), 1.0))
                ok = ok and flat
            else:
                pos = [v for v in ratios if v > 0.0]
                increasing = all(v2 > v1 for v1, v2 in zip(pos, pos[1:])) and len(pos) >= 3
                witnesses.append((f"{label}{key}: strictly increasing",
                                  float(increasing), 1.0))
                ok = ok and increasing
    note = ("no counterexample found on the bank; finite banks only lower-bound "
            "the operator norm") if expect == "bounded" else \
        "growing ratios corroborate the converse: unbounded symbol oscillation"
    return CheckReport("thm4.1-forward", ok, worst, None, witnesses, notes=note)


def check_minkowski(func_lists: Sequence[Sequence[Func]],
                    r_grid: Sequence[float], tol: float = 1e-9,
                    abs_tol: float = 1e-8) -> CheckReport:
    """Integral l^r aggregation: (sum_j (int |f_j|)^r)^(1/r) never exceeds
    int (sum_j |f_j|^r)^(1/r); the inequality holds with constant 1."""
    witnesses = []
    ok = True
    worst_gap = -math.inf
    for i, members in enumerate(func_lists):
        for r in r_grid:
            ints = []
            for f in members:
                R = f.support_radius
                fa = funcs.abs_power(f, 1.0)
                ints.append(integrate_interval(fa, -R, R, tol=tol).value)
            lhs = sum(v ** r for v in ints) ** (1.0 / r)
            agg = lr_aggregate(members, r)
            R = max(f.support_radius for f in members)
            rhs = integrate_interval(agg, -R, R, tol=tol).value
            gap = lhs - rhs
            worst_gap = max(worst_gap, gap)
            if gap > abs_tol:
                witnesses.append((f"list{i} r={r:g} VIOLATION", lhs, rhs))
                ok = False
    witnesses.insert(0, (f"worst lhs-rhs gap over {len(func_lists)} lists "
                         f"x {len(r_grid)} indices", worst_gap, abs_tol))
    return CheckReport("lemma5.1", ok, worst_gap, None, witnesses,
                       notes="the constant is 1; no fitted constant needed")


def check_vv_herz(b: Func, e: Exponent, alpha: float,
                  q_values: Sequence[float], r: float,
                  seq_bank: Sequence[tuple[str, Optional[float], list[Func]]],
                  k_range: Sequence[int], tol: float = 1e-9,
                  slope_tol: float = 0.05,
                  boundary_tol: float = 1e-9) -> CheckReport:
    """Vector-valued commutator bound on the ring-weighted space: the ratio
    of the aggregated image norm to the aggregated input norm stays flat in
    the sequence scale, for every q.

    The ring window shifts with each sequence's dyadic scale so the
    truncation of the (infinite) ring sum is scale-uniform; otherwise a
    fixed floor would eat a growing share of the image's lower rings and
    fake a trend.  Ring contributions are q-independent and computed once;
    both aggregation branches are exercised, with a mandatory agreement
    check at the q = 1 boundary.
    """
    p_conj_minus = e.p_plus / (e.p_plus - 1.0)
    if not alpha < 1 / p_conj_minus:
        raise ValueError(
            f"weight exponent alpha={alpha:g} violates alpha < 1/p'_minus "
            f"= {1 / p_conj_minus:g}")
    witnesses = []
    ok = True
    worst = 0.0
    per_q_sweeps: dict[tuple[str, float], tuple[list[float], list[float]]] = {}
    boundary_gap = 0.0
    base_window = [int(k) for k in k_range]
    for name, scale, fs in seq_bank:
        shift = int(round(math.log2(scale))) if scale is not None else 0
        window = [k + shift for k in base_window]
        den_break, _ = herz_breakdown(lr_aggregate(fs, r), e, alpha, window, tol)
        den_contribs = [v for _, v in den_break]
        for op_kind, op_label in (("commutator_hardy", "[b,H]"),
                                  ("commutator_dual_hardy", "[b,H*]")):
            imgs = [OperatorImage(op_kind, f, b=b, tol=tol / 10) for f in fs]
            num_break, _ = herz_breakdown(lr_aggregate(imgs, r), e, alpha,
                                          window, tol)
            num_contribs = [v for _, v in num_break]
            small = lq_aggregate_small(num_contribs, 1.0)
            large = lq_aggregate_large(num_contribs, 1.0)
            boundary_gap = max(boundary_gap, abs(small - large))
            for q in q_values:
                den = lq_aggregate(den_contribs, q)
                num = lq_aggregate(num_contribs, q)
                if den == 0.0:
                    continue
                ratio = num / den
                worst = max(worst, ratio)
                key = (op_label, q)
                if scale is not None:
                    per_q_sweeps.setdefault(key, ([], []))
                    per_q_sweeps[key][0].append(scale)
                    per_q_sweeps[key][1].append(ratio)
                else:
                    witnesses.append((f"{name} {op_label} q={q:g}: ratio",
                                      ratio, math.inf))
    for (op_label, q), (scales, ratios) in sorted(per_q_sweeps.items()):
        flat = slope_is_flat(scales, ratios, slope_tol)
        sup = max(ratios) if ratios else 0.0
        witnesses.append((f"{op_label} q={q:g}: sup ratio", sup, math.inf))
        witnesses.append((f"{op_label} q={q:g}: top slope flat", float(flat), 1.0))
        ok = ok and flat
    witnesses.append(("q=1 branch agreement gap", boundary_gap, boundary_tol))
    ok = ok and boundary_gap <= boundary_tol
    return CheckReport("thm5.1", ok, worst, None, witnesses,
                       notes="both q-aggregation branches executed; "
                             f"boundary_tol={boundary_tol:g}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _exponents_for(cfg: ExperimentConfig, names: Sequence[str]) -> list[tuple[str, Exponent]]:
    return [(n, cfg.exponent(n)) for n in names]


def _run_eq11(cfg: ExperimentConfig) -> CheckReport:
    parts = [check_duality(e, duality_bank(), tol=cfg.tol,
                           ratio_tol=cfg.stmt_tol("eq1.1", "ratio_tol"),
                           label=f"{name} ")
             for name, e in _exponents_for(cfg, ("const2", "pw23"))]
    return merge_reports("eq1.1", parts)


def _run_lemma22(cfg: ExperimentConfig) -> CheckReport:
    delta_grid = cfg.grid("delta_grid")
    cap = cfg.stmt_tol("lemma2.2", "cap")
    parts = []
    for name, e in _exponents_for(cfg, ("const2", "pw23")):
        for fam_name, cubes, weights, f in diening_families():
            parts.append(check_diening_single_family(
                e, cubes, weights, f, delta_grid, tol=cfg.tol, cap=cap,
                label=f"{name}/{fam_name} "))
    rep = merge_reports("lemma2.2", parts)
    rep.notes = ("finite explicit 1-D families only; the all-families "
                 "quantifier is out of numerical reach")
    return rep


def _run_lemma23(cfg: ExperimentConfig) -> CheckReport:
    grid = _radius_grid(cfg.grid("chi_product_radius_k"))
    parts = [check_chi_product(e, grid, tol=cfg.tol,
                               slope_tol=cfg.stmt_tol("lemma2.3", "slope_tol"),
                               label=f"{name} ")
             for name, e in _exponents_for(cfg, ("const2", "const3", "pw23", "pw32"))]
    return merge_reports("lemma2.3", parts)


def _run_subsets(cfg: ExperimentConfig) -> tuple[CheckReport, CheckReport]:
    pairs = subset_pairs(cfg.grid("subset_pair_count"))
    parts24, parts25 = [], []
    for name, e in _exponents_for(cfg, ("const2", "pw23")):
        r24, r25 = check_subset_ratios(e, pairs, cfg.grid("p0_grid"),
                                       tol=cfg.tol,
                                       rel_tol=cfg.stmt_tol("lemma2.5", "rel_tol"),
                                       label=f"{name} ")
        parts24.append(r24)
        parts25.append(r25)
    return (merge_reports("lemma2.4", parts24),
            merge_reports("lemma2.5", parts25))


def _run_prop31(cfg: ExperimentConfig) -> CheckReport:
    grid = _radius_grid(cfg.grid("counterexample_radius_k"))
    parts = [check_counterexample(p0, 40, grid, tol=cfg.tol,
                                  slope_tol=cfg.stmt_tol("prop3.1", "slope_tol"),
                                  mean_tol=cfg.stmt_tol("prop3.1", "mean_tol"),
                                  fit_r2=cfg.stmt_tol("prop3.1", "fit_r2"))
             for p0 in cfg.grid("counterexample_p0")]
    return merge_reports("prop3.1", parts)


def _run_prop32(cfg: ExperimentConfig) -> CheckReport:
    grid = _radius_grid(cfg.grid("cbmo_radius_k"))
    parts = [check_embedding_cbmo_q(e, cfg.grid("embedding_q"), embedding_bank(),
                                    grid, tol=cfg.tol,
                                    cap=cfg.stmt_tol("prop3.2", "cap"),
                                    label=f"{name} ")
             for name, e in _exponents_for(cfg, ("const2", "pw23"))]
    return merge_reports("prop3.2", parts)


def _run_equivalences(cfg: ExperimentConfig) -> tuple[CheckReport, CheckReport]:
    grid = _radius_grid(cfg.grid("equiv_radius_k"))
    parts3, parts4 = [], []
    for name, e in _exponents_for(cfg, ("const2", "pw23")):
        r3, r4 = check_norm_equivalences(e, equivalence_bank(), grid,
                                         tol=cfg.tol,
                                         cap=cfg.stmt_tol("prop3.4", "cap"),
                                         label=f"{name} ")
        parts3.append(r3)
        parts4.append(r4)
    return (merge_reports("prop3.3", parts3),
            merge_reports("prop3.4", parts4))


def _run_thm41_forward(cfg: ExperimentConfig) -> CheckReport:
    e = cfg.exponent("const2")
    m_lo, m_hi = cfg.grid("commutator_scale_m")
    forward = check_commutator_bounded(sign_func(), e,
                                       commutator_bank(m_lo, m_hi),
                                       tol=cfg.tol,
                                       slope_tol=cfg.stmt_tol("thm4.1-forward", "slope_tol"),
                                       expect="bounded", label="b=sign ")
    c_lo, c_hi = cfg.grid("commutator_converse_m")
    converse_bank = [(f"chi_ball_2^{m}", 2.0 ** m, chi_ball(2.0 ** m))
                     for m in range(c_lo, c_hi + 1)]
    converse = check_commutator_bounded(dyadic_step(), e, converse_bank,
                                        tol=cfg.tol, expect="increasing",
                                        label="b=dyadic_step ")
    return merge_reports("thm4.1-forward", [forward, converse],
                         notes=forward.notes + "; " + converse.notes)


def _run_thm41_identity(cfg: ExperimentConfig) -> CheckReport:
    return check_commutator_identity(
        symbol_bank(), cfg.grid("identity_balls"),
        points_per_ball=cfg.grid("identity_points_per_ball"), tol=cfg.tol,
        abs_tol=cfg.stmt_tol("thm4.1-converse-identity", "abs_tol"))


def _run_lemma51(cfg: ExperimentConfig) -> CheckReport:
    lists = minkowski_lists(cfg.seed, cfg.grid("minkowski_list_count"))
    return check_minkowski(lists, cfg.grid("r_values"), tol=cfg.tol,
                           abs_tol=cfg.stmt_tol("lemma5.1", "abs_tol"))


def _run_thm51(cfg: ExperimentConfig) -> CheckReport:
    e = cfg.exponent("const2")
    k_lo, k_hi = cfg.grid("vv_herz_k")
    return check_vv_herz(sign_func(), e, cfg.grid("alpha"),
                         cfg.grid("q_values"), cfg.grid("lr_index"),
                         vv_sequence_bank(), range(k_lo, k_hi + 1),
                         tol=cfg.tol,
                         slope_tol=cfg.stmt_tol("thm5.1", "slope_tol"),
                         boundary_tol=cfg.stmt_tol("thm5.1", "boundary_tol"))


# a checker, or (sweep, index) for two statements that one sweep reports;
# the order is the statement order of run_all and of every report list
_REGISTRY: dict[str, Callable[[ExperimentConfig], CheckReport]
                | tuple[Callable[[ExperimentConfig], tuple], int]] = {
    "eq1.1": _run_eq11,
    "lemma2.2": _run_lemma22,
    "lemma2.3": _run_lemma23,
    "lemma2.4": (_run_subsets, 0),
    "lemma2.5": (_run_subsets, 1),
    "prop3.1": _run_prop31,
    "prop3.2": _run_prop32,
    "prop3.3": (_run_equivalences, 0),
    "prop3.4": (_run_equivalences, 1),
    "thm4.1-forward": _run_thm41_forward,
    "thm4.1-converse-identity": _run_thm41_identity,
    "lemma5.1": _run_lemma51,
    "thm5.1": _run_thm51,
}
STATEMENT_IDS = tuple(_REGISTRY)


def run_statement(statement_id: str, cfg: ExperimentConfig,
                  memo: Optional[dict] = None) -> CheckReport:
    """One statement's report.

    A paired sweep's reports are kept in ``memo`` when one is given, so the
    second statement of the pair costs nothing; run_all passes one memo per
    call, and without one every call runs its sweep afresh.
    """
    if statement_id not in _REGISTRY:
        raise KeyError(f"unknown statement id {statement_id!r}; "
                       f"known: {', '.join(STATEMENT_IDS)}")
    entry = _REGISTRY[statement_id]
    if not isinstance(entry, tuple):
        return entry(cfg)
    sweep, index = entry
    if memo is None:
        return sweep(cfg)[index]
    if sweep not in memo:
        memo[sweep] = sweep(cfg)
    return memo[sweep][index]


def run_all(cfg: ExperimentConfig) -> list[CheckReport]:
    """Run every registered statement check, in id order."""
    memo: dict = {}
    return [run_statement(sid, cfg, memo=memo) for sid in STATEMENT_IDS]


def summary_table(reports: Sequence[CheckReport]) -> str:
    """Human-readable fixed-width summary; refuses incomplete coverage when
    handed a full run."""
    ids = [r.statement_id for r in reports]
    if len(reports) >= len(STATEMENT_IDS) and set(ids) != set(STATEMENT_IDS):
        raise RuntimeError(
            f"summary refused: statement coverage incomplete ({sorted(set(ids))})")
    lines = [f"{'statement':<26} {'verdict':<8} {'constant':>12} {'exponent':>10}"]
    lines.append("-" * 60)
    for r in reports:
        const = f"{r.empirical_constant:.4g}" if r.empirical_constant is not None else "-"
        fit = f"{r.fitted_exponent:.4g}" if r.fitted_exponent is not None else "-"
        lines.append(f"{r.statement_id:<26} {'pass' if r.passed else 'FAIL':<8} "
                     f"{const:>12} {fit:>10}")
    return "\n".join(lines)
