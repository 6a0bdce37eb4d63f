"""The benchmark's three workloads: inputs from a seed, ops, and checks.

Each workload is a fixed list of ops built from the seed.  An op names the
varlp module and public function it calls, so the call is looked up at run
time and a traced pass goes through the wrappers the tracer bound there.
A workload's build(seed) returns its ops; run_pass() calls them and
records their latencies (for harness, those of the statements inside
run_all); judge() runs after all timing and returns, per check (an op, or
a harness statement report or digest), None when every call gave the
right outcome or else the reason it is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
import sys
import time

import specs

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "harness_reference.json"

# harness configs cycle through the seeds whose lemma5.1 report (the one
# seeded statement) is stored in the reference file
HARNESS_SEEDS = 64
ACCEPT_ABS_TOL = 1e-8   # ExperimentConfig default abs_tol
ACCEPT_REL_TOL = 1e-6   # ExperimentConfig default rel_tol


class Op:
    """One public call: module.function(*args), and what its check needs."""

    __slots__ = ("module", "function", "args", "expect", "label")

    def __init__(self, module, function, args, expect, label):
        self.module = module
        self.function = function
        self.args = args
        self.expect = expect
        self.label = label

    def __call__(self):
        return getattr(sys.modules["varlp." + self.module], self.function)(*self.args)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def build_harness(seed):
    from varlp.config import ExperimentConfig

    return [Op("verify", "run_all", (ExperimentConfig(seed=seed % HARNESS_SEEDS),),
               None, f"run_all(seed={seed % HARNESS_SEEDS})")]


def report_digest(reports):
    payload = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _close(got, want):
    if isinstance(want, (int, float)) and not isinstance(want, bool) and \
            isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        if math.isinf(want) or math.isinf(got):
            return got == want
        return abs(got - want) <= ACCEPT_ABS_TOL + ACCEPT_REL_TOL * abs(want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))
    return got == want


def check_report(got: dict, want: dict):
    """None when a statement report matches its reference, else the reason."""
    if not got["pass"]:
        return "verdict is not pass"
    for key in ("statement_id", "pass", "empirical_constant", "fitted_exponent"):
        if not _close(got[key], want[key]):
            return f"{key} {got[key]!r} != reference {want[key]!r}"
    if len(got["witnesses"]) != len(want["witnesses"]):
        return "witness count differs from the reference"
    for g, w in zip(got["witnesses"], want["witnesses"]):
        if not _close(g, w):
            return f"witness {g!r} != reference {w!r}"
    return None


def check_harness(reports, seed):
    """Per-statement reasons (13 entries) for one run_all result."""
    ref = json.loads(REFERENCE.read_text())
    cfg_seed = str(seed % HARNESS_SEEDS)
    want = {r["statement_id"]: r for r in ref["seed_independent"]}
    want.update({r["statement_id"]: r for r in ref["seeded"][cfg_seed]})
    got = [r.to_dict() for r in reports]
    ids = [r["statement_id"] for r in got]
    if ids != ref["statement_ids"]:
        return [f"statement ids {ids} differ from the reference"] * len(ref["statement_ids"])
    return [check_report(r, want[r["statement_id"]]) for r in got]


# ---------------------------------------------------------------------------
# norm_solves
# ---------------------------------------------------------------------------

NORM_EXPONENTS = ("const2", "const3", "pw23", "inv_one_plus_abs", "inv_one_plus_sq")


def _domain(kind, value):
    from varlp import FULL_LINE, Ball, DyadicRing

    if kind == "line":
        return FULL_LINE
    if kind == "ball":
        return Ball(value)
    return DyadicRing(value)


def _domain_intervals(kind, value):
    if kind == "line":
        return [(-math.inf, math.inf)]
    if kind == "ball":
        return [(-value, value)]
    inner, outer = 2.0 ** (value - 1), 2.0 ** value
    return [(-outer, -inner), (inner, outer)]


def norm_solve_specs(seed):
    """The op list of one seed as plain tuples (kind, spec, exponent, domain).

    Every seed gets the same number of ops of each kind, exponent and
    domain; the seed draws the intervals, coefficients and tails, and the
    order in which each exponent's ball and ring ops take the domain sizes
    and bank members.  Each catalog member is solved once per exponent on
    the whole line.
    """
    rng = random.Random(seed)
    out = []
    # stratified draws: every seed solves each domain size once per exponent
    # and each of these bank members once per domain, so the seed moves no
    # op between the cheap and the costly end of the list
    sizes = {"ball": [rng.sample([2.0 ** k for k in range(-2, 3)], 5) for _ in NORM_EXPONENTS],
             "ring": [rng.sample(range(-1, 4), 5) for _ in NORM_EXPONENTS]}
    firsts = {dom: rng.sample(("f0_r1", "f0_r4", "ramp_half", "hat", "step_mix"), 5)
              for dom in ("ball", "ring")}
    for e, en in enumerate(NORM_EXPONENTS):
        for name in specs.CATALOG:
            out.append(("norm", ("bank", name), en, ("line", None)))
        for _ in range(8):
            out.append(("norm", specs.random_lincomb(rng), en, ("line", None)))
        out.append(("norm", ("tail", -1.0, rng.choice((0.5, 1.0, 2.0))), en, ("line", None)))
        for dom in ("ball", "ring"):
            for i, value in enumerate(sizes[dom][e]):
                f = ("bank", firsts[dom][e]) if i == 0 else specs.random_lincomb(rng)
                out.append(("norm", f, en, (dom, value)))
            # one small and one large domain
            for lo, hi in ((-3 if dom == "ball" else -2, 0), (1, 3)):
                k = rng.randint(lo, hi)
                out.append(("chi", None, en, (dom, 2.0 ** k if dom == "ball" else k)))
        out.append(("dual", specs.random_lincomb(rng), en, ("line", None)))
        # no scaling puts a function with a flat tail in the space: refused
        refused = ("constant", round(rng.uniform(0.5, 2.0), 3)) if rng.random() < 0.5 \
            else ("sign",)
        out.append(("refuse", refused, en, ("line", None)))
    # the acceptance case: chi_[0,2] with p = 2, 3 has the root of t^3 = t + 1
    out.append(("norm", ("chi", 0.0, 2.0), "pw23", ("line", None)))
    out.extend(KNOWN_DEFECTS)
    return out


# Open defects, kept as they are: each counts as a failed op until the
# program gets it right.  Non-integrable singularities must be refused and
# a tiny function must keep its scale (homogeneity).
KNOWN_DEFECTS = (
    ("refuse", ("power", -1.0), "const2", ("line", None)),
    ("refuse", ("power", -0.6), "const2", ("ball", 1.0)),
    ("norm", ("lincomb", ((1e-300, ("chi", 0.0, 1.0)),)), "const10", ("line", None)),
)


def norm_label(item):
    kind, f, en, (dom, value) = item
    return f"{kind} {f} {en} {dom}={value}"


def build_norm_solves(seed):
    bank = specs.catalog()
    dual_bank = [bank["chi01"], bank["ring1"]]
    exps = {en: specs.build_exponent(en) for en in specs.EXPONENTS}
    ops = []
    for item in norm_solve_specs(seed):
        kind, f, en, (dom, value) = item
        domain = _domain(dom, value)
        label = norm_label(item)
        if kind == "chi":
            ops.append(Op("norms", "chi_norm", (domain, exps[en]), item, label))
        elif kind == "dual":
            ops.append(Op("norms", "dual_pairing_sup",
                          (specs.build_func(f, bank), exps[en], dual_bank), item, label))
        else:
            ops.append(Op("norms", "luxemburg_norm",
                          (specs.build_func(f, bank), exps[en], domain), item, label))
    return ops


def check_norm_solve(op, outcome):
    from oracle import check_norm, clip, conjugate_bracket_constant

    kind, f, en, (dom, value) = op.expect
    exp = specs.EXPONENTS[en]
    if kind == "refuse":
        if isinstance(outcome, BaseException):
            return None if type(outcome).__name__ == "NotInSpaceError" else \
                f"raised {outcome!r} instead of refusing"
        return f"returned {outcome.value!r} where the input must be refused"
    if isinstance(outcome, BaseException):
        return f"raised {outcome!r}"
    f_pieces = [(a, b, 1.0, 0.0) for a, b in _domain_intervals(dom, value)] \
        if kind == "chi" else clip(specs.pieces(f), _domain_intervals(dom, value))
    if kind == "dual":
        lower, upper = outcome
        norm = upper / conjugate_bracket_constant(exp)
        reason = check_norm(f_pieces, exp, norm)
        if reason:
            return "upper bracket / (1 + 1/p- + 1/p+): " + reason
        if not norm * (1.0 - 1e-6) <= lower <= upper:
            return f"bracket ({lower!r}, {upper!r}) misses the extremizer pairing {norm!r}"
        return None
    if not f_pieces:
        return None if outcome.value == 0.0 else f"zero function has norm {outcome.value!r}"
    return check_norm(f_pieces, exp, outcome.value)


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------

POINT_KINDS = ("hardy", "dual_hardy", "commutator_hardy", "commutator_dual_hardy",
               "maximal", "mean_on_ball", "cbmo_classical_norm")
POINT_OPS_PER_KIND = 120
POINT_MODULES = {"mean_on_ball": "funcs", "cbmo_classical_norm": "spaces"}
# query points keep this far from every jump, so the symbol value and the
# smallest maximal-function radius (2^-10) see one piece
JUMP_CLEARANCE = 2.0 ** -8


def _point(rng, pieces_list, stratum, strata):
    """A query point away from every jump, with log2 |x| in the stratum-th
    of strata equal slices of [-3, 4] and the sign alternating over them."""
    jumps = {0.0}
    for ps in pieces_list:
        for a, b, _, _ in ps:
            jumps.update(t for t in (a, b) if math.isfinite(t))
    lo, width = -3.0 + 7.0 * stratum / strata, 7.0 / strata
    sign = 1.0 if stratum % 2 else -1.0
    for tries in range(1000):
        # a slice the jumps cover is left for the whole range
        e = rng.uniform(lo, lo + width) if tries < 100 else rng.uniform(-3.0, 4.0)
        x = sign * 2.0 ** e
        if min(abs(x - s) for s in jumps) > JUMP_CLEARANCE:
            return x
    raise ValueError("no query point clear of the jumps")


def point_query_specs(seed):
    """(kind, f spec, b spec, x, radius, p, grid) tuples of one seed.

    Each kind gets the same number of ops; every other op takes its
    function from the piecewise-constant catalog members in turn, the rest
    are seeded lincombs of intervals.  Points, radii and grids are drawn
    stratified: each kind's ops take the strata in a seeded order, so every
    seed puts as many points inside and outside the functions' supports, and
    the median op does not jump between seeds.
    """
    rng = random.Random(seed)
    out = []
    n = POINT_OPS_PER_KIND
    for kind in POINT_KINDS:
        for i, stratum in enumerate(rng.sample(range(n), n)):
            if i % 2 == 0:
                name = specs.PIECEWISE_CONSTANT[(i // 2) % len(specs.PIECEWISE_CONSTANT)]
                f = ("bank", name)
            else:
                f = specs.random_lincomb(rng)
            b = x = radius = p = grid = None
            if kind.startswith("commutator"):
                b = (("sign",), ("chi", -rng.randint(1, 16) / 8.0, rng.randint(1, 16) / 8.0),
                     specs.random_lincomb(rng, 2))[i % 3]
            if kind in ("hardy", "dual_hardy", "commutator_hardy",
                        "commutator_dual_hardy", "maximal"):
                x = _point(rng, [specs.pieces(f)] + ([specs.pieces(b)] if b else []),
                           stratum, n)
            elif kind == "mean_on_ball":
                radius = 2.0 ** (stratum % 8 - 3)
            else:
                k0 = stratum % 4 - 3
                grid = tuple(2.0 ** k for k in range(k0, k0 + 8))
                p = (1.5, 2.0, 3.0)[stratum % 3]
            out.append((kind, f, b, x, radius, p, grid))
    return out


def build_point_queries(seed):
    from varlp import Ball

    bank = specs.catalog()
    ops = []
    for item in point_query_specs(seed):
        kind, f, b, x, radius, p, grid = item
        fo = specs.build_func(f, bank)
        module = POINT_MODULES.get(kind, "operators")
        if kind.startswith("commutator"):
            args = (specs.build_func(b, bank), fo, x)
        elif kind == "mean_on_ball":
            args = (fo, Ball(radius))
        elif kind == "cbmo_classical_norm":
            args = (fo, p, list(grid))
        else:
            args = (fo, x)
        ops.append(Op(module, kind, args, item, f"{kind} f={f} b={b} x={x}"))
    return ops


def check_point_query(op, outcome):
    from oracle import check_point, point_value

    if isinstance(outcome, BaseException):
        return f"raised {outcome!r}"
    kind, f, b, x, radius, p, grid = op.expect
    want, scale = point_value(kind, specs.pieces(f), x,
                              specs.pieces(b) if b else None, radius, p, grid)
    return check_point(outcome.value, want, scale)


def same_outcome(a, b):
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


class OpListWorkload:
    """A workload whose ops are timed, checked and counted one by one."""

    light_passes = True   # cheap ops may be timed more often than the rest

    def __init__(self, build, check, known=()):
        self.build = build
        self.check = check
        self.known = set(known)

    def sample_count(self, ops):
        return len(ops)

    def op_latencies(self, fastest):
        """Each op's latency from the fastest time of each sample."""
        return fastest

    def run_pass(self, ops, indices, samples, outcomes):
        """Call ops[i] for i in indices, in order; record latency and outcome."""
        clock = time.perf_counter
        for i in indices:
            op = ops[i]
            t0 = clock()
            try:
                res = op()
            except Exception as exc:  # a refusal is an outcome the check judges
                res = exc
            samples[i].append(clock() - t0)
            outcomes[i].append(res)

    def judge(self, ops, outcomes, seed):
        """One check per op: its first outcome against the oracle, and every
        later call's outcome against the first."""
        verdicts = []
        for op, outs in zip(ops, outcomes):
            reason = self.check(op, outs[0])
            if reason is None and not all(same_outcome(o, outs[0]) for o in outs[1:]):
                reason = "outcome differs from the first call"
            verdicts.append(None if reason is None else f"{op.label}: {reason}")
        return verdicts

    def known_defect(self, reason):
        return reason.split(": ", 1)[0] in self.known

    def details(self, outcomes, seed):
        return {}


class StatementTimer:
    """Times every verify.run_statement call while installed: run_all looks
    the function up in its module, so each of its statements is timed."""

    def __init__(self, samples):
        self.samples = samples
        self.index = {sid: k for k, sid in
                      enumerate(sys.modules["varlp.verify"].STATEMENT_IDS)}

    def __enter__(self):
        verify = sys.modules["varlp.verify"]
        self.inner = inner = verify.run_statement
        clock, samples, index = time.perf_counter, self.samples, self.index

        def timed(statement_id, cfg, **kwargs):
            t0 = clock()
            try:
                return inner(statement_id, cfg, **kwargs)
            finally:
                samples[index[statement_id]].append(clock() - t0)

        verify.run_statement = timed
        return self

    def __exit__(self, *exc):
        sys.modules["varlp.verify"].run_statement = self.inner


class HarnessWorkload:
    """run_all is the one op; its 13 statements are the timed samples.
    There are 14 checks: the 13 statement reports, and the SHA-256 of the
    whole report against the one stored for the config seed; a check fails
    when any run_all call fails it."""

    build = staticmethod(build_harness)
    light_passes = False

    def sample_count(self, ops):
        return len(sys.modules["varlp.verify"].STATEMENT_IDS)

    def op_latencies(self, fastest):
        """run_all's latency: the sum of its statements' fastest times."""
        return [sum(fastest)]

    def run_pass(self, ops, indices, samples, outcomes):
        with StatementTimer(samples):
            try:
                res = ops[0]()
            except Exception as exc:
                res = exc
        outcomes[0].append(res)

    def judge(self, ops, outcomes, seed):
        ids = sys.modules["varlp.verify"].STATEMENT_IDS
        want_sha = json.loads(REFERENCE.read_text())["sha256"][str(seed % HARNESS_SEEDS)]
        first = outcomes[0][0]
        reasons = [None] * (len(ids) + 1)
        for reports in outcomes[0]:
            if isinstance(reports, BaseException):
                row = [f"run_all raised {reports!r}"] * (len(ids) + 1)
            else:
                row = check_harness(reports, seed)
                if reports is not first and not isinstance(first, BaseException):
                    # a report that changes between calls breaks determinism
                    # even when it stays within tolerance of the reference
                    row = [r or (None if a.to_dict() == b.to_dict() else
                                 "report differs from the first call")
                           for r, a, b in zip(row, reports, first)]
                sha = report_digest(reports)
                row.append(None if sha == want_sha else f"{sha} != reference {want_sha}")
            reasons = [a or b for a, b in zip(reasons, row)]
        labels = list(ids) + ["report sha256"]
        return [None if r is None else f"{label}: {r}" for label, r in zip(labels, reasons)]

    def known_defect(self, reason):
        return False

    def details(self, outcomes, seed):
        digests = sorted({report_digest(r) for r in outcomes[0]
                          if not isinstance(r, BaseException)})
        return {"config_seed": seed % HARNESS_SEEDS, "report_sha256": digests}


WORKLOADS = {
    "harness": HarnessWorkload(),
    "norm_solves": OpListWorkload(build_norm_solves, check_norm_solve,
                                  [norm_label(d) for d in KNOWN_DEFECTS]),
    "point_queries": OpListWorkload(build_point_queries, check_point_query),
}
