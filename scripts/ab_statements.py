#!/usr/bin/env python3
"""Time the harness statements of two checkouts in one process, interleaved.

    python3 scripts/ab_statements.py --parent ../parent --change . [--seed 7 --rounds 8]

Each checkout's ``src/varlp`` is loaded under its own package name
(``varlp_parent``, ``varlp_change``), so both live side by side.  A round
runs every statement of ``verify.STATEMENT_IDS`` in order, one side after
the other for each statement, with a fresh sweep memo per side and round
as ``run_all`` keeps one (so the second statement of a paired sweep reads
the first one's reports); the side that goes first flips every round.
Interleaving at the statement level puts both sides under the same load,
so the comparison holds on a busy machine where separate runs drift.

After the timed rounds, one untimed round per side counts the work: it
wraps that side's ``quadrature._gk15``, ``OperatorImage._compute``,
``norms._modular_passes``, ``norms._search``, the quadrature calls of
the passes (``norms.integrate_ball`` and ``norms.integrate_shell``) and
the ``ball`` and ``tail`` reads of ``operators._ShellTable``, and runs
every statement once more.  Prints each side's fastest time per
statement over the rounds, its GK15 panels, computed image points,
modular passes and bisection searches (more searches than solves means
exact reruns), the passes that kept their final quadrature panels for
the solve's model (those that handed quadrature a ``panels`` list) and
the panels they kept, and its shell-table reads; the sums and the
change/parent ratio of the times, whether the two sides' reports were
equal in every round, and whether each side's reports hashed in every
round to the SHA-256 its checkout's
``perfbench/reference/harness_reference.json`` stores for the seed (read
only).  The counters repeat exactly from run to run, so they show a
change in work where the times are noisy.  Standard library only.
"""

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import pathlib
import sys
import time

SIDES = ("parent", "change")


def load(root: pathlib.Path, name: str):
    """Import root/src/varlp as the package ``name``; returns its verify,
    config, quadrature, operators and norms modules."""
    pkg = root / "src" / "varlp"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{name}.{sub}")
                 for sub in ("verify", "config", "quadrature", "operators", "norms"))


def stored_digest(root: pathlib.Path, seed: int):
    """The report SHA-256 the checkout stores for the seed, or None."""
    ref = root / "perfbench" / "reference" / "harness_reference.json"
    if not ref.is_file():
        return None
    return json.loads(ref.read_text()).get("sha256", {}).get(str(seed))


def report_digest(reports) -> str:
    """SHA-256 of a round's reports, as the benchmark hashes run_all's."""
    payload = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def count_work(verify, config, quadrature, operators, norms,
               seed: int) -> list[tuple[int, ...]]:
    """(GK15 panels, computed image points, modular passes, searches,
    passes that kept panels, panels kept, shell-table reads) per statement
    of one untimed round, with one sweep memo as run_all keeps."""
    counts = [0] * 7
    gk15, compute = quadrature._gk15, operators.OperatorImage._compute
    make, search = norms._modular_passes, norms._search
    integrals = {name: getattr(norms, name) for name in ("integrate_ball",
                                                         "integrate_shell")}
    table = operators._ShellTable
    reads = {name: getattr(table, name) for name in ("ball", "tail")}
    kept = []  # whether the running pass handed quadrature a panels list

    def counted_gk15(fn, a, b):
        counts[0] += 1
        return gk15(fn, a, b)

    def counted_compute(image, x):
        counts[1] += 1
        return compute(image, x)

    def counted_passes(*args):
        rho = make(*args)

        def counted(*pass_args):
            counts[2] += 1
            kept.clear()
            try:
                return rho(*pass_args)
            finally:
                counts[4] += bool(kept)

        return counted

    def counted_integral(integrate):
        def counted(*args, panels=None, **kwargs):
            before = len(panels) if panels is not None else 0
            try:
                return integrate(*args, panels=panels, **kwargs)
            finally:
                if panels is not None:
                    kept.append(True)
                    counts[5] += len(panels) - before

        return counted

    def counted_search(*args):
        counts[3] += 1
        return search(*args)

    def counted_read(read):
        def counted(tab, t):
            counts[6] += 1
            return read(tab, t)

        return counted

    quadrature._gk15 = counted_gk15
    operators.OperatorImage._compute = counted_compute
    norms._modular_passes = counted_passes
    norms._search = counted_search
    for name, integrate in integrals.items():
        setattr(norms, name, counted_integral(integrate))
    for name, read in reads.items():
        setattr(table, name, counted_read(read))
    try:
        cfg, memo, out = config.ExperimentConfig(seed=seed), {}, []
        for sid in verify.STATEMENT_IDS:
            counts[:] = [0] * 7
            verify.run_statement(sid, cfg, memo=memo)
            out.append(tuple(counts))
        return out
    finally:
        quadrature._gk15 = gk15
        operators.OperatorImage._compute = compute
        norms._modular_passes = make
        norms._search = search
        for name, integrate in integrals.items():
            setattr(norms, name, integrate)
        for name, read in reads.items():
            setattr(table, name, read)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=pathlib.Path, required=True)
    ap.add_argument("--change", type=pathlib.Path, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=8)
    args = ap.parse_args()

    roots = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    mods = {side: load(roots[side], f"varlp_{side}") for side in SIDES}
    stored = {side: stored_digest(roots[side], args.seed) for side in SIDES}
    digests = {side: set() for side in SIDES}
    ids = mods["parent"][0].STATEMENT_IDS
    if mods["change"][0].STATEMENT_IDS != ids:
        raise SystemExit("the two checkouts register different statements")
    best = {side: [float("inf")] * len(ids) for side in SIDES}
    same = True
    for rnd in range(args.rounds):
        order = SIDES if rnd % 2 == 0 else SIDES[::-1]
        cfgs = {side: mods[side][1].ExperimentConfig(seed=args.seed) for side in SIDES}
        memos = {side: {} for side in SIDES}
        rounds = {side: [] for side in SIDES}
        for k, sid in enumerate(ids):
            reports = {}
            for side in order:
                verify = mods[side][0]
                gc.collect()
                t0 = time.perf_counter()
                reports[side] = verify.run_statement(sid, cfgs[side], memo=memos[side])
                best[side][k] = min(best[side][k], time.perf_counter() - t0)
                rounds[side].append(reports[side])
            same = same and reports["parent"].to_dict() == reports["change"].to_dict()
        for side in SIDES:
            digests[side].add(report_digest(rounds[side]))
        print(f"round {rnd + 1}/{args.rounds} done", file=sys.stderr, flush=True)
    work = {side: count_work(*mods[side], args.seed) for side in SIDES}

    counters = ("panels", "points", "passes", "searches", "kept_passes", "kept_panels",
                "table_reads")
    print(f"{'statement':<26} {'parent_s':>9} {'change_s':>9} {'ratio':>7} "
          + " ".join(f"{side + '_' + name:>18}" for name in counters for side in SIDES))

    def row(label, p, c, parent_work, change_work):
        cells = " ".join(f"{n:18d}" for pair in zip(parent_work, change_work)
                         for n in pair)
        print(f"{label:<26} {p:9.4f} {c:9.4f} {c / p if p else float('nan'):7.3f} {cells}")

    for k, sid in enumerate(ids):
        row(sid, best["parent"][k], best["change"][k], work["parent"][k],
            work["change"][k])
    totals = {side: [sum(col) for col in zip(*work[side])] for side in SIDES}
    row("sum", sum(best["parent"]), sum(best["change"]), totals["parent"],
        totals["change"])
    print(f"reports equal in every round: {'yes' if same else 'NO'}")
    for side in SIDES:
        if stored[side] is None:
            verdict = f"no stored digest for seed {args.seed}"
        else:
            verdict = "yes" if digests[side] == {stored[side]} else "NO"
        print(f"{side} reports hash to the stored seed-{args.seed} digest "
              f"in every round: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
