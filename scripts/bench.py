#!/usr/bin/env python3
"""Run the perfbench workloads on two checkouts in alternating pairs and
write a BENCH_<n>.json that compares them.

    python3 scripts/bench.py --parent ../parent --change . --out BENCH_7.json \
        --workload harness --pairs 10 --first-seed 400 [--trace-seed 111]

Each checkout runs its own, unchanged ``perfbench/run.py`` from its root
(``--seconds`` as BENCHMARK.json sets it, ``--trace 0``), one process at a
time.  Pair i uses seed first_seed + i for both sides; even pairs run the
parent first, odd pairs the change.  For every end-to-end metric the file
holds each side's per-run values, median and quartiles, and how many pairs
the change won, lost and tied (by the metric's "better" direction in
BENCHMARK.json), whether the gain rule holds (the change wins at least
nine tenths of the pairs and the medians differ by more than the parent's
quartile distance), and whether the change's median is within the
metric's bound: no worse than the parent's by more than that relative
"bound" in BENCHMARK.json.  The file also records each side's line count
of ``src/varlp/*.py``.  ``--trace-seed`` adds one ``--trace 1``
harness run per side, whose per-layer counters should match exactly when
a change does the same work.  Each run also records the machine's load
averages (``os.getloadavg()``) just before and just after it, and each
workload the median 1-minute load of each side's readings, so a loaded
machine shows in the file itself.  The file is rewritten after each workload.
Standard library only.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def tree_digest(root: pathlib.Path) -> str:
    """SHA-256 over the benchmark's own files, to show both sides ran the
    same benchmark code."""
    h = hashlib.sha256()
    for p in sorted((root / "perfbench").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "details": json.loads(lines[-2])}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "values": values}


def src_lines(root: pathlib.Path) -> dict:
    """Line count of each ``src/varlp/*.py`` file and their total."""
    counts = {p.name: len(p.read_text().splitlines())
              for p in sorted((root / "src" / "varlp").glob("*.py"))}
    return {"files": counts, "total": sum(counts.values())}


def rel_worse(par: float, chg: float, better: str) -> float:
    """How much worse the change's value is, relative to the parent's
    (negative when it is better): chg/par - 1 for "lower", par/chg - 1 for
    "higher"."""
    num, den = (chg, par) if better == "lower" else (par, chg)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den - 1.0


def compare(runs: dict, metrics: dict) -> dict:
    """Per-metric medians, quartiles, pair wins and bound check of the change,
    for the BENCHMARK.json end-to-end metrics given by name."""
    out = {}
    for name, metric in metrics.items():
        better = metric["better"]
        vals = {s: [r["metrics"][name] for r in runs[s]] for s in SIDES}
        sign = 1.0 if better == "lower" else -1.0
        gains = [sign * (p - c) for p, c in zip(vals["parent"], vals["change"])]
        par, chg = spread(vals["parent"]), spread(vals["change"])
        wins = sum(g > 0 for g in gains)
        out[name] = {
            "better": better, "parent": par, "change": chg,
            "change_wins": wins, "parent_wins": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "median_rel_change": chg["median"] / par["median"] - 1.0
            if par["median"] else None,
            "gain_rule_met": wins >= 0.9 * len(gains)
            and sign * (par["median"] - chg["median"]) > par["q3"] - par["q1"],
            "bound": metric["bound"],
            "within_bound": rel_worse(par["median"], chg["median"], better)
            <= metric["bound"],
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=pathlib.Path, required=True)
    ap.add_argument("--change", type=pathlib.Path, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    choices=("harness", "norm_solves", "point_queries"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--trace-seed", type=int, default=None)
    args = ap.parse_args()

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = {}
    bench = {
        "command": spec["command"] + ["--seconds", seconds, "--trace", 0],
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": len(os.sched_getaffinity(0))},
        "perfbench_sha256": {s: tree_digest(r) for s, r in roots.items()},
        "src_lines": {s: src_lines(r) for s, r in roots.items()},
        "workloads": workloads,
    }
    for wl in args.workload:
        runs = {s: [] for s in SIDES}
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                load_before = os.getloadavg()
                run = run_once(roots[side], wl, seed, seconds, 0)
                run["load_before"], run["load_after"] = load_before, os.getloadavg()
                run["first"] = side == SIDES[i % 2]
                runs[side].append(run)
                print(f"{wl} seed {seed} {side}: wall_s {run['metrics']['wall_s']:.3f} "
                      f"correct {run['correct']}", file=sys.stderr, flush=True)
        workloads[wl] = {"pairs": args.pairs, "seeds": [args.first_seed + i
                                                        for i in range(args.pairs)],
                         "load_1min_median": {s: statistics.median(
                             load[0] for r in runs[s]
                             for load in (r["load_before"], r["load_after"]))
                             for s in SIDES},
                         "summary": compare(runs, metrics), "runs": runs}
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    if args.trace_seed is not None:
        bench["trace"] = {"workload": "harness", "seed": args.trace_seed, **{
            s: run_once(roots[s], "harness", args.trace_seed, seconds, 1)
            for s in SIDES}}
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
