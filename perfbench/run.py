#!/usr/bin/env python3
"""Benchmark for varlp: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload norm_solves --seed 3 --seconds 40 --trace 0

Run from the repository root; varlp is imported from ./src.  The workload's
op list (workloads.py) is built from the seed and timed in cycles while
the next cycle fits in the time budget (at least two).  A cycle is one
full pass over the ops, then, for the op-list workloads, light passes over
the cheap ops for half as long again, so that the ops that set the median
get several times more samples.  Every outcome is checked against
independent oracles after the clock stops.  The last line of output is
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 full
passes run untraced and under the layer tracer (layertrace.py),
alternating, at least twice each and while the next pair fits in the
budget, and the metrics are the per-layer ones of the first traced pass.
Full and light passes take turns on the CPUs the process may use.
The line before it holds the details (tail percentile and sample count,
report digest, failures); the traced pass writes its spans to
.perfbench_out/.

Exit code 2, with no result line, when ./src/varlp is not there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_FIRST = 5    # set-ups before timing; SETUP_PER_CYCLE more after each cycle
SETUP_PER_CYCLE = 3
TAIL_BEYOND = 10   # samples a tail percentile must leave above it
MAX_LISTED_FAILURES = 20
MIN_CYCLES = 2     # so that every op has more than one sample to take the fastest of
MIN_TRACE_PASSES = 2   # untraced and traced passes each, alternating
LIGHT_FACTOR = 4.0     # an op is light when its fastest latency is at most this many medians
LIGHT_SHARE = 0.5      # light passes per cycle last this share of the cycle's full pass


def is_varlp(name):
    return name == "varlp" or name.startswith("varlp.")


def set_up(build, seed):
    """Time one set-up: drop every loaded varlp module, import varlp afresh
    and build the inputs from the seed.  Returns (seconds, varlp, ops)."""
    t0 = time.perf_counter()
    for name in [n for n in sys.modules if is_varlp(n)]:
        del sys.modules[name]
    varlp = importlib.import_module("varlp")
    ops = build(seed)
    return time.perf_counter() - t0, varlp, ops


def spare_set_ups(build, seed, times, count):
    """Time count more set-ups and put the live varlp modules back, so the
    ops already built keep calling the modules they were built against."""
    live = {n: m for n, m in sys.modules.items() if is_varlp(n)}
    try:
        for _ in range(count):
            times.append(set_up(build, seed)[0])
    finally:
        for name in [n for n in sys.modules if is_varlp(n)]:
            del sys.modules[name]
        sys.modules.update(live)
        gc.collect()


class CpuRotation:
    """Pins this process to each CPU it may use in turn, one pass at a time.

    On a shared host one core can sit in a slowed state for seconds while
    the other is fast, and the scheduler seldom moves a lone busy thread,
    so every sample's calls are spread over the cores as well as over time.
    Only this process's own affinity is changed, and restore() puts the
    original mask back."""

    def __init__(self):
        self.mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
        self.cycle = itertools.cycle(sorted(self.mask)) if self.mask else None

    def next(self):
        if self.cycle is not None:
            try:
                os.sched_setaffinity(0, {next(self.cycle)})
            except OSError:   # pinning refused: leave placement to the scheduler
                self.cycle = None

    def restore(self):
        if self.mask is not None:
            try:
                os.sched_setaffinity(0, self.mask)
            except OSError:
                pass


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def tail(samples):
    """(value, percentile) of the highest percentile that leaves
    TAIL_BEYOND samples above it.  With 2 * TAIL_BEYOND samples or fewer
    that percentile would sit below the median, so the maximum is used."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("harness", "norm_solves", "point_queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "varlp" / "__init__.py").is_file():
        print(f"error: {SRC / 'varlp'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    # set-up is timed several times before timing and after each cycle, and
    # its fastest time reported, for the same reason as op latencies: a
    # stretch of outside load only ever slows a set-up down
    setup_times = []
    spare_set_ups(wl.build, args.seed, setup_times, SETUP_FIRST - 1)
    t_setup, varlp, ops = set_up(wl.build, args.seed)
    setup_times.append(t_setup)
    if not pathlib.Path(varlp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"varlp was imported from {varlp.__file__}, not from {SRC}")
    every = range(len(ops))
    outcomes = [[] for _ in ops]
    # latency samples per op (per statement for harness), in call order
    samples = [[] for _ in range(wl.sample_count(ops))]
    pass_s: list[float] = []

    cpus = CpuRotation()
    try:
        if args.trace:
            import layertrace

            traced = [[] for _ in samples]
            traced_s: list[float] = []
            tracer = None   # the first traced pass's, whose counters are reported
            t_start = time.perf_counter()
            while True:
                cpus.next()   # both passes of a pair on one CPU
                pass_s.append(timed(wl.run_pass, ops, every, samples, outcomes))
                t = layertrace.Tracer()
                t.install()
                try:
                    traced_s.append(timed(wl.run_pass, ops, every, traced, outcomes))
                finally:
                    t.uninstall()
                if tracer is None:
                    tracer = t
                elapsed = time.perf_counter() - t_start
                if len(traced_s) >= MIN_TRACE_PASSES and elapsed + statistics.median(
                        pass_s) + statistics.median(traced_s) > args.seconds:
                    break
        else:
            cycle_s: list[float] = []
            light: list[int] = []
            light_passes = 0
            t_start = time.perf_counter()
            while True:
                t_cycle = time.perf_counter()
                cpus.next()
                pass_s.append(timed(wl.run_pass, ops, every, samples, outcomes))
                if len(pass_s) == 1 and wl.light_passes:
                    first = [s[0] for s in samples]
                    cut = LIGHT_FACTOR * statistics.median(first)
                    light = [i for i in every if first[i] <= cut]
                t_light = time.perf_counter()
                while light and time.perf_counter() - t_light < LIGHT_SHARE * pass_s[-1]:
                    cpus.next()
                    wl.run_pass(ops, light, samples, outcomes)
                    light_passes += 1
                cycle_s.append(time.perf_counter() - t_cycle)
                spare_set_ups(wl.build, args.seed, setup_times, SETUP_PER_CYCLE)
                elapsed = time.perf_counter() - t_start
                if len(cycle_s) >= MIN_CYCLES and \
                        elapsed + statistics.median(cycle_s) > args.seconds:
                    break
    finally:
        cpus.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # everything below runs after the clock has stopped
    verdicts = wl.judge(ops, outcomes, args.seed)   # per check: reason or None
    attempted = len(verdicts)
    failures = sorted(r for r in verdicts if r is not None)
    failed = len(failures)
    unexpected = [r for r in failures if not wl.known_defect(r)]
    details = {
        "workload": args.workload, "seed": args.seed, "full_passes": len(pass_s),
        "calls": sum(len(o) for o in outcomes), "checks": attempted,
        "known_defect_failures": failed - len(unexpected),
        "setup_repeats": len(setup_times), "failures": failures[:MAX_LISTED_FAILURES],
        **wl.details(outcomes, args.seed),
    }

    def best(lat):
        return [min(s) for s in lat]

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = tracer.layer_metrics(traced_s[0], sys.modules["varlp.verify"].STATEMENT_IDS)
        # wall_s traced over wall_s untraced, each from per-sample fastest latencies
        metrics["trace.overhead_frac"] = (sum(best(traced)) / sum(best(samples)) - 1.0, "frac")
        details["spans"] = tracer.span_count()
        details["layer_self_s"] = {k: round(v, 6) for k, v in sorted(tracer.self_s.items())}
        details["untraced_wall_s"] = pass_s
        details["traced_wall_s"] = traced_s
    else:
        # Contention from other tenants only ever slows an op, at times by a
        # half for seconds on end, so each op's fastest latency in the run
        # is the steadiest estimate of its cost (for harness, the sum of
        # its statements' fastest times).  Ops run back to back, so the op
        # list's wall time is the sum over its ops.
        fastest = best(samples)
        op_s = wl.op_latencies(fastest)
        tail_s, tail_pct = tail(op_s)
        details.update(samples=len(fastest), tail_samples=len(op_s), tail_percentile=tail_pct,
                       light_ops=len(light), light_passes=light_passes,
                       pass_s=pass_s, cycle_s=cycle_s)
        metrics = {
            "setup_s": (min(setup_times), "s"),
            "wall_s": (sum(op_s), "s"),
            "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "success_frac": (1.0 - failed / attempted, "frac"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(details))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
