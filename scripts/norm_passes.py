#!/usr/bin/env python3
"""Print the work of one norm_solves seed per (op kind, exponent) class.

    python3 scripts/norm_passes.py --seed 2801 [--repeat 3]

Run it from a checkout's root; it imports varlp from ./src and the workload
definitions from ./perfbench (read only), so the same script run from two
roots compares their counters.  Every op of the seed's list is called
``--repeat`` times unwrapped, for its fastest time, and once more with
counters wrapped around ``norms._modular_passes`` (every modular pass) and
``norms._search`` (every bracket-and-bisect run), and around
``norms._bisect`` to tell one Luxemburg solve from the next (a dual op
runs several), and around ``quadrature._gk15`` (every GK15 panel
evaluated, not those read from a mirror); the passes that kept their
final quadrature panels for the solve's model, and the panels kept, are
read from the ``passes`` dict each pass fills.  A solve falls back when it runs a search after a
model-guided one (``norms._guided``) gave out; on a checkout without
``_guided``, when it runs a second search.  For each class, and for each
exponent over its classes, it prints the ops, passes, searches, solves
that fell back, the passes that kept panels, the panels kept, the GK15
panels evaluated and the sum of the ops' fastest times in ms; the last
line of output is one JSON object with the same table.  Standard library only.
"""

import argparse
import json
import pathlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = pathlib.Path.cwd()
FIELDS = ("ops", "passes", "searches", "fallbacks", "kept_passes", "kept_panels",
          "gk15_panels", "fastest_ms")


@contextmanager
def counted(norms, quadrature, counts):
    """Count passes, searches, solves that fell back, passes that kept
    panels, the panels kept and the GK15 panels evaluated while inside."""
    make, search, bisect = norms._modular_passes, norms._search, norms._bisect
    gk15 = quadrature._gk15
    guided = getattr(norms, "_guided", None)
    solve = {"searches": 0, "guided": 0}

    def passes(*args):
        rho, kept = make(*args), args[-1]  # the solve's panels per lam

        def one(lam):
            counts["passes"] += 1
            try:
                return rho(lam)
            finally:
                panels = kept.get(lam)
                if panels is not None:
                    counts["kept_passes"] += 1
                    counts["kept_panels"] += len(panels)

        return one

    def panel(*args):
        counts["gk15_panels"] += 1
        return gk15(*args)

    def searched(*args):
        counts["searches"] += 1
        solve["searches"] += 1
        return search(*args)

    def guided_run(*args):
        solve["guided"] += 1
        return guided(*args)

    def bisected(*args):
        solve.update(searches=0, guided=0)
        try:
            return bisect(*args)
        finally:
            counts["fallbacks"] += (solve["searches"] > solve["guided"] > 0
                                    if guided is not None else solve["searches"] >= 2)

    saved = {"_modular_passes": make, "_search": search, "_bisect": bisect}
    wrapped = {"_modular_passes": passes, "_search": searched, "_bisect": bisected}
    if guided is not None:
        saved["_guided"], wrapped["_guided"] = guided, guided_run
    for name, fn in wrapped.items():
        setattr(norms, name, fn)
    quadrature._gk15 = panel
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(norms, name, fn)
        quadrature._gk15 = gk15


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    if not (ROOT / "src" / "varlp" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'varlp'} not found; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from varlp import norms, quadrature

    ops = workloads.WORKLOADS["norm_solves"].build(args.seed)
    table = defaultdict(lambda: dict.fromkeys(FIELDS, 0))
    for op in ops:
        kind, _, en, _ = op.expect
        fastest = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            try:
                op()
            except Exception:  # a refusal is an outcome too
                pass
            fastest = min(fastest, time.perf_counter() - t0)
        counts = dict.fromkeys(FIELDS[1:-1], 0)
        with counted(norms, quadrature, counts):
            try:
                op()
            except Exception:
                pass
        for name in (f"{kind} {en}", f"all {en}", "total"):
            row = table[name]
            row["ops"] += 1
            for k in FIELDS[1:-1]:
                row[k] += counts[k]
            row["fastest_ms"] += 1e3 * fastest
    print(f"{'class':28s}" + "".join(f"{k:>12s}" for k in FIELDS))
    for name in sorted(table, key=lambda n: (n == "total", n.startswith("all"), n)):
        row = table[name]
        print(f"{name:28s}" + "".join(f"{row[k]:12d}" for k in FIELDS[:-1])
              + f"{row['fastest_ms']:12.2f}")
    print(json.dumps({"seed": args.seed, "classes": table}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
