#!/usr/bin/env python3
"""Print the digest of one perfbench workload's outcomes, to compare the
outcomes of two checkouts bit for bit.

    python3 scripts/outcome_digest.py --workload norm_solves --seed 2801

Run it from a checkout's root; it imports varlp from ./src and the workload
definitions from ./perfbench (read only), so the same script run from two
roots compares their outcomes.  For norm_solves and point_queries it calls
every op of the seed's list once, in order, and prints the SHA-256 over
the ``repr`` of each outcome (a result, or the exception an op raised),
one per line.  For the harness it runs ``verify.run_all`` on the seed's
config and prints the report's SHA-256, the one stored for that config
seed in ``perfbench/reference/harness_reference.json``, and whether they
are equal.  The last line of output is one JSON object with these fields.
Standard library only.
"""

import argparse
import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path.cwd()


def op_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        try:
            outcome = op()
        except Exception as exc:  # a refusal is an outcome too
            outcome = exc
        h.update(repr(outcome).encode() + b"\n")
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("harness", "norm_solves", "point_queries"))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "varlp" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'varlp'} not found; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    ops = workloads.WORKLOADS[args.workload].build(args.seed)
    out = {"workload": args.workload, "seed": args.seed}
    if args.workload == "harness":
        reports = ops[0]()
        stored = json.loads(workloads.REFERENCE.read_text())["sha256"]
        out["config_seed"] = args.seed % workloads.HARNESS_SEEDS
        out["report_sha256"] = workloads.report_digest(reports)
        out["stored_sha256"] = stored[str(out["config_seed"])]
        out["equal"] = out["report_sha256"] == out["stored_sha256"]
        out["passed"] = sum(r.passed for r in reports)
        out["statements"] = len(reports)
    else:
        out["ops"] = len(ops)
        out["outcome_sha256"] = op_digest(ops)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
