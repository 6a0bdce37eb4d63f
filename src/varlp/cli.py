"""Command-line entry point.

Subcommands: norm, op, cbmo, herz, verify, report.  Results go to stdout in
human-readable form; --json and --csv write machine-readable copies.  Exit
codes: 0 success, 1 configuration or usage error, 2 when a verify run
completed but at least one mathematical check failed (so CI can tell
infrastructure failures from statement failures).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import partial
from typing import Optional, Sequence

from .config import ConfigError, ExperimentConfig
from .exponents import log_holder_check
from .geometry import FULL_LINE, Ball, DyadicRing
from .norms import NormResult, luxemburg_norm, modular
from .operators import OperatorImage, maximal
from .spaces import (cbmo_classical_norm, cbmo_inf_norm, cbmo_var_norm,
                     default_radius_grid, herz_norm)
from .verify import STATEMENT_IDS, run_all, run_statement, summary_table


def _load_config(path: Optional[str]) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return ExperimentConfig.from_json_file(path)


def _parse_domain(text: str):
    if text == "line":
        return FULL_LINE
    if text.startswith("ball:"):
        return Ball(float(text.split(":", 1)[1]))
    if text.startswith("ring:"):
        return DyadicRing(int(text.split(":", 1)[1]))
    raise ConfigError(f"bad --domain {text!r}; use line, ball:R, or ring:K")


def _write_json(path: Optional[str], payload) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_csv(path: Optional[str], header: Sequence[str], rows) -> None:
    if path:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def _norm_payload(res: NormResult, tol: float) -> dict:
    return {
        "value": res.value,
        "abs_error_bound": res.abs_error_bound,
        "bisection_iters": res.bisection_iters,
        "bracket": list(res.bracket),
        "tol": tol,
    }


def _cmd_norm(args) -> int:
    cfg = _load_config(args.config)
    f = cfg.func(args.f)
    e = cfg.exponent(args.p)
    domain = _parse_domain(args.domain)
    tol = args.tol if args.tol is not None else cfg.tol
    res = luxemburg_norm(f, e, domain)
    print(f"luxemburg norm of {args.f} under {args.p}: {res.value:.12g}")
    print(f"  modular at unit scale: {modular(f, e, domain, tol=tol):.12g}"
          if res.value > 0 else "  zero element")
    _write_json(args.json, _norm_payload(res, tol))
    return 0


# the OperatorImage kind of each image the op command samples
_IMAGE_KINDS = {"hardy": "hardy", "dual_hardy": "dual_hardy",
                "commutator": "commutator_hardy",
                "commutator_dual": "commutator_dual_hardy"}


def _cmd_op(args) -> int:
    cfg = _load_config(args.config)
    f = cfg.func(args.f)
    b = cfg.func(args.b) if args.b else None
    if args.kind.startswith("commutator") != (b is not None):
        raise ConfigError("--b SYMBOL is required for the commutator kinds, and "
                          f"only they take one (kind {args.kind!r})")
    tol = args.tol if args.tol is not None else cfg.tol
    xs = [float(t) for t in args.points.split(",")]
    # one image serves every point, so its tables are built once
    sample = (partial(maximal, f, tol=tol) if args.kind == "maximal" else
              OperatorImage(_IMAGE_KINDS[args.kind], f, b=b, tol=tol).sample)
    rows = []
    for x in xs:
        s = sample(x)
        rows.append((s.x, s.value, s.abs_error_bound))
        print(f"{args.kind}({args.f})({x:g}) = {s.value:.12g}  "
              f"(err <= {s.abs_error_bound:.3g})")
    _write_csv(args.csv, ("x", "value", "abs_error_bound"), rows)
    payload = {"kind": args.kind, "f": args.f, "b": args.b, "tol": tol,
               "samples": [list(r) for r in rows]}
    if args.kind == "maximal":
        # values are ball averages; the r^(-1)-normalized convention is
        # larger by exactly 2, the measure of the unit ball
        payload["rpow_normalization_factor"] = 2.0
    _write_json(args.json, payload)
    return 0


def _cmd_cbmo(args) -> int:
    cfg = _load_config(args.config)
    f = cfg.func(args.f)
    tol = args.tol if args.tol is not None else cfg.tol
    grid = default_radius_grid(args.kmin, args.kmax)
    if args.variant == "classical":
        res = cbmo_classical_norm(f, args.p_classical, grid, tol=tol)
        label = f"classical p={args.p_classical:g}"
    else:
        e = cfg.exponent(args.p)
        if args.variant == "var":
            res = cbmo_var_norm(f, e, grid, tol=tol)
        else:
            res = cbmo_inf_norm(f, e, grid)
        label = f"{args.variant} under {args.p}"
    print(f"central oscillation norm ({label}) of {args.f}: {res.value:.10g}")
    if res.diverged:
        slope, r2 = res.divergence_fit
        print(f"  divergent sweep: top-decade slope {slope:.4f} (r2={r2:.4f})")
    _write_csv(args.csv, ("radius", "contribution"), res.breakdown)
    _write_json(args.json, {"value": res.value, "diverged": res.diverged,
                            "divergence_fit": res.divergence_fit,
                            "breakdown": [list(t) for t in res.breakdown],
                            "tol": tol})
    return 0


def _cmd_herz(args) -> int:
    cfg = _load_config(args.config)
    e = cfg.exponent(args.p)
    k_range = range(args.kmin, args.kmax + 1)
    if args.vector:
        from .spaces import herz_norm_vector
        fs = [cfg.func(name) for name in args.vector.split(",")]
        res = herz_norm_vector(fs, args.lr, e, args.alpha, args.q, k_range)
        what = f"l^{args.lr:g} aggregate of {args.vector}"
    else:
        res = herz_norm(cfg.func(args.f), e, args.alpha, args.q, k_range)
        what = args.f
    print(f"Herz norm (alpha={args.alpha:g}, q={args.q:g}) of {what}: "
          f"{res.value:.10g}  (tail bound {res.tail_bound:.3g})")
    _write_csv(args.csv, ("ring_scale", "contribution"), res.breakdown)
    _write_json(args.json, {"value": res.value, "tail_bound": res.tail_bound,
                            "breakdown": [list(t) for t in res.breakdown]})
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol is not None:
        cfg.tol = args.tol
    if args.p0 is not None:
        cfg.grids["counterexample_p0"] = [args.p0]
    if args.all:
        reports = run_all(cfg)
    elif args.statement:
        try:
            reports = [run_statement(args.statement, cfg)]
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError("verify needs --all or --statement ID")
    print(summary_table(reports))
    for r in reports:
        if r.fitted_exponent is not None:
            print(f"{r.statement_id}: fitted exponent/slope = {r.fitted_exponent:.6g}")
    _write_json(args.json, [r.to_dict() for r in reports])
    return 0 if all(r.passed for r in reports) else 2


def _cmd_report(args) -> int:
    try:
        with open(args.json_in) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report {args.json_in}: {exc}") from exc
    from .report import CheckReport
    reports = [CheckReport(d["statement_id"], d["pass"], d["empirical_constant"],
                           d["fitted_exponent"],
                           [tuple(w) for w in d["witnesses"]], d.get("notes", ""))
               for d in raw]
    print(summary_table(reports))
    if args.witnesses:
        for r in reports:
            for desc, lhs, rhs in r.witnesses:
                print(f"  [{r.statement_id}] {desc}: {lhs:.6g} vs {rhs:.6g}")
    return 0 if all(r.passed for r in reports) else 2


def _cmd_logholder(args) -> int:
    cfg = _load_config(args.config)
    e = cfg.exponent(args.p)
    rep = log_holder_check(e, sample_budget=args.budget)
    print(f"log-Holder check for {args.p}: {'pass' if rep.passed else 'FAIL'}")
    for desc, lhs, rhs in rep.witnesses:
        print(f"  {desc}: {lhs:.6g} (cap {rhs:g})")
    _write_json(args.json, rep.to_dict())
    return 0 if rep.passed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="varlp",
        description="norms and operators of variable-exponent function spaces, "
                    "plus the statement verification harness")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--config", default=None, help="experiment config JSON")
        p.add_argument("--json", default=None, help="write JSON output here")
        if tol:
            p.add_argument("--tol", type=float, default=None,
                           help="override the config's tol; Luxemburg solves "
                                "integrate at MODULAR_TOL whatever it is")

    p = sub.add_parser("norm", help="Luxemburg norm of a catalog function")
    common(p)
    p.add_argument("--f", required=True, help="function name (builtin or config)")
    p.add_argument("--p", required=True, help="exponent name (builtin or config)")
    p.add_argument("--domain", default="line", help="line | ball:R | ring:K")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("op", help="evaluate an operator pointwise")
    common(p)
    p.add_argument("--kind", required=True, choices=sorted([*_IMAGE_KINDS, "maximal"]))
    p.add_argument("--f", required=True)
    p.add_argument("--b", default=None, help="symbol, for the commutator kinds only")
    p.add_argument("--points", required=True, help="comma-separated x values")
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_op)

    p = sub.add_parser("cbmo", help="central oscillation norms")
    common(p)
    p.add_argument("--f", required=True)
    p.add_argument("--p", default="const2")
    p.add_argument("--variant", default="var",
                   choices=("var", "classical", "inf"))
    p.add_argument("--p-classical", type=float, default=1.0, dest="p_classical")
    p.add_argument("--kmin", type=int, default=-10)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_cbmo)

    p = sub.add_parser("herz", help="ring-weighted Herz norms")
    common(p, tol=False)
    p.add_argument("--f", default=None)
    p.add_argument("--p", default="const2")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--vector", default=None,
                   help="comma-separated function names for the vector form")
    p.add_argument("--lr", type=float, default=2.0,
                   help="pointwise aggregation index for --vector")
    p.add_argument("--kmin", type=int, default=-20)
    p.add_argument("--kmax", type=int, default=20)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=_cmd_herz)

    p = sub.add_parser("verify", help="run statement checks")
    common(p)
    p.add_argument("--all", action="store_true")
    p.add_argument("--statement", default=None,
                   help=f"one of: {', '.join(STATEMENT_IDS)}")
    p.add_argument("--p0", type=float, default=None,
                   help="the one constant exponent of the counterexample "
                        "sweep (prop3.1): overrides the counterexample_p0 grid")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="render a saved JSON report")
    p.add_argument("--json-in", required=True, dest="json_in")
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("logholder", help="log-Holder regularity of an exponent")
    common(p, tol=False)
    p.add_argument("--p", required=True)
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(fn=_cmd_logholder)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "herz" and args.f is None and args.vector is None:
            raise ConfigError("herz needs --f or --vector")
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError) as exc:  # ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
