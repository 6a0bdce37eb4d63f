"""Experiment configuration: JSON round-trip, named specs, builtin shortcuts.

A config names exponents and functions by kind-dictionaries mirroring the
catalogs, fixes every grid the harness sweeps, and centralizes the
tolerance policy per statement; every statement lives on the real line.
Parsing is strict: an unknown kind, field (of the config or of an
exponent or function spec), grid name or tolerance key, or a malformed
field, raises ConfigError naming the offender, which the CLI maps to exit
code 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from . import funcs
from .exponents import (Exponent, constant_exponent, piecewise_exponent,
                        smooth_exponent)
from .funcs import Func


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# spec dictionaries -> objects
# ---------------------------------------------------------------------------

# per spec kind: the fields it reads besides "kind" (any other is refused)
# and its builder
_EXPONENT_KINDS = {
    "constant": ({"p"}, lambda s: constant_exponent(s["p"])),
    "piecewise": ({"breaks", "values"},
                  lambda s: piecewise_exponent(s["breaks"], s["values"])),
    "smooth": ({"formula_id", "params"},
               lambda s: smooth_exponent(s["formula_id"], s.get("params", {}))),
}
_FUNC_KINDS = {
    "zero": (set(), lambda s: funcs.zero()),
    "constant": ({"c"}, lambda s: funcs.constant(s["c"])),
    "chi_interval": ({"a", "b"}, lambda s: funcs.chi_interval(s["a"], s["b"])),
    "chi_ball": ({"radius"}, lambda s: funcs.chi_ball(s["radius"])),
    "chi_ring": ({"k"}, lambda s: funcs.chi_ring(s["k"])),
    "power": ({"a"}, lambda s: funcs.power(s["a"])),
    "sign": (set(), lambda s: funcs.sign_func()),
    "dyadic_step": ({"k_max"}, lambda s: funcs.dyadic_step(s.get("k_max", 40))),
    "scaled_ball": ({"radius"}, lambda s: funcs.scaled_ball(s["radius"])),
    "lincomb": ({"terms", "coeffs"},
                lambda s: funcs.lincomb([make_func(t) for t in s["terms"]], s["coeffs"])),
    "with_sign": ({"base"}, lambda s: funcs.with_sign(make_func(s["base"]))),
    "abs_power": ({"base", "power"},
                  lambda s: funcs.abs_power(make_func(s["base"]), s.get("power", 1.0))),
}


def _build(spec, what: str, kinds: dict):
    """The object a spec dictionary names, built by its kind's builder; a
    missing, unknown or malformed field raises ConfigError naming it."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"{what} spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    reads, build = kinds[kind]
    unread = set(spec) - reads - {"kind"}
    if unread:
        raise ConfigError(f"{what} spec {spec!r} has unknown fields {sorted(unread)}")
    try:
        return build(spec)
    except KeyError as exc:
        raise ConfigError(f"{what} spec {spec!r} is missing field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {what} spec {spec!r}: {exc}") from exc


def make_exponent(spec: dict) -> Exponent:
    return _build(spec, "exponent", _EXPONENT_KINDS)


def make_func(spec: dict) -> Func:
    return _build(spec, "function", _FUNC_KINDS)


BUILTIN_EXPONENTS: dict[str, dict] = {
    "const1.5": {"kind": "constant", "p": 1.5},
    "const2": {"kind": "constant", "p": 2.0},
    "const3": {"kind": "constant", "p": 3.0},
    "const4": {"kind": "constant", "p": 4.0},
    "const10": {"kind": "constant", "p": 10.0},
    # piecewise exponents vary on a compact band and hold a constant value on
    # both tails, so the central-ball product and subset ratios stay bounded
    "pw23": {"kind": "piecewise", "breaks": [1.0, 2.0], "values": [2.0, 3.0, 2.0]},
    "pw32": {"kind": "piecewise", "breaks": [-2.0, 2.0], "values": [3.0, 2.0, 3.0]},
    "smooth21": {"kind": "smooth", "formula_id": "inv_one_plus_abs",
                 "params": {"base": 2.0, "amp": 1.0}},
}

BUILTIN_FUNCS: dict[str, dict] = {
    "zero": {"kind": "zero"},
    "chi01": {"kind": "chi_interval", "a": 0.0, "b": 1.0},
    "chi02": {"kind": "chi_interval", "a": 0.0, "b": 2.0},
    "chi_pm1": {"kind": "chi_ball", "radius": 1.0},
    "ring0": {"kind": "chi_ring", "k": 0},
    "ring1": {"kind": "chi_ring", "k": 1},
    "ring2": {"kind": "chi_ring", "k": 2},
    "sign": {"kind": "sign"},
    "absx": {"kind": "power", "a": 1.0},
    "dyadic_step": {"kind": "dyadic_step"},
    "f0_r1": {"kind": "scaled_ball", "radius": 1.0},
    "f0_r2": {"kind": "scaled_ball", "radius": 2.0},
}


@dataclass
class ExperimentConfig:
    """Everything a reproducible harness run depends on."""

    seed: int = 7
    tol: float = 1e-9
    exponents: dict[str, dict] = field(default_factory=dict)
    functions: dict[str, dict] = field(default_factory=dict)
    grids: dict[str, Any] = field(default_factory=dict)
    tolerances: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        from .verify import STATEMENT_IDS  # verify imports this module

        grids, tolerances = d.get("grids", {}), d.get("tolerances", {})
        if not (isinstance(grids, dict) and isinstance(tolerances, dict)
                and all(isinstance(tols, dict) for tols in tolerances.values())):
            raise ConfigError("config grids, tolerances and each tolerances section "
                              "must be JSON objects")
        known = {key for tols in DEFAULT_TOLERANCES.values() for key in tols}
        for bad, what in ((set(d) - {f.name for f in fields(cls)}, "config fields"),
                          (set(grids) - set(DEFAULT_GRIDS), "grid names"),
                          (set(tolerances) - {"default", *STATEMENT_IDS},
                           "tolerance sections"),
                          ({key for tols in tolerances.values() for key in tols} - known,
                           "tolerance keys")):
            if bad:
                raise ConfigError(f"unknown {what}: {sorted(bad)}")
        seed, tol = d.get("seed", 0), d.get("tol", 1.0)
        checks = [("seed", seed, type(seed) is int, "an int"),
                  ("tol", tol, _finite(tol) and tol > 0.0, "a positive finite number")]
        checks += [(f"grid {name!r}", value, _grid_fits(DEFAULT_GRIDS[name], value),
                    f"of the kind of its default {DEFAULT_GRIDS[name]!r}")
                   for name, value in grids.items()]
        checks += [(f"tolerance {sec}.{key}", value, _finite(value), "a finite number")
                   for sec, tols in tolerances.items() for key, value in tols.items()]
        for name, value, ok, kind in checks:
            if not ok:
                raise ConfigError(f"config {name} must be {kind}, got {value!r}")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config root in {path} must be a JSON object")
        return cls.from_dict(raw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- lookups ---------------------------------------------------------------

    def exponent(self, name: str) -> Exponent:
        spec = self.exponents.get(name) or BUILTIN_EXPONENTS.get(name)
        if spec is None:
            raise ConfigError(f"unknown exponent name {name!r}")
        return make_exponent(spec)

    def func(self, name: str) -> Func:
        spec = self.functions.get(name) or BUILTIN_FUNCS.get(name)
        if spec is None:
            raise ConfigError(f"unknown function name {name!r}")
        return make_func(spec)

    def grid(self, name: str):
        merged = {**DEFAULT_GRIDS, **self.grids}
        if name not in merged:
            raise ConfigError(f"unknown grid name {name!r}")
        return merged[name]

    def stmt_tol(self, statement_id: str, key: str) -> float:
        merged_default = {**DEFAULT_TOLERANCES["default"],
                          **self.tolerances.get("default", {})}
        per_stmt = {**DEFAULT_TOLERANCES.get(statement_id, {}),
                    **self.tolerances.get(statement_id, {})}
        if key in per_stmt:
            return per_stmt[key]
        if key in merged_default:
            return merged_default[key]
        raise ConfigError(f"no tolerance {key!r} for statement {statement_id!r}")


def _finite(value) -> bool:
    """Whether a JSON value is a finite number (a bool is none)."""
    return type(value) in (int, float) and math.isfinite(value)


def _grid_fits(default, value) -> bool:
    """Whether a grid value is of its default's kind: an int for an int, a
    number for a float, two ints lo <= hi for a [k_lo, k_hi] range (a
    default of ints), and a non-empty list of numbers for any other list."""
    if not isinstance(default, list):
        return type(value) is int if type(default) is int else _finite(value)
    if all(type(k) is int for k in default):
        return isinstance(value, list) and [type(k) for k in value] == [int, int] \
            and value[0] <= value[1]
    return isinstance(value, list) and bool(value) and all(map(_finite, value))


DEFAULT_GRIDS: dict[str, Any] = {
    # radius grids are [k_lo, k_hi] dyadic exponent ranges
    "chi_product_radius_k": [-5, 10],
    "cbmo_radius_k": [-4, 8],
    "equiv_radius_k": [-3, 6],
    "counterexample_radius_k": [-10, 20],
    "vv_herz_k": [-6, 6],
    "p0_grid": [1.25, 1.5],
    "counterexample_p0": [2.0, 4.0],
    "delta_grid": [0.25, 0.5, 0.75],
    "embedding_q": [2.0, 4.0],
    "q_values": [0.5, 1.0, 2.0],
    "r_values": [1.5, 2.0, 3.0],
    "alpha": 0.0,
    "lr_index": 2.0,
    "subset_pair_count": 50,
    "minkowski_list_count": 50,
    "commutator_scale_m": [-4, 8],
    "commutator_converse_m": [1, 10],
    "identity_balls": [0.5, 1.0, 2.0, 4.0, 8.0],
    "identity_points_per_ball": 20,
}

DEFAULT_TOLERANCES: dict[str, dict[str, float]] = {
    "default": {"rel_tol": 1e-6, "slope_tol": 0.05},
    "eq1.1": {"ratio_tol": 1e-4},
    "lemma2.2": {"cap": 100.0},
    "prop3.1": {"mean_tol": 1e-9, "fit_r2": 0.9},
    "prop3.2": {"cap": 1e6},
    "prop3.4": {"cap": 1e6},
    "thm4.1-converse-identity": {"abs_tol": 1e-6},
    "lemma5.1": {"abs_tol": 1e-8},
    "thm5.1": {"boundary_tol": 1e-9},
}
