"""Config round-trips, spec parsing errors, and CLI behavior / exit codes."""

import json
import math

import pytest

from varlp.cli import main
from varlp.config import (BUILTIN_EXPONENTS, BUILTIN_FUNCS, DEFAULT_GRIDS, ConfigError,
                          ExperimentConfig, make_exponent, make_func)
from varlp.verify import run_statement


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(seed=11, tol=1e-8,
                           exponents={"mine": {"kind": "constant", "p": 2.5}},
                           grids={"cbmo_radius_k": [-3, 3]})
    path = tmp_path / "c.json"
    path.write_text(cfg.to_json())
    back = ExperimentConfig.from_json_file(str(path))
    assert back.to_dict() == cfg.to_dict()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"seed": 1, "bogus": 2})


def test_config_refuses_the_removed_outputs_field():
    with pytest.raises(ConfigError, match="outputs"):
        ExperimentConfig.from_dict({"seed": 1, "outputs": {}})


def test_config_refuses_the_removed_dim_field():
    with pytest.raises(ConfigError, match="dim"):
        ExperimentConfig.from_dict({"seed": 1, "dim": 2})


def test_config_refuses_an_unknown_grid_name():
    with pytest.raises(ConfigError, match="cbmo_radus_k"):
        ExperimentConfig.from_dict({"grids": {"cbmo_radus_k": [0, 1]}})
    # the deleted grids are refused like any misspelling
    with pytest.raises(ConfigError, match="herz_k"):
        ExperimentConfig.from_dict({"grids": {"herz_k": [0, 1]}})


def test_config_refuses_an_unknown_tolerance_key():
    with pytest.raises(ConfigError, match="slope_tl"):
        ExperimentConfig.from_dict({"tolerances": {"prop3.1": {"slope_tl": 0.1}}})
    # a known key may be set for any statement; the default abs_tol is gone,
    # so a statement without its own has none
    cfg = ExperimentConfig.from_dict({"tolerances": {"lemma2.3": {"fit_r2": 0.5}}})
    assert cfg.stmt_tol("lemma2.3", "fit_r2") == 0.5
    with pytest.raises(ConfigError, match="abs_tol"):
        ExperimentConfig().stmt_tol("prop3.1", "abs_tol")


def test_make_exponent_errors_name_the_field():
    with pytest.raises(ConfigError, match="kind"):
        make_exponent({"p": 2.0})
    with pytest.raises(ConfigError, match="nosuch"):
        make_exponent({"kind": "nosuch"})
    with pytest.raises(ConfigError):
        make_exponent({"kind": "piecewise", "breaks": [1.0], "values": [2.0]})


def test_make_func_errors():
    with pytest.raises(ConfigError, match="kind"):
        make_func({"a": 0.0})
    with pytest.raises(ConfigError):
        make_func({"kind": "chi_interval", "a": 2.0, "b": 1.0})


@pytest.mark.parametrize("make, spec, field", [
    (make_func, {"kind": "chi_ball", "radius": 1.0, "radiu": 2}, "radiu"),
    (make_func, {"kind": "scaled_ball", "radius": 1.0, "dim": 2}, "dim"),
    (make_func, {"kind": "lincomb", "terms": [{"kind": "sign", "bogus": 1}],
                 "coeffs": [1.0]}, "bogus"),
    (make_exponent, {"kind": "constant", "p": 2.0, "bogus": 1}, "bogus"),
    (make_exponent, {"kind": "smooth", "formula_id": "sin_loglog", "shift": 20.0},
     "shift"),
], ids=["misspelled", "scaled_ball_dim", "nested", "exponent", "smooth_outside_params"])
def test_specs_refuse_a_field_their_kind_does_not_read(make, spec, field):
    with pytest.raises(ConfigError, match=f"unknown fields \\['{field}'\\]"):
        make(spec)


@pytest.mark.parametrize("formula_id, params, unread", [
    ("inv_one_plus_abs", {"base": 2.0, "ampl": 1.0}, "ampl"),
    ("inv_one_plus_sq", {"shift": 20.0}, "shift"),
])
def test_smooth_params_refuse_a_parameter_their_formula_does_not_read(formula_id, params,
                                                                      unread):
    with pytest.raises(ConfigError, match=f"reads no parameter \\['{unread}'\\]"):
        make_exponent({"kind": "smooth", "formula_id": formula_id, "params": params})
    # sin_loglog reads its shift
    make_exponent({"kind": "smooth", "formula_id": "sin_loglog", "params": {"shift": 20.0}})


def test_builtins_all_parse():
    for name, spec in BUILTIN_EXPONENTS.items():
        assert make_exponent(spec).p_minus > 1.0, name
    for name, spec in BUILTIN_FUNCS.items():
        make_func(spec)


def test_nested_function_specs():
    f = make_func({"kind": "lincomb",
                   "terms": [{"kind": "chi_interval", "a": 0.0, "b": 1.0},
                             {"kind": "scaled_ball", "radius": 2.0}],
                   "coeffs": [1.0, -1.0]})
    assert f.support_radius == 2.0
    g = make_func({"kind": "abs_power",
                   "base": {"kind": "with_sign",
                            "base": {"kind": "chi_ball", "radius": 1.0}},
                   "power": 0.5})
    assert g.evaluate(0.5) == 1.0


def test_cli_norm_prints_unit_value(capsys):
    rc = main(["norm", "--f", "chi01", "--p", "const2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1" in out.split(":")[-1]


def test_cli_norm_json_output(tmp_path, capsys):
    out = tmp_path / "norm.json"
    rc = main(["norm", "--f", "chi02", "--p", "pw23", "--json", str(out)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.read_text())
    assert abs(payload["value"] - 1.3247179572447460) <= 1e-6
    assert payload["tol"] == 1e-9


def test_cli_norm_tol_reaches_only_the_modular_and_its_json_key(tmp_path, capsys):
    # the solve integrates at MODULAR_TOL whatever --tol says
    runs = []
    for tol in ([], ["--tol", "1e-2"]):
        out = tmp_path / f"norm{len(runs)}.json"
        rc = main(["norm", "--f", "f0_r1", "--p", "const1.5", "--json", str(out), *tol])
        assert rc == 0
        runs.append((capsys.readouterr().out.splitlines(), json.loads(out.read_text())))
    ((norm, mod), default), ((norm_x, mod_x), loose) = runs
    assert norm_x == norm and mod_x != mod
    assert (default.pop("tol"), loose.pop("tol")) == (1e-9, 1e-2)
    assert loose == default


def test_cli_op_table(tmp_path, capsys):
    csv_path = tmp_path / "op.csv"
    rc = main(["op", "--kind", "hardy", "--f", "chi_pm1",
               "--points", "0.5,4", "--csv", str(csv_path)])
    capsys.readouterr()
    assert rc == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "x,value,abs_error_bound"
    assert float(rows[1].split(",")[1]) == pytest.approx(2.0, abs=1e-9)
    assert float(rows[2].split(",")[1]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("kind", ["hardy", "dual_hardy", "commutator",
                                  "commutator_dual", "maximal"])
def test_cli_op_samples_one_image_at_every_point(kind, tmp_path, capsys,
                                                 monkeypatch):
    from varlp import cli

    built = []

    def counted(*args, **kwargs):
        built.append(args[0])
        return cli_image(*args, **kwargs)

    cli_image = cli.OperatorImage
    monkeypatch.setattr(cli, "OperatorImage", counted)
    symbol = ["--b", "sign"] if kind.startswith("commutator") else []
    points = ["0.5", "-0.5", "1.5", "-3", "0.25"]

    def run(pts, name):
        csv_path = tmp_path / f"{name}.csv"
        rc = main(["op", "--kind", kind, "--f", "chi02", *symbol,
                   "--points", ",".join(pts), "--csv", str(csv_path)])
        assert rc == 0
        return capsys.readouterr().out, csv_path.read_text().splitlines()

    out, rows = run(points, "all")
    assert len(built) == (0 if kind == "maximal" else 1)
    one_by_one = [run([x], f"point{i}") for i, x in enumerate(points)]
    assert len(built) == (0 if kind == "maximal" else 1 + len(points))
    assert out == "".join(o for o, _ in one_by_one)
    assert rows == [rows[0]] + [r[1] for _, r in one_by_one]
    assert len(rows) == 1 + len(points)


def test_cli_op_commutator_requires_symbol(capsys):
    rc = main(["op", "--kind", "commutator", "--f", "chi01", "--points", "1"])
    assert rc == 1


@pytest.mark.parametrize("kind", ["hardy", "dual_hardy", "maximal"])
def test_cli_op_refuses_a_symbol_outside_the_commutators(kind, capsys):
    rc = main(["op", "--kind", kind, "--f", "chi_pm1", "--b", "sign",
               "--points", "0.5"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert "--b SYMBOL" in captured.err and repr(kind) in captured.err


def test_cli_cbmo_breakdown_csv(tmp_path, capsys):
    csv_path = tmp_path / "cbmo.csv"
    rc = main(["cbmo", "--f", "sign", "--p", "const2", "--kmin", "-2",
               "--kmax", "4", "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "0.99999" in out
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 8  # header + 7 radii


def test_cli_herz(tmp_path, capsys):
    path = tmp_path / "herz.json"
    rc = main(["herz", "--f", "ring0", "--p", "const2", "--q", "1",
               "--kmin", "-4", "--kmax", "4", "--json", str(path)])
    out = capsys.readouterr().out
    assert rc == 0 and "0.99999" in out
    # no tol: every ring norm is a solve at MODULAR_TOL
    assert set(json.loads(path.read_text())) == {"value", "tail_bound", "breakdown"}


@pytest.mark.parametrize("argv", [
    ["herz", "--f", "ring0", "--p", "const2", "--tol", "1e-6"],
    ["logholder", "--p", "const2", "--tol", "1e-6"],
    ["cbmo", "--f", "sign", "--variant", "star"],
])
def test_cli_refuses_the_flags_that_reach_no_integral(argv, capsys):
    # herz and logholder read no tol; the star variant with ball-average
    # centers was the var variant under another name
    assert main(argv) == 1
    assert capsys.readouterr().out == ""


def test_cli_herz_needs_function(capsys):
    rc = main(["herz", "--p", "const2"])
    assert rc == 1


def test_cli_verify_unknown_statement(capsys):
    rc = main(["verify", "--statement", "nosuch"])
    assert rc == 1


def test_cli_verify_single_statement(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(["verify", "--statement", "lemma2.3", "--json", str(out)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload[0]["statement_id"] == "lemma2.3" and payload[0]["pass"]


def test_cli_verify_p0_overrides_the_counterexample_grid(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc = main(["verify", "--statement", "prop3.1", "--p0", "2", "--json", str(out)])
    capsys.readouterr()
    assert rc == 0
    cfg = ExperimentConfig()
    cfg.grids["counterexample_p0"] = [2.0]
    want = run_statement("prop3.1", cfg)
    assert json.loads(out.read_text()) == json.loads(json.dumps([want.to_dict()]))
    # the sweep at p0 = 2 diverges like r^(1 - 1/2)
    assert want.passed
    assert abs(want.fitted_exponent - 0.5) <= cfg.stmt_tol("prop3.1", "slope_tol")


def test_cli_report_rendering(tmp_path, capsys):
    src = tmp_path / "rep.json"
    src.write_text(json.dumps([{
        "statement_id": "lemma5.1", "pass": True, "empirical_constant": 0.0,
        "fitted_exponent": None, "witnesses": [["gap", -1.0, 1e-8]],
        "notes": ""}]))
    rc = main(["report", "--json-in", str(src), "--witnesses"])
    out = capsys.readouterr().out
    assert rc == 0 and "lemma5.1" in out and "gap" in out


def test_cli_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["norm", "--f", "chi01", "--p", "const2", "--config", str(bad)])
    assert rc == 1


# a config with a malformed value, and the text its refusal names
MALFORMED_VALUES = {
    "seed_str": ({"seed": "x"}, "seed"),
    "seed_bool": ({"seed": True}, "seed"),
    "tol_str": ({"tol": "big"}, "tol"),
    "tol_zero": ({"tol": 0.0}, "tol"),
    "float_grid": ({"grids": {"alpha": "a"}}, "'alpha'"),
    "int_grid": ({"grids": {"identity_points_per_ball": 2.5}},
                 "'identity_points_per_ball'"),
    "list_grid": ({"grids": {"p0_grid": []}}, "'p0_grid'"),
    "list_grid_item": ({"grids": {"delta_grid": [0.25, "x"]}}, "'delta_grid'"),
    "range_grid_reversed": ({"grids": {"cbmo_radius_k": [3, 1]}}, "'cbmo_radius_k'"),
    "range_grid_floats": ({"grids": {"vv_herz_k": [-6.0, 6.0]}}, "'vv_herz_k'"),
    "tolerance_str": ({"tolerances": {"thm5.1": {"boundary_tol": "q"}}},
                      "thm5.1.boundary_tol"),
    "tolerance_section": ({"tolerances": {"nosuch": {"cap": 1}}}, "'nosuch'"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_VALUES))
def test_cli_malformed_config_value_is_named(name, tmp_path, capsys):
    spec, named = MALFORMED_VALUES[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    rc = main(["norm", "--f", "chi01", "--p", "const2", "--config", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and named in err, err


def test_config_takes_every_default_and_a_tolerance_of_any_statement():
    cfg = ExperimentConfig.from_dict({"seed": 3, "tol": 1e-8,
                                      "grids": dict(DEFAULT_GRIDS),
                                      "tolerances": {"lemma2.3": {"slope_tol": 1}}})
    assert cfg.stmt_tol("lemma2.3", "slope_tol") == 1


def test_cli_logholder(capsys):
    rc = main(["logholder", "--p", "const2"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
