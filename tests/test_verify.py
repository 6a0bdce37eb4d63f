"""Statement checkers: verdict logic, coverage, determinism of reports."""

import math

import pytest

from varlp import constant_exponent, piecewise_exponent
from varlp.config import ExperimentConfig
from varlp.funcs import chi_ball, dyadic_step, sign_func
from varlp.report import CheckReport, fit_loglog, slope_is_flat
from varlp.verify import (STATEMENT_IDS, check_chi_product,
                          check_commutator_bounded, check_counterexample,
                          check_diening_single_family, check_duality,
                          check_minkowski, check_subset_ratios, duality_bank,
                          minkowski_lists, run_statement, subset_pairs,
                          summary_table, vv_sequence_bank)

E2 = constant_exponent(2.0)
PW = piecewise_exponent([1.0, 2.0], [2.0, 3.0, 2.0])


def test_fit_loglog_recovers_power_law():
    scales = [2.0 ** k for k in range(10)]
    values = [3.0 * s ** 0.7 for s in scales]
    slope, r2 = fit_loglog(scales, values, decades=2.0)
    assert abs(slope - 0.7) <= 1e-12 and r2 > 0.999999


def test_slope_is_flat_on_constant_and_empty():
    assert slope_is_flat([1, 2, 4], [5.0, 5.0, 5.0])
    assert slope_is_flat([1, 2, 4], [0.0, 0.0, 0.0])
    assert not slope_is_flat([2.0 ** k for k in range(8)],
                             [2.0 ** (0.5 * k) for k in range(8)])


def test_check_duality_constant_exponent():
    rep = check_duality(E2, duality_bank()[:4])
    assert rep.passed
    assert rep.empirical_constant <= 2.0 + 1e-4


def test_check_diening_trivial_family():
    from varlp.funcs import constant
    rep = check_diening_single_family(E2, [(0.0, 1.0), (2.0, 3.0)], [1.0, 1.0],
                                      constant(1.0), [0.25, 0.5, 0.75])
    assert rep.passed
    assert abs(rep.empirical_constant - 1.0) <= 1e-7


def test_check_diening_oracle_case():
    # single cube, f = chi_[0,1/2], delta = 1/2, p = 2: closed-form ratio 1
    from varlp.funcs import chi_interval
    rep = check_diening_single_family(E2, [(0.0, 1.0)], [1.0],
                                      chi_interval(0.0, 0.5), [0.5])
    desc, ratio, _ = rep.witnesses[0]
    assert abs(ratio - 1.0) <= 1e-6


def test_check_chi_product_constant_is_exactly_one():
    grid = [2.0 ** k for k in range(-5, 11)]
    rep = check_chi_product(E2, grid)
    assert rep.passed
    assert abs(rep.empirical_constant - 1.0) <= 1e-8


def test_check_subset_ratios_constant_exponent():
    rep24, rep25 = check_subset_ratios(E2, subset_pairs(50), [1.25, 1.5])
    assert rep24.passed and rep25.passed
    # fitted reverse exponent equals 1/p exactly at constant exponent
    assert abs(rep24.fitted_exponent - 0.5) <= 1e-6
    assert rep25.empirical_constant <= 1.0 + 1e-6


def test_check_embedding_sign_ratio_is_one():
    from varlp.verify import check_embedding_cbmo_q
    grid = [2.0 ** k for k in range(-3, 6)]
    rep = check_embedding_cbmo_q(E2, [2.0], [("sign", sign_func())], grid)
    desc, sup, _ = rep.witnesses[0]
    assert abs(sup - 1.0) <= 1e-6  # both oscillation norms equal 1 for sgn


def test_check_counterexample_rates():
    grid = [2.0 ** k for k in range(-4, 17)]
    rep = check_counterexample(2.0, 40, grid)
    assert rep.passed
    assert abs(rep.fitted_exponent - 0.5) <= 0.05


def test_check_commutator_bounded_flat_for_sign():
    bank = [(f"chi_2^{m}", 2.0 ** m, chi_ball(2.0 ** m)) for m in range(-2, 7)]
    rep = check_commutator_bounded(sign_func(), E2, bank)
    assert rep.passed
    assert rep.empirical_constant <= 3.0


def test_check_commutator_increasing_for_dyadic_symbol():
    bank = [(f"chi_2^{m}", 2.0 ** m, chi_ball(2.0 ** m)) for m in range(1, 7)]
    rep = check_commutator_bounded(dyadic_step(), E2, bank, expect="increasing")
    assert rep.passed


def test_check_minkowski_seeded_lists():
    rep = check_minkowski(minkowski_lists(7, 10), [1.5, 2.0, 3.0])
    assert rep.passed
    assert rep.empirical_constant <= 1e-8


def test_minkowski_lists_deterministic():
    a = minkowski_lists(7, 5)
    b = minkowski_lists(7, 5)
    for fa, fb in zip(a, b):
        assert [g.params for g in fa] == [g.params for g in fb]
    assert minkowski_lists(8, 5)[0][0].params != a[0][0].params \
        or len(minkowski_lists(8, 5)[0]) != len(a[0])


def test_vv_bank_has_ten_sequences_with_scaled_family():
    bank = vv_sequence_bank()
    assert len(bank) == 10
    assert sum(1 for _, s, _ in bank if s is not None) >= 4


def test_statement_coverage():
    # run_all's order, which the harness reference stores
    assert STATEMENT_IDS == (
        "eq1.1", "lemma2.2", "lemma2.3", "lemma2.4", "lemma2.5", "prop3.1",
        "prop3.2", "prop3.3", "prop3.4", "thm4.1-forward",
        "thm4.1-converse-identity", "lemma5.1", "thm5.1")
    cfg = ExperimentConfig()
    with pytest.raises(KeyError):
        run_statement("nosuch", cfg)


def test_summary_refuses_incomplete_full_run():
    reports = [CheckReport(sid, True) for sid in STATEMENT_IDS[:-1]]
    reports.append(CheckReport("lemma2.3", True))  # duplicate, one missing
    with pytest.raises(RuntimeError):
        summary_table(reports)


def test_summary_single_statement_ok():
    table = summary_table([CheckReport("lemma2.3", True, 1.0)])
    assert "lemma2.3" in table and "pass" in table


def test_report_dict_shape():
    rep = CheckReport("eq1.1", True, 1.5, 0.5, [("w", 1.0, 2.0)], "note")
    d = rep.to_dict()
    assert set(d) == {"statement_id", "pass", "empirical_constant",
                      "fitted_exponent", "witnesses", "notes"}
    assert d["pass"] is True and d["witnesses"] == [["w", 1.0, 2.0]]


def test_statement_reports_follow_grid_changes():
    # a second call on the same config must not return a stale report
    cfg = ExperimentConfig()
    cfg.grids["subset_pair_count"] = 10
    first = run_statement("lemma2.4", cfg).to_dict()
    cfg.grids["subset_pair_count"] = 20
    second = run_statement("lemma2.4", cfg).to_dict()
    assert first != second
    fresh = ExperimentConfig(grids={"subset_pair_count": 20})
    assert run_statement("lemma2.4", fresh).to_dict() == second


def test_paired_statements_share_one_sweep_through_a_memo(monkeypatch):
    import varlp.verify as verify
    calls = []
    inner = verify.check_subset_ratios

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(verify, "check_subset_ratios", counted)
    cfg = ExperimentConfig(grids={"subset_pair_count": 10})
    memo = {}
    r24 = run_statement("lemma2.4", cfg, memo=memo)
    sweeps = len(calls)
    r25 = run_statement("lemma2.5", cfg, memo=memo)
    assert len(calls) == sweeps  # lemma2.5 came from the memo
    assert (r24.statement_id, r25.statement_id) == ("lemma2.4", "lemma2.5")
    run_statement("lemma2.5", cfg)
    assert len(calls) == 2 * sweeps  # no memo, no sharing


# reports recorded when check_subset_ratios hand-rolled its regression;
# report.fit_loglog over the full range sums in the same order
PINNED_SUBSET_REPORTS = {
    "const2": (E2, (
        "CheckReport(statement_id='lemma2.4', passed=True, "
        "empirical_constant=0.7071067831621811, fitted_exponent=0.500000001046821, "
        "witnesses=[('const2 forward constant', 0.7071067831621811, inf), "
        "('const2 fitted reverse exponent', 0.500000001046821, 1.0)], "
        "notes='reverse constant at fitted exponent: 1')",
        "CheckReport(statement_id='lemma2.5', passed=True, "
        "empirical_constant=1.0000000027939677, fitted_exponent=None, "
        "witnesses=[('const2 p0=1.5', 0.8908987206294817, 1.000001), "
        "('const2 p0=2', 1.0000000027939677, 1.000001)], "
        "notes='constant-exponent case must meet the bound with C=1')")),
    "pw23": (PW, (
        "CheckReport(statement_id='lemma2.4', passed=True, "
        "empirical_constant=0.722171985837874, fitted_exponent=0.49605130126669, "
        "witnesses=[('pw23 forward constant', 0.722171985837874, inf), "
        "('pw23 fitted reverse exponent', 0.49605130126669, 1.0)], "
        "notes='reverse constant at fitted exponent: 1.03913')",
        "CheckReport(statement_id='lemma2.5', passed=True, "
        "empirical_constant=1.0504391578756376, fitted_exponent=None, "
        "witnesses=[('pw23 p0=1.5', 0.9098796866015197, inf), "
        "('pw23 p0=2', 1.0504391578756376, inf)], "
        "notes='constant-exponent case must meet the bound with C=1')")),
}


@pytest.mark.parametrize("name", sorted(PINNED_SUBSET_REPORTS))
def test_subset_ratio_reports_are_bit_identical_to_pinned(name):
    e, want = PINNED_SUBSET_REPORTS[name]
    reports = check_subset_ratios(e, subset_pairs(36), [1.5, 2.0],
                                  label=f"{name} ")
    assert tuple(repr(r) for r in reports) == want


def test_forward_statement_work_stays_within_its_budget(monkeypatch):
    # thm4.1-forward is the largest statement; its odd commutator images
    # and their even modulars read every mirrored panel instead of
    # computing it (188,460 image points and 55,786 panels without that)
    from varlp import operators, quadrature

    counts = {"panels": 0, "points": 0}
    gk15, compute = quadrature._gk15, operators.OperatorImage._compute

    def counted_gk15(fn, a, b):
        counts["panels"] += 1
        return gk15(fn, a, b)

    def counted_compute(image, x):
        counts["points"] += 1
        return compute(image, x)

    monkeypatch.setattr(quadrature, "_gk15", counted_gk15)
    monkeypatch.setattr(operators.OperatorImage, "_compute", counted_compute)
    assert run_statement("thm4.1-forward", ExperimentConfig(seed=7)).passed
    assert counts["points"] <= 105_000 and counts["panels"] <= 46_000, counts


def test_oscillation_statement_passes_stay_within_their_budget(monkeypatch):
    # prop3.3's shifted flat solves under const2 and pw23 run only the
    # passes near the root of the modular's known form (14,283 passes when
    # the pw23 solves were bracketed by the exponent bounds alone)
    from varlp import norms

    passes = []
    make = norms._modular_passes

    def counting(*args):
        rho = make(*args)

        def counted(lam, *rest):
            passes.append(lam)
            return rho(lam, *rest)

        return counted

    monkeypatch.setattr(norms, "_modular_passes", counting)
    assert run_statement("prop3.3", ExperimentConfig(seed=7)).passed
    assert len(passes) <= 8_100, len(passes)
