"""Acceptance gate: the ten release criteria, each printed as one line.

Criteria 1-4 reproduce the four KS acceptance tables at full size
(B = 500 pivots per test, R = 100 replications), 5 checks the two
histogram panels across 100 seeded repeats, 6-8 are the statistical
oracles, 9 the exact invariants, and 10 the KS null calibration.
Reference mean-KS values for criterion 1 come from the published table
this suite reproduces.
"""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from dl2u.dgp import RngSeed, simulate_path
from dl2u.estimator import explosive_pair, ols_rho, pivot_S, score_rho_error, sign_flip
from dl2u.ks import TargetLaw, cdf, ks_statistic, ks_test
from dl2u.montecarlo import ExperimentSpec, run_replication, run_table
from dl2u.oracles import check_eq6_convergence, check_wnvn, run_moment_suite
from dl2u.sequences import ModelParams, Regime, SequenceSpec, scales


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _table_lines(rows):
    return "; ".join(f"{r.kn_label}: KS={r.mean_ks:.4f} acc={r.acceptance:.2f}" for r in rows)


# --- criteria 1-4: table reproductions -------------------------------------

TABLE_1A_REFERENCE_KS = [0.0515, 0.0528, 0.0498, 0.0503]  # first four rows


def test_criterion_1_table_1a_near_stationary_homoskedastic():
    rows = run_table("1a", replications=100, paths_per_test=500, seed=0)
    slow, fastest = rows[:4], rows[-1]
    ok_acc = all(r.acceptance >= 0.85 for r in slow)
    ok_ks = all(
        abs(r.mean_ks - ref) <= 0.03 for r, ref in zip(slow, TABLE_1A_REFERENCE_KS)
    )
    ok_fast = fastest.acceptance <= 0.10
    ok = ok_acc and ok_ks and ok_fast
    detail = _table_lines(rows)
    assert _report("1 (table 1a)", ok, detail), detail


def test_criterion_2_table_1b_explosive_homoskedastic():
    rows = run_table("1b", replications=100, paths_per_test=500, seed=0)
    slow, fastest = rows[:4], rows[-1]
    ok = all(r.acceptance >= 0.85 for r in slow) and fastest.acceptance <= 0.15
    detail = _table_lines(rows)
    assert _report("2 (table 1b)", ok, detail), detail


def test_criterion_3_table_2b_near_stationary_sv():
    rows = run_table("2b", replications=100, paths_per_test=500, seed=0)
    ok = (
        rows[0].acceptance >= 0.85  # n^0.1
        and rows[1].acceptance >= 0.85  # n^0.25
        and rows[-1].acceptance <= 0.10  # n
    )
    detail = _table_lines(rows)
    assert _report("3 (table 2b)", ok, detail), detail


def test_criterion_4_table_2a_explosive_sv():
    rows = run_table("2a", replications=100, paths_per_test=500, seed=0)
    ok = (
        rows[0].acceptance >= 0.85
        and rows[1].acceptance >= 0.85
        and rows[-1].acceptance <= 0.15
    )
    detail = _table_lines(rows)
    assert _report("4 (table 2a)", ok, detail), detail


# --- criterion 5: histogram panels ------------------------------------------


def _panel_pass_count(params, repeats=100):
    passes = 0
    for seed in range(repeats):
        spec = ExperimentSpec(params=params, paths_per_test=500, replications=1, seed=seed)
        if run_replication(spec, 0).p_value > 0.05:
            passes += 1
    return passes


def test_criterion_5_histogram_panels():
    left = ModelParams(c=1.0, d=1.0, alpha=0.5, n=1000,
                       kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY)
    right = ModelParams(c=0.5, d=1.0, alpha=0.5, n=300,
                        kn=SequenceSpec.power_of_n(0.5), regime=Regime.MILDLY_EXPLOSIVE)
    left_passes = _panel_pass_count(left)
    right_passes = _panel_pass_count(right)
    ok = left_passes >= 85 and right_passes >= 85
    detail = f"left N(0,2): {left_passes}/100; right Cauchy: {right_passes}/100"
    assert _report("5 (histogram panels)", ok, detail), detail


# --- criteria 6-8: statistical oracles ---------------------------------------


def test_criterion_6_moment_oracles():
    checks = run_moment_suite(draws=10**5)
    exact_zero = all(c.z_score == 0.0 for c in checks if "alpha=0.0" in c.label)
    ok = all(c.passed for c in checks) and exact_zero
    worst = max(checks, key=lambda c: abs(c.z_score))
    detail = (
        f"{sum(c.passed for c in checks)}/{len(checks)} within |z|<=4, "
        f"worst {worst.label} z={worst.z_score:.2f}, alpha=0 exact: {exact_zero}"
    )
    assert _report("6 (moment oracles)", ok, detail), detail


def test_criterion_7_sum_of_squares_convergence():
    grid = [
        ModelParams(c=1.0, d=1.0, alpha=0.0, n=n,
                    kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY)
        for n in (10**3, 10**5)
    ]
    result = check_eq6_convergence(grid, seed=11)
    entries = result["grid"]
    detail = "; ".join(f"n={e['n']}: |err|={e['abs_error']:.4f}" for e in entries)
    assert _report("7 (normalized sum-of-squares drift to 1/(2c))", result["passed"], detail), detail


def test_criterion_8_wn_vn_limit_pair():
    params = ModelParams(c=0.5, d=1.0, alpha=0.5, n=300,
                         kn=SequenceSpec.power_of_n(0.5), regime=Regime.MILDLY_EXPLOSIVE)
    result = check_wnvn(params, seed=13)
    detail = "; ".join(
        f"{c['name']}={c['value']:.4f} (target {c['target']:.2f}, z={c['z']:.2f})"
        for c in result["checks"]
    )
    assert _report("8 (W_n, V_n variances and independence)", result["passed"], detail), detail


# --- criterion 9: exact invariants -------------------------------------------


def test_criterion_9_exact_invariants():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(200).cumsum()
    failures = []

    if ols_rho(sign_flip(y)).rho_hat != -ols_rho(y).rho_hat:
        failures.append("sign-flip negation")
    if abs(ols_rho(3.7 * y).rho_hat / ols_rho(y).rho_hat - 1.0) > 1e-12:
        failures.append("OLS scale invariance")

    params = ModelParams(c=0.5, d=1.0, alpha=0.5, n=300,
                         kn=SequenceSpec.power_of_n(0.5), regime=Regime.MILDLY_EXPLOSIVE)
    path = simulate_path(params, RngSeed(21, 0))
    first, second = explosive_pair(path, params, scales(params))
    pivot = pivot_S(ols_rho(path.y), params, rho_error=score_rho_error(path)).value
    if abs(first / second / pivot - 1.0) > 1e-10:
        failures.append("explosive ratio identity")

    law = TargetLaw.normal(2.0)
    sample = rng.standard_normal(300) * math.sqrt(2.0)
    d_direct = ks_statistic(sample, law)
    # probability integral transform: U = F(X) tested against Uniform(0,1)
    u = np.sort(cdf(law, sample))
    i = np.arange(1, u.size + 1)
    d_uniform = max((i / u.size - u).max(), (u - (i - 1) / u.size).max())
    if abs(d_direct - d_uniform) > 1e-12:
        failures.append("KS probability-integral-transform invariance")

    spec = ExperimentSpec(params=params, paths_per_test=100, replications=8, seed=31)
    if run_replication(spec, 2).d_stat != run_replication(spec, 2).d_stat:
        failures.append("determinism")

    ok = not failures
    detail = "all five invariants hold" if ok else f"violated: {', '.join(failures)}"
    assert _report("9 (exact invariants)", ok, detail), detail


# --- criterion 10: KS null calibration ---------------------------------------


def test_criterion_10_ks_null_calibration():
    trials, m = 10**4, 500
    law = TargetLaw.normal(2.0)
    rng = np.random.default_rng(1729)
    rejections = 0
    for _ in range(trials):
        sample = math.sqrt(2.0) * ndtri(rng.random(m))
        if ks_test(sample, law).p_value <= 0.05:
            rejections += 1
    rate = rejections / trials
    ok = abs(rate - 0.05) <= 0.01
    detail = f"rejection rate {rate:.4f} over {trials} uniform-null trials (m={m})"
    assert _report("10 (KS null calibration)", ok, detail), detail
