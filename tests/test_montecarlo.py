from dataclasses import replace

import numpy as np
import pytest

from dl2u.dgp import RngSeed, simulate_path
from dl2u.errors import DomainError
from dl2u.estimator import ols_rho, pivot_S, pivot_T, score_rho_error
from dl2u.montecarlo import (
    TABLE_IDS,
    ExperimentSpec,
    emit_histogram,
    replication_pivots,
    run_experiment,
    run_replication,
    run_table,
    table_kn_rows,
    table_params,
    target_law,
)
from dl2u.sequences import ModelParams, Regime, SequenceSpec


def stat_spec(**kw):
    params = ModelParams(
        c=1.0, d=1.0, alpha=0.5, n=100,
        kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY,
    )
    base = dict(params=params, paths_per_test=50, replications=4, seed=9)
    base.update(kw)
    return ExperimentSpec(**base)


def expl_spec(**kw):
    params = ModelParams(
        c=0.5, d=1.0, alpha=0.5, n=100,
        kn=SequenceSpec.power_of_n(0.5), regime=Regime.MILDLY_EXPLOSIVE,
    )
    base = dict(params=params, paths_per_test=50, replications=4, seed=9)
    base.update(kw)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            stat_spec(paths_per_test=0)
        with pytest.raises(DomainError):
            stat_spec(replications=0)

    def test_target_laws(self):
        assert target_law(stat_spec().params).label() == "N(0,2)"
        assert target_law(expl_spec().params).label() == "Cauchy(0,1)"


class TestReplications:
    def test_pivots_deterministic_and_shaped(self):
        spec = stat_spec()
        a = replication_pivots(spec, 1)
        b = replication_pivots(spec, 1)
        assert a.shape == (50,)
        assert np.array_equal(a, b)

    def test_replications_use_disjoint_streams(self):
        spec = stat_spec()
        assert not np.array_equal(replication_pivots(spec, 0), replication_pivots(spec, 1))

    def test_rep_index_bounds(self):
        with pytest.raises(DomainError):
            replication_pivots(stat_spec(), 4)
        with pytest.raises(DomainError):
            replication_pivots(stat_spec(), -1)

    def test_explosive_pivots_are_finite(self):
        vals = replication_pivots(expl_spec(), 0)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("make_spec, pivot", [(stat_spec, pivot_T), (expl_spec, pivot_S)])
    def test_batched_pivots_match_scalar_pivots(self, make_spec, pivot):
        # Not bitwise: BLAS dot vs einsum summation order and math.exp vs
        # np.exp move single pivots by up to 2e-11 relative at full size,
        # most where a pivot is near zero.
        spec = make_spec()
        rep, B = 1, spec.paths_per_test
        batched = replication_pivots(spec, rep)
        for j in range(B):
            path = simulate_path(spec.params, RngSeed(spec.seed, rep * B + j))
            scalar = pivot(ols_rho(path.y), spec.params, rho_error=score_rho_error(path))
            assert batched[j] == pytest.approx(scalar.value, rel=1e-9)

    def test_explosive_c_zero_is_domain_error(self):
        spec = expl_spec()
        spec = replace(spec, params=replace(spec.params, c=0.0))
        with pytest.raises(DomainError, match="c > 0"):
            replication_pivots(spec, 0)

    def test_run_replication_returns_ks_result(self):
        res = run_replication(stat_spec(), 0)
        assert 0 <= res.d_stat <= 1
        assert res.sample_size == 50


class TestRunExperiment:
    def test_summary_fields(self):
        summary = run_experiment(stat_spec())
        assert len(summary.per_replication) == 4
        assert 0.0 <= summary.acceptance_proportion <= 1.0
        assert summary.mean_ks == pytest.approx(
            np.mean([r.d_stat for r in summary.per_replication]), rel=1e-15
        )


class TestTables:
    def test_row_layouts(self):
        assert len(table_kn_rows("1a")) == 8
        assert len(table_kn_rows("1b")) == 8
        assert len(table_kn_rows("2a")) == 6
        assert len(table_kn_rows("2b")) == 6
        assert table_kn_rows("2a")[0][0] == "n^0.1"

    def test_table_params(self):
        kn = SequenceSpec.power_of_n(0.5)
        got = [table_params(tid, kn, n_nearstat=400, n_explosive=200) for tid in TABLE_IDS]
        assert [(p.c, p.d, p.alpha, p.n, p.kn, p.regime) for p in got] == [
            (1.0, 1.0, 0.0, 400, kn, Regime.NEAR_STATIONARY),
            (0.5, 1.0, 0.0, 200, kn, Regime.MILDLY_EXPLOSIVE),
            (0.5, 1.0, 0.5, 200, kn, Regime.MILDLY_EXPLOSIVE),
            (1.0, 1.0, 0.5, 400, kn, Regime.NEAR_STATIONARY),
        ]

    def test_unknown_table_id(self):
        with pytest.raises(DomainError):
            table_kn_rows("3c")
        with pytest.raises(DomainError):
            table_params("3c", SequenceSpec.log_of_n())
        with pytest.raises(DomainError):
            run_table("3c")

    def test_small_run_shape_and_determinism(self):
        kw = dict(n_nearstat=100, n_explosive=100, replications=2, paths_per_test=30, seed=5)
        rows = run_table("2b", **kw)
        again = run_table("2b", **kw)
        assert [r.kn_label for r in rows] == [lbl for lbl, _ in table_kn_rows("2b")]
        assert rows == again

    def test_all_table_ids_run(self):
        for tid in TABLE_IDS:
            rows = run_table(tid, n_nearstat=100, n_explosive=100,
                             replications=1, paths_per_test=20, seed=2)
            assert all(0 <= r.acceptance <= 1 for r in rows)


class TestHistogram:
    def test_structure_and_counts(self):
        record = emit_histogram(stat_spec(), bins=20)
        assert len(record["edges"]) == 21
        assert len(record["counts"]) == 20
        assert len(record["overlay_x"]) == 20
        assert sum(record["counts"]) == record["n_kept"]
        assert record["n_kept"] == record["n_pooled"] == 200
        assert record["target"] == "N(0,2)"

    def test_explosive_tails_are_clipped(self):
        record = emit_histogram(expl_spec(), bins=20)
        assert record["n_kept"] < record["n_pooled"]
        assert record["target"] == "Cauchy(0,1)"

    def test_bin_floor(self):
        with pytest.raises(DomainError):
            emit_histogram(stat_spec(), bins=5)
