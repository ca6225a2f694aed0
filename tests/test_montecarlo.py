import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dl2u
from dl2u.cli import main
from dl2u.dgp import RngSeed, simulate_batch, simulate_path
from dl2u.errors import DomainError, NumericOverflowError
from dl2u.estimator import ols_rho, pivot_S, pivot_T, pivots, score_rho_error
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

    def test_ks_level_is_fixed(self):
        assert stat_spec().alpha_level == 0.05
        with pytest.raises(TypeError):
            stat_spec(alpha_level=0.1)

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

    def test_overflow_names_replication_and_exponent(self):
        spec = stat_spec(params=replace(stat_spec().params, kn=SequenceSpec.constant(1e308)))
        with pytest.raises(NumericOverflowError, match="replication 2 aborted: .*n k_n"):
            replication_pivots(spec, 2)
        params = replace(expl_spec().params, n=10**5, kn=SequenceSpec.log_of_n())
        y, u = np.zeros((1, params.n + 1)), np.zeros((1, params.n))
        y[0, 0] = u[0, 0] = 1.0  # centered error 1
        with pytest.raises(NumericOverflowError, match="explosive pivot overflow: n log rho_n"):
            pivots(params, y, u)

    def test_run_replication_returns_ks_result(self):
        res = run_replication(stat_spec(), 0)
        assert 0 <= res.d_stat <= 1
        assert res.sample_size == 50


class TestReplay:
    """A table pivot replays exactly from its path alone, at a batch of one."""

    @pytest.mark.parametrize("table_id", TABLE_IDS)
    def test_path_replays_table_pivot(self, table_id):
        for _, kn in table_kn_rows(table_id):
            spec = ExperimentSpec(table_params(table_id, kn), seed=17)  # full size, B = 500
            rep, B = 1, spec.paths_per_test
            table = replication_pivots(spec, rep)
            for j in (0, 7, B - 1):
                path = simulate_path(spec.params, RngSeed(spec.seed, rep * B + j))
                assert pivots(spec.params, path.y[None], path.u[None])[0] == table[j]

    @pytest.mark.parametrize("table_id, kn", [("1a", "pow:0.25"), ("2a", "pow:0.5")])
    def test_simulate_csv_replays_table_pivot(self, table_id, kn, tmp_path):
        spec = ExperimentSpec(table_params(table_id, SequenceSpec.parse(kn)), seed=17)
        p, rep, j, B = spec.params, 1, 7, spec.paths_per_test
        out = tmp_path / "path.csv"
        assert main(["simulate", "--n", str(p.n), "--c", repr(p.c), "--d", repr(p.d),
                     "--alpha", repr(p.alpha), "--kn", kn, "--regime", p.regime.value,
                     "--seed", str(spec.seed), "--rep", str(rep * B + j), "--out", str(out)]) == 0
        data = np.genfromtxt(out, delimiter=",", names=True)
        y, u = np.ascontiguousarray(data["y"]), np.ascontiguousarray(data["u"][1:])
        assert pivots(p, y[None], u[None])[0] == replication_pivots(spec, rep)[j]


def table_spec(table_id, row, replications=2):
    """A full-size (B = 500) spec of one table row."""
    kn = table_kn_rows(table_id)[row][1]
    return ExperimentSpec(table_params(table_id, kn), replications=replications, seed=row)


# Prints the pivots of replications 0 and 1 of each (table, row) argument in a
# fresh process.
FRESH_PIVOTS = """
import sys
from dl2u import montecarlo as mc
for cell in sys.argv[1:]:
    table_id, row = cell.split("/")
    spec = mc.ExperimentSpec(mc.table_params(table_id, mc.table_kn_rows(table_id)[int(row)][1]),
                             replications=2, seed=int(row))
    for rep in range(2):
        print(mc.replication_pivots(spec, rep).tobytes().hex())
"""


class TestReuse:
    """Each batch reuses the memory the allocator keeps from the last one."""

    def test_held_batch_is_never_reused(self):
        spec = table_spec("2a", 0, replications=4)
        streams = np.arange(spec.paths_per_test, dtype=np.uint64)
        held = simulate_batch(spec.params, spec.seed, streams)
        before = [a.copy() for a in held]
        for rep in range(4):
            replication_pivots(spec, rep)
        assert all(np.array_equal(a, b) for a, b in zip(held, before))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux fault counters")
    def test_steady_state_takes_no_page_faults(self):
        resource = pytest.importorskip("resource")
        spec = table_spec("1a", 0, replications=6)  # B = 500, n = 1000
        replication_pivots(spec, 0)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for rep in range(1, 6):
            replication_pivots(spec, rep)
        # Fresh (B, n) arrays took about 1,000 faults per replication.
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100

    def test_mixed_shapes_match_fresh_process(self):
        cells = ["1a/0", "2a/0", "1a/3"]
        src = str(Path(dl2u.__file__).parents[1])
        fresh = subprocess.run(
            [sys.executable, "-c", FRESH_PIVOTS, *cells], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        nan_y, nan_eps = np.full((500, 1001), np.nan), np.full((500, 1000), np.nan)
        # Freed NaN-filled arrays of the 1a shapes: an element left unwritten would show.
        del nan_y, nan_eps
        mixed = []
        for cell in cells:
            table_id, row = cell.split("/")
            spec = table_spec(table_id, int(row))
            mixed += [replication_pivots(spec, rep).tobytes().hex() for rep in range(2)]
        assert mixed == fresh

    def test_threads_share_the_spares_safely(self):
        # Concurrent batches of two shapes match serial ones.
        specs = [stat_spec(replications=20), expl_spec(replications=20, paths_per_test=30)]
        want = [[replication_pivots(spec, rep) for rep in range(20)] for spec in specs]
        got, errors = {}, []

        def work(k):
            try:
                spec = specs[k % 2]
                got[k] = [replication_pivots(spec, rep) for rep in range(20)]
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for k in range(6):
            assert all(np.array_equal(a, b) for a, b in zip(got[k], want[k % 2]))


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
