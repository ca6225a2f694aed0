import os
import subprocess
import sys
import threading
import warnings
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
from dl2u.sequences import Regime, SequenceSpec


def stat_spec(**kw):  # table 2b's n^0.25 row at n = 100
    params = table_params("2b", SequenceSpec.parse("pow:0.25"), 100)
    return replace(ExperimentSpec(params, paths_per_test=50, replications=4, seed=9), **kw)


def expl_spec(**kw):  # table 2a's n^0.5 row at n = 100
    params = table_params("2a", SequenceSpec.parse("pow:0.5"), 100)
    return replace(ExperimentSpec(params, paths_per_test=50, replications=4, seed=9), **kw)


def no_draw(*args, **kwargs):
    raise AssertionError("a path was drawn")


class TestExperimentSpec:
    def test_validation(self):
        # 2.5 paths would make 3 pivots, and True replications would run 1
        for name in ("paths_per_test", "replications"):
            for value in (0, 2.5, 2.0, True):
                with pytest.raises(DomainError, match=f"{name} must be at least 1"):
                    stat_spec(**{name: value})

    def test_batch_size_bound(self):
        # B * (n + 1) float64 values must fit numpy's index range; nothing is allocated here
        params = replace(stat_spec().params, n=3)
        assert stat_spec(params=params, paths_per_test=2**58 - 1).paths_per_test == 2**58 - 1
        with pytest.raises(DomainError, match="below 2\\^60"):
            stat_spec(params=params, paths_per_test=2**58)

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
        for rep in (4, -1, 1.5, True):  # 1.5 would draw streams 75..124, halves of reps 1 and 2
            with pytest.raises(DomainError, match="replication index"):
                replication_pivots(stat_spec(), rep)

    def test_a_huge_replication_count_reads_like_any_other(self):
        # the index check renders no bound, so R = 10^5000 is no int-to-str error
        spec = expl_spec(paths_per_test=4)
        huge = replication_pivots(replace(spec, replications=10**5000), 0)
        assert huge.tobytes() == replication_pivots(replace(spec, replications=1), 0).tobytes()

    def test_streams_end_at_2_64(self, monkeypatch):
        # rep * B + j wrapped past 2^64 to streams 0, 1, ..., or raised numpy's OverflowError
        last = stat_spec(paths_per_test=4, replications=2**64)
        streams = [2**64 - 4, 2**64 - 3, 2**64 - 2, 2**64 - 1]
        expected = pivots(last.params, *simulate_batch(last.params, last.seed, streams))
        assert replication_pivots(last, 2**62 - 1).tobytes() == expected.tobytes()
        monkeypatch.setattr(dl2u.dgp, "simulate_batch", no_draw)
        for B, rep in [(6, 2**64 // 6), (12, 2**64 // 12), (3, (2**64 - 1) // 3), (1, 2**64)]:
            spec = stat_spec(paths_per_test=B, replications=2**65)
            with pytest.raises(DomainError, match="paths_per_test must be at most 2\\^64"):
                replication_pivots(spec, rep)

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
        # a row with no limit law is rejected when it is built, before any draw
        spec = expl_spec()
        with pytest.raises(DomainError, match="c > 0"):
            replace(spec, params=replace(spec.params, c=0.0))

    def test_stationary_c_zero_is_domain_error(self):
        spec = stat_spec()
        with pytest.raises(DomainError, match="normal target needs a positive variance"):
            replace(spec, params=replace(spec.params, c=0.0))

    def test_overflow_names_replication_and_exponent(self):
        # sqrt(n k_n) is formed with the row's limit law, so the row is never built
        with pytest.raises(NumericOverflowError, match="n k_n"):
            stat_spec(params=replace(stat_spec().params, kn=SequenceSpec.parse("const:1e+308")))
        params = replace(expl_spec().params, n=10**5, kn=SequenceSpec.parse("log"))
        y, u = np.zeros((1, params.n + 1)), np.zeros((1, params.n))
        y[0, 0] = u[0, 0] = 1.0  # centered error 1
        with pytest.raises(NumericOverflowError, match="explosive pivot overflow: n log rho_n"):
            pivots(params, y, u)

    def test_a_path_of_zeros_is_degenerate(self):
        # sigma2 = exp(z) underflows to 0, so y is 0 and every score would be 0 / 0
        spec = stat_spec(params=replace(stat_spec().params, n=50, z0=-1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="degenerate path: .* on path 0"):
                replication_pivots(spec, 0)

    def test_run_replication_returns_ks_result(self):
        res = run_replication(stat_spec(), 0)
        assert 0 <= res.d_stat <= 1


class TestRowsWithoutAPivotScale:
    """A row whose pivot has no scale is rejected when it is built, before any draw."""

    @pytest.mark.parametrize("kn, error, match, code", [
        ("const:1e+308", NumericOverflowError, "n k_n", 4),
        ("const:1", DomainError, "k_n > c", 3),
    ], ids=["n-kn-overflow", "kn-not-above-c"])
    def test_spec_hist_and_table_draw_nothing(self, kn, error, match, code, monkeypatch, capsys):
        monkeypatch.setattr(dl2u.dgp, "draw_innovations", no_draw)
        row = SequenceSpec.parse(kn)  # table 2b has c = 1
        with pytest.raises(error, match=match):
            ExperimentSpec(table_params("2b", row, 50))
        # hist builds the spec of emit_histogram first
        assert main(["hist", "--n", "50", "--kn", kn, "--paths", "5"]) == code
        assert match in capsys.readouterr().err
        monkeypatch.setitem(dl2u.montecarlo._TABLES, "2b", (1.0, 0.5, Regime.NEAR_STATIONARY,
                                                            [("bad", row)]))
        with pytest.raises(error, match=match):
            run_table("2b", n_nearstat=50, replications=1, paths_per_test=5)


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

    def test_concurrent_batches_of_two_shapes_match_serial(self):
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
        spec = stat_spec()
        results = [run_replication(spec, rep) for rep in range(spec.replications)]
        accepted = sum(r.p_value > spec.alpha_level for r in results)
        mean_ks, acceptance = run_experiment(spec)
        assert mean_ks == float(np.mean([r.d_stat for r in results]))
        assert acceptance == accepted / spec.replications


class TestTables:
    def test_row_layouts(self):
        assert len(table_kn_rows("1a")) == 8
        assert len(table_kn_rows("1b")) == 8
        assert len(table_kn_rows("2a")) == 6
        assert len(table_kn_rows("2b")) == 6
        assert table_kn_rows("2a")[0][0] == "n^0.1"

    def test_table_params(self):
        kn = SequenceSpec.parse("pow:0.5")
        got = [table_params(tid, kn) for tid in TABLE_IDS]
        assert [(p.c, p.d, p.alpha, p.n, p.kn, p.regime) for p in got] == [
            (1.0, 1.0, 0.0, 1000, kn, Regime.NEAR_STATIONARY),
            (0.5, 1.0, 0.0, 300, kn, Regime.MILDLY_EXPLOSIVE),
            (0.5, 1.0, 0.5, 300, kn, Regime.MILDLY_EXPLOSIVE),
            (1.0, 1.0, 0.5, 1000, kn, Regime.NEAR_STATIONARY),
        ]
        assert [table_params(tid, kn, 400) for tid in TABLE_IDS] == [replace(p, n=400) for p in got]

    def test_unknown_table_id(self):
        with pytest.raises(DomainError):
            table_kn_rows("3c")
        with pytest.raises(DomainError):
            table_params("3c", SequenceSpec.parse("log"))
        with pytest.raises(DomainError):
            run_table("3c")

    def test_a_seed_that_is_no_integer_is_a_domain_error(self):
        with pytest.raises(DomainError, match="base must be a 64-bit unsigned integer"):
            run_table("2a", n_explosive=50, replications=1, paths_per_test=5, seed=1.5)

    @pytest.mark.parametrize("kind", [np.int64, np.uint64])
    def test_a_numpy_integer_seed_gives_the_int_seeds_rows(self, kind):
        kw = dict(n_explosive=50, replications=1, paths_per_test=5)
        assert run_table("2a", seed=kind(5), **kw) == run_table("2a", seed=5, **kw)

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
        for bins in (5, 10.5, 20.0):
            with pytest.raises(DomainError, match="need at least 10 bins"):
                emit_histogram(stat_spec(), bins=bins)
