import hashlib
import inspect
import random
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dl2u import montecarlo, oracles
from dl2u.dgp import (
    RngSeed, _recur, _shocks, draw_innovations, simulate_batch, simulate_path, simulate_y,
)
from dl2u.errors import DomainError, NumericOverflowError
from dl2u.sequences import Regime, SequenceSpec, phi_n, rho_n


RNG = np.random.default_rng(20)


def stat_params(**kw):  # table 2b's n^0.25 row at n = 200
    return replace(montecarlo.table_params("2b", SequenceSpec.parse("pow:0.25"), 200), **kw)


def batch_with_sigma2(params, base, streams):
    """simulate_batch's (y, u) with sigma2 between them, broadcast to y's shape.

    simulate_batch frees sigma2, so it is taken from _shocks given an array
    to fill and keep, which must give the same u.
    """
    y, u = simulate_batch(params, base, streams)
    sigma2 = np.empty((len(streams) if params.alpha > 0 else 1, params.n + 1))
    assert _shocks(params, base, streams, sigma2=sigma2).tobytes() == u.tobytes()
    return y, np.broadcast_to(sigma2, y.shape), u


def fresh_normals(base, stream, series, n):
    """The first n normals of a newly built Philox generator at this address."""
    bitgen = np.random.Philox(key=base | stream << 64, counter=series << 192)
    return np.random.Generator(bitgen).standard_normal(n)


class TestRngSeed:
    def test_validates_64_bit_range(self):
        RngSeed(2**64 - 1, 2**64 - 1)
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(0, 2**64)
        seed = RngSeed(np.uint64(2**64 - 1), np.uint8(3))  # kept as the Python ints they equal
        assert (seed.base, seed.stream) == (2**64 - 1, 3)
        assert type(seed.base) is type(seed.stream) is int

    @pytest.mark.parametrize("base, stream, error", [
        (0, 1.5, "stream must be"), (True, 0, "base must be"), (np.True_, 0, "base must be"),
    ], ids=["float-stream", "bool-base", "numpy-bool-base"])
    def test_an_address_is_an_integer_and_no_bool(self, base, stream, error):
        with pytest.raises(DomainError, match=error):
            RngSeed(base, stream)

    @pytest.mark.parametrize("base", [1.5, True], ids=["float", "bool"])
    def test_batch_rejects_a_base_that_is_no_integer(self, base):
        # Philox would take 1.5 and True as key 1 and draw base 1's paths
        with pytest.raises(DomainError, match="base must be a 64-bit unsigned integer"):
            simulate_batch(stat_params(), base, [0])

    @pytest.mark.parametrize("streams", [[1.5], [True], ["3"], [-1], [2**64]],
                             ids=["float", "bool", "str", "negative", "2^64"])
    def test_batch_rejects_a_stream_that_is_no_address(self, streams):
        # a uint64 cast would run 1.5, True and "3" as streams 1, 1 and 3, and overflow on the rest
        with pytest.raises(DomainError, match="stream must be a 64-bit unsigned integer"):
            simulate_batch(stat_params(), 7, streams)

    @pytest.mark.parametrize("streams", [[5, 0, 5, 2**64 - 1], np.array([1, 2], dtype=np.int8)],
                             ids=["list", "int8-array"])
    def test_batch_takes_integer_streams_of_any_kind(self, streams):
        want = simulate_batch(stat_params(), 7, np.array(streams, dtype=np.uint64))
        got = simulate_batch(stat_params(), 7, streams)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestDeterminism:
    def test_rerun_is_bit_identical(self):
        p = stat_params()
        a = simulate_path(p, RngSeed(11, 3))
        b = simulate_path(p, RngSeed(11, 3))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.sigma2, b.sigma2)
        assert np.array_equal(a.u, b.u)

    def test_batch_rows_match_single_paths_bitwise(self):
        p = stat_params()
        y, sigma2, u = batch_with_sigma2(p, 11, [0, 5, 9])
        for row, stream in enumerate([0, 5, 9]):
            single = simulate_path(p, RngSeed(11, stream))
            assert np.array_equal(y[row], single.y)
            assert np.array_equal(sigma2[row], single.sigma2)
            assert np.array_equal(u[row], single.u)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_draws_match_fresh_generators(self, alpha):
        # Re-keying one Philox must leave no buffered draw behind: an odd n
        # stops each series mid-block.
        p = stat_params(alpha=alpha, n=17)
        base, streams = 2**64 - 1, [9, 0, 2**64 - 1, 5]
        eps, eta = draw_innovations(p, base, streams)
        assert eps.shape == (len(streams), p.n)
        assert eta.flags.writeable
        if alpha == 0:  # no eta draws: one row of zeros serves every path
            assert eta.shape == (1, p.n)
            assert np.array_equal(eta, np.zeros((1, p.n)))
        else:
            assert eta.shape == (len(streams), p.n)
        for j, s in enumerate(streams):
            assert np.array_equal(eps[j], fresh_normals(base, s, 0, p.n))
            if alpha > 0:
                assert np.array_equal(eta[j], alpha * fresh_normals(base, s, 1, p.n))

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "after-other-call"])
    @pytest.mark.parametrize("n", [3, 17, 65])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_no_state_carries_over(self, alpha, n, warm):
        # The reused state dict is rewritten in place per row and series:
        # repeated and out-of-order streams, and an earlier call with another
        # base and stream set, must not leak a key, counter or buffered draw.
        p = stat_params(alpha=alpha, n=n)
        base, streams = 12345, [5, 0, 5, 2**64 - 1]
        if warm:
            draw_innovations(stat_params(alpha=0.5, n=n + 2), 2**64 - 1, [7, 2**63, 1])
        eps, eta = draw_innovations(p, base, streams)
        for j, s in enumerate(streams):
            assert np.array_equal(eps[j], fresh_normals(base, s, 0, n))
            assert np.array_equal(eta[j if alpha > 0 else 0], alpha * fresh_normals(base, s, 1, n))

    def test_one_generator_per_batch(self, monkeypatch):
        made = {"Philox": 0, "Generator": 0}

        def counted(cls):
            def build(*args, **kwargs):
                made[cls.__name__] += 1
                return cls(*args, **kwargs)
            return build

        for name in made:
            monkeypatch.setattr(np.random, name, counted(getattr(np.random, name)))
        simulate_batch(stat_params(n=20), 3, range(500))
        assert made == {"Philox": 1, "Generator": 1}

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_draws_read_no_os_entropy(self, monkeypatch, alpha):
        # an unseeded Philox reaches os.urandom through SeedSequence and secrets.randbits
        reads = []
        urandom = random._urandom
        monkeypatch.setattr(random, "_urandom", lambda size: reads.append(size) or urandom(size))
        p = stat_params(n=20, alpha=alpha)
        simulate_batch(p, 3, range(4))
        simulate_y(p, 3, range(4))
        simulate_path(p, RngSeed(3, 1))
        assert reads == []

    def test_streams_are_distinct(self):
        p = stat_params()
        a = simulate_path(p, RngSeed(11, 0))
        b = simulate_path(p, RngSeed(11, 1))
        assert not np.array_equal(a.y, b.y)


class TestRecursion:
    def test_shapes(self):
        p = stat_params(n=17)
        path = simulate_path(p, RngSeed(0))
        assert path.y.shape == (18,)
        assert path.sigma2.shape == (18,)
        assert path.u.shape == (17,)

    def test_alpha_zero_is_homoskedastic(self):
        p = stat_params(alpha=0.0)
        path = simulate_path(p, RngSeed(3))
        assert np.all(path.sigma2 == 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_batch_returns_y_and_u_and_a_path_keeps_sigma2(self, alpha):
        p = stat_params(alpha=alpha, n=40, z0=0.5)
        assert [a.shape for a in simulate_batch(p, 3, [0, 1, 2])] == [(3, 41), (3, 40)]
        assert simulate_path(p, RngSeed(3)).sigma2.shape == (41,)

    def test_mean_recursion_holds(self):
        p = stat_params()
        path = simulate_path(p, RngSeed(3))
        rho = rho_n(p)
        recon = rho * path.y[:-1] + path.u
        assert np.allclose(recon, path.y[1:], rtol=0, atol=0)

    def test_initial_conditions(self):
        p = stat_params(y0=5.0, z0=1.0)
        path = simulate_path(p, RngSeed(3))
        assert path.y[0] == 5.0
        assert path.sigma2[0] == pytest.approx(np.exp(1.0), rel=1e-15)


def column_loop_batch(params, base, streams):
    """simulate_batch as one strided column step at a time, from the same draws."""
    eps, eta = draw_innovations(params, base, streams)
    B, n = eps.shape
    rho, phi = rho_n(params), phi_n(params)
    y, sigma2 = np.empty((B, n + 1)), np.empty((B, n + 1))
    y[:, 0], sigma2[:, 0] = params.y0, params.z0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n):
            np.multiply(sigma2[:, t], phi, out=sigma2[:, t + 1])
            sigma2[:, t + 1] += eta[:, t]  # eta = 0 at alpha = 0
        np.exp(sigma2, out=sigma2)
        u = np.sqrt(sigma2[:, 1:]) * eps
        for t in range(n):
            np.multiply(y[:, t], rho, out=y[:, t + 1])
            y[:, t + 1] += u[:, t]
    return y, sigma2, u


class TestShocks:
    @pytest.mark.parametrize("B", [1, 3])
    def test_alpha_zero_z0_zero_returns_the_draws(self, B, monkeypatch):
        # z stays 0, so sigma2 is exactly 1 and u = eps * 1 is eps: no recurrence runs
        p = stat_params(alpha=0.0, z0=0.0)
        streams = np.arange(B, dtype=np.uint64)
        eps, _ = draw_innovations(p, 17, streams)

        def no_recur(*args):
            raise AssertionError("the volatility pass ran")

        monkeypatch.setattr("dl2u.dgp._recur", no_recur)
        sigma2 = np.full((1, p.n + 1), np.nan)
        assert _shocks(p, 17, streams, sigma2=sigma2).tobytes() == eps.tobytes()
        assert _shocks(p, 17, streams).tobytes() == eps.tobytes()
        assert sigma2.tobytes() == np.ones((1, p.n + 1)).tobytes()


class TestTiles:
    # n = 3 is one partial tile, 64 exactly one, 63/65/130 straddle boundaries;
    # the constant r_n keeps phi_n admissible down to n = 3.
    @pytest.mark.parametrize("n", [3, 63, 64, 65, 130])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_matches_column_loop_bitwise(self, n, B, alpha):
        p = stat_params(alpha=alpha, n=n, rn=SequenceSpec.parse("const:10"), y0=2.5, z0=-1.25)
        streams = np.arange(B, dtype=np.uint64)
        for got, want in zip(batch_with_sigma2(p, 13, streams), column_loop_batch(p, 13, streams)):
            assert np.array_equal(got, want)

    def test_single_step(self):
        # one step is below ModelParams' n >= 3, so the helper is checked alone
        x = np.array([[2.5, 0.0], [-1.0, 0.0]])
        _recur(x, np.array([[0.25], [3.0]]), 0.5)
        assert x[:, 1].tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("B", [1, 2])
    def test_shocks_may_be_the_filled_columns(self, B):
        # B = 1 runs the float loop and B = 2 the tiles; n = 130 ends in a partial tile
        rng = np.random.default_rng(130)
        x0, shocks = rng.standard_normal(B), rng.standard_normal((B, 130))
        apart, in_place = np.empty((B, 131)), np.empty((B, 131))
        apart[:, 0] = in_place[:, 0] = x0
        in_place[:, 1:] = shocks
        _recur(apart, shocks, 0.97)
        _recur(in_place, in_place[:, 1:], 0.97)
        assert in_place.tobytes() == apart.tobytes()

    # (x0, shocks, coef) of one row; n = 130 spans three tiles of the B > 1 path
    ONE_ROW_CASES = {
        "coef-zero": (1.5, RNG.standard_normal(130), 0.0),
        "coef-negative": (-2.0, RNG.standard_normal(130), -0.97),
        # the row alternates between -inf and +inf, and the inf shocks meet both
        "coef-huge-overflows-to-nan": (1.0, np.r_[RNG.standard_normal(10), [np.inf, -np.inf] * 60],
                                       -1e300),
        "signed-zero-shocks": (-0.0, np.resize([0.0, -0.0, -0.0], 130), 0.5),
        "nonzero-x0": (1e10, RNG.standard_normal(130), 1.01),
        "alpha-0-zero-shock-view": (0.25, np.broadcast_to(0.0, (130,)), 0.999),
    }

    @pytest.mark.parametrize("case", ONE_ROW_CASES)
    def test_one_row_loop_matches_tiles_bitwise(self, case):
        x0, shocks, coef = self.ONE_ROW_CASES[case]
        one = np.empty((1, 131))
        one[0, 0] = x0
        _recur(one, shocks[None], coef)
        two = np.empty((2, 131))
        two[:, 0] = x0, 3.0
        with np.errstate(over="ignore", invalid="ignore"):
            _recur(two, np.stack([shocks, np.ones(130)]), coef)  # B = 2 runs the tiles
        assert np.array_equal(one[0], two[0], equal_nan=True)
        assert one[0].tobytes() == two[0].tobytes()  # signed zeros and NaN payloads too


class TestOverflow:
    P = stat_params(c=100.0, n=300, kn=SequenceSpec.parse("const:1"),
                    regime=Regime.MILDLY_EXPLOSIVE)

    def test_overflow_raises_with_location(self):
        streams = np.arange(3, dtype=np.uint64)
        y, _, _ = column_loop_batch(self.P, 0, streams)
        j_bad, t_bad = np.argwhere(~np.isfinite(y))[0]
        assert t_bad < self.P.n  # overflows mid-path, so only the end of the row is seen
        # the message of the full scan, which the last-column check must keep
        message = (f"y overflowed at index t={t_bad} (seed base=0, stream={streams[j_bad]}); "
                   f"n log rho = {self.P.n * np.log(rho_n(self.P)):g}")
        with pytest.raises(NumericOverflowError) as exc:
            simulate_batch(self.P, 0, streams)
        assert str(exc.value) == message

    def test_single_path_raises_as_its_batch_row(self):
        # the batch names its first failing row, which simulate_path (B = 1) must name alike
        streams = [5, 9]
        with pytest.raises(NumericOverflowError) as batch:
            simulate_batch(self.P, 2, streams)
        with pytest.raises(NumericOverflowError) as single:
            simulate_path(self.P, RngSeed(2, streams[0]))
        assert str(single.value) == str(batch.value)

    SIMULATE = pytest.mark.parametrize("simulate", [
        simulate_batch, simulate_y,
        lambda params, base, streams: simulate_path(params, RngSeed(base, streams[0])),
    ], ids=["batch", "y-alone", "single-path"])

    @SIMULATE
    def test_huge_alpha_raises_without_a_warning(self, simulate):
        # alpha * eta overflows before the recursion; the check of y reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="^y overflowed"):
                simulate(stat_params(alpha=1e308), 0, [0, 1, 2])

    @SIMULATE
    def test_sigma2_0_overflow_draws_nothing(self, simulate, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("a path was drawn")
        monkeypatch.setattr("dl2u.dgp.draw_innovations", no_draw)
        message = r"^sigma2_0 = exp\(z0\) overflowed at z0 = 710$"
        with pytest.raises(NumericOverflowError, match=message):
            simulate(stat_params(z0=710.0), 0, [0, 1, 2])

    def test_sigma2_0_is_finite_up_to_log_dbl_max(self):
        # the largest z0 whose exp is finite, then the next double
        z0 = 709.782712893384
        path = simulate_path(stat_params(z0=z0), RngSeed(0))
        assert path.sigma2[0] == np.exp(z0) < np.inf
        with pytest.raises(NumericOverflowError, match="sigma2_0"):
            simulate_path(stat_params(z0=np.nextafter(z0, np.inf)), RngSeed(0))

    @pytest.mark.parametrize("params", [P, stat_params(z0=710.0)], ids=["y", "sigma2_0"])
    def test_y_alone_raises_as_the_batch(self, params):
        with pytest.raises(NumericOverflowError) as batch:
            simulate_batch(params, 0, [0, 1, 2])
        with pytest.raises(NumericOverflowError) as alone:
            simulate_y(params, 0, [0, 1, 2])
        assert str(alone.value) == str(batch.value)


# SHA-256 of simulate_batch's y, the kept sigma2 and u, as <f8 bytes.
# Existing seeds must keep reproducing existing paths; each case reaches
# inputs that the benchmark's hash gates do not.
GOLDEN_CASES = {
    "y0-z0-alpha-0": (dict(alpha=0.0, y0=5.0, z0=1.0), 11, [0, 1, 2],
                      "37e478fd2d8d23bc28ae528706c5c145cc9364dfed4a58a4cafd09319f88013a"),
    "y0-z0-alpha-0.5": (dict(y0=-3.0, z0=-0.75), 11, [0, 1, 2],
                        "12ceeab820ee348ce6d784c2390b382138bacc2959dbec55a3a7bb037c3268b2"),
    "explosive": (dict(n=300, kn=SequenceSpec.parse("pow:0.5"), regime=Regime.MILDLY_EXPLOSIVE),
                  7, [0, 1, 2],
                  "8c535511f12882ba4838de56f497ec3c3f7dd85dfd006ccf0c6c0ed00a487660"),
    "one-path-odd-n": (dict(n=17), 3, [4],
                       "3276cc8e78424586a172a9bda0d5cf2cba65ce4bcf4b47c7438d8160b9907de2"),
    "max-base-and-stream": (dict(), 2**64 - 1, [2**64 - 1],
                            "c1fe73feb0ade05b87dc7810e8b80772a2105d28b32e754058586650e35c1dbc"),
    "streams-out-of-order": (dict(), 11, [9, 0, 5],
                             "cbbeebdb556acb7a4e356519997d3b956fbea2aa2c09bceeedab3b33a5483267"),
}


class TestGolden:
    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_batch_output_digest(self, case):
        kw, base, streams, digest = GOLDEN_CASES[case]
        arrays = batch_with_sigma2(stat_params(**kw), base, streams)
        got = hashlib.sha256(b"".join(a.astype("<f8").tobytes() for a in arrays))
        assert got.hexdigest() == digest

    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_y_alone_matches_the_batch(self, case):
        kw, base, streams, _ = GOLDEN_CASES[case]
        p = stat_params(**kw)
        y, _ = simulate_batch(p, base, streams)
        assert simulate_y(p, base, streams).tobytes() == y.tobytes()


def traced_peak(call, *args) -> int:
    """tracemalloc's peak, in bytes, over call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # Bounds are in (B, n+1) float64 arrays.  u is formed in eps's memory,
    # eta is drawn into sigma2's and sqrt(sigma2) is written over it; the
    # recurrence tiles add 2 * 64 + 1 rows of B.
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_traced_peak_counts_only_live_arrays(self, alpha):
        # At alpha = 0: y and u, as sigma2 is one row.  At alpha > 0: u and
        # sigma2, then, with sigma2 freed, y and u; with the tiles (0.13 of
        # an array at n = 1000).
        B, n = 500, 1000
        peak = traced_peak(simulate_batch, stat_params(alpha=alpha, n=n), 5,
                           np.arange(B, dtype=np.uint64))
        assert peak <= 2.25 * 8 * B * (n + 1)

    def test_verify_eq6_holds_only_y(self):
        # verify's grid and seed: y of one block, a half of the n = 10000 paths, and the
        # tiles (0.013); the n = 1000 point's whole batch, 0.2 of that, is freed first
        peak = traced_peak(oracles.check_eq6_convergence, oracles.VERIFY_EQ6_GRID, 708)
        assert peak <= 1.25 * 8 * (oracles.EQ6_PATHS // 2) * (oracles.VERIFY_EQ6_GRID[-1].n + 1)

    def test_verify_wn_vn_holds_one_batch(self):
        # verify's params and seed: u and sigma2, then y and u, of one block, a half of the
        # paths, at n = 300, and the tiles (0.43)
        peak = traced_peak(oracles.check_wnvn, oracles.VERIFY_WNVN, 709)
        assert peak <= 2.5 * 8 * (oracles.WNVN_PATHS // 2) * (oracles.VERIFY_WNVN.n + 1)


class TestReuse:
    def test_simulate_batch_signature_is_pinned(self):
        # The benchmark's per-layer counter is called with the wrapped call's
        # own arguments as (counts, params, base, streams), so a workspace or
        # out= argument would break `perfbench/run.py --trace 1`.
        params = inspect.signature(simulate_batch).parameters.values()
        assert [(q.name, q.kind, q.default) for q in params] == [
            (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
            for name in ("params", "base", "streams")
        ]
