import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest

from dl2u.dgp import RngSeed, _recur, draw_innovations, simulate_batch, simulate_path
from dl2u.errors import NumericOverflowError
from dl2u.sequences import ModelParams, Regime, SequenceSpec, phi_n, rho_n


RNG = np.random.default_rng(20)


def stat_params(**kw):
    base = dict(
        c=1.0, d=1.0, alpha=0.5, n=200,
        kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY,
    )
    base.update(kw)
    return ModelParams(**base)


class TestRngSeed:
    def test_validates_64_bit_range(self):
        RngSeed(2**64 - 1, 2**64 - 1)
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(0, 2**64)


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
        y, sigma2, u = simulate_batch(p, 11, [0, 5, 9])
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
        assert eps.shape == eta.shape == (len(streams), p.n)
        for j, s in enumerate(streams):
            fresh_eps, fresh_eta = (
                np.random.Generator(np.random.Philox(key=base | s << 64, counter=series << 192))
                .standard_normal(p.n)
                for series in (0, 1)
            )
            assert np.array_equal(eps[j], fresh_eps)
            assert np.array_equal(eta[j], alpha * fresh_eta)
        assert eta.flags.writeable == (alpha > 0)  # alpha = 0: a read-only view of 0.0

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

    def test_alpha_zero_shares_one_read_only_sigma2_row(self):
        p = stat_params(alpha=0.0, n=40, z0=0.5)
        _, sigma2, _ = simulate_batch(p, 3, [0, 1, 2])
        assert sigma2.shape == (3, 41)
        assert not sigma2.flags.writeable
        assert (sigma2 == sigma2[0]).all()
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


class TestTiles:
    # n = 3 is one partial tile, 64 exactly one, 63/65/130 straddle boundaries;
    # the constant r_n keeps phi_n admissible down to n = 3.
    @pytest.mark.parametrize("n", [3, 63, 64, 65, 130])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_matches_column_loop_bitwise(self, n, B, alpha):
        p = stat_params(alpha=alpha, n=n, rn=SequenceSpec.constant(10.0), y0=2.5, z0=-1.25)
        streams = np.arange(B, dtype=np.uint64)
        for got, want in zip(simulate_batch(p, 13, streams), column_loop_batch(p, 13, streams)):
            assert np.array_equal(got, want)

    def test_single_step(self):
        # one step is below ModelParams' n >= 3, so the helper is checked alone
        x = np.array([[2.5, 0.0], [-1.0, 0.0]])
        _recur(x, np.array([[0.25], [3.0]]), 0.5)
        assert x[:, 1].tolist() == [1.5, 2.5]


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
    P = stat_params(c=100.0, n=300, kn=SequenceSpec.constant(1.0), regime=Regime.MILDLY_EXPLOSIVE)

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


# SHA-256 of simulate_batch's (y, sigma2, u) as <f8 bytes.  Existing seeds
# must keep reproducing existing paths; each case reaches inputs that the
# benchmark's hash gates do not.
GOLDEN_CASES = {
    "y0-z0-alpha-0": (dict(alpha=0.0, y0=5.0, z0=1.0), 11, [0, 1, 2],
                      "37e478fd2d8d23bc28ae528706c5c145cc9364dfed4a58a4cafd09319f88013a"),
    "y0-z0-alpha-0.5": (dict(y0=-3.0, z0=-0.75), 11, [0, 1, 2],
                        "12ceeab820ee348ce6d784c2390b382138bacc2959dbec55a3a7bb037c3268b2"),
    "explosive": (dict(n=300, kn=SequenceSpec.power_of_n(0.5), regime=Regime.MILDLY_EXPLOSIVE),
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
        arrays = simulate_batch(stat_params(**kw), base, streams)
        got = hashlib.sha256(b"".join(a.astype("<f8").tobytes() for a in arrays))
        assert got.hexdigest() == digest


class TestMemory:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_traced_peak_counts_only_live_arrays(self, alpha):
        # The (B, n)-sized arrays are y and eps at alpha = 0 (eta is a view of
        # 0.0 and sigma2 one row), and y, sigma2, eps and eta at alpha > 0 (u
        # is formed in eps, and sqrt(sigma2) in eta).  The recurrence tiles
        # add 0.13 of an array at n = 1000.
        B, n = 500, 1000
        p = stat_params(alpha=alpha, n=n)
        tracemalloc.start()
        try:
            simulate_batch(p, 5, np.arange(B, dtype=np.uint64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = 4.25 if alpha > 0 else 2.25
        assert peak <= arrays * 8 * B * (n + 1)


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
