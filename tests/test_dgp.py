import numpy as np
import pytest

from dl2u.dgp import RngSeed, simulate_batch, simulate_path
from dl2u.errors import NumericOverflowError
from dl2u.sequences import ModelParams, Regime, SequenceSpec, rho_n


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

    def test_n_zero_edge(self):
        p = stat_params(n=0, y0=5.0)
        path = simulate_path(p, RngSeed(3))
        assert np.array_equal(path.y, [5.0])
        assert path.u.size == 0


class TestOverflow:
    def test_overflow_raises_with_location(self):
        p = stat_params(
            c=100.0, n=300, kn=SequenceSpec.constant(1.0),
            regime=Regime.MILDLY_EXPLOSIVE,
        )
        with pytest.raises(NumericOverflowError, match="t="):
            simulate_batch(p, 0, [0])
