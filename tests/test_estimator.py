import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl2u.dgp import RngSeed, SimulatedPath, simulate_batch, simulate_path
from dl2u.errors import DomainError, NumericOverflowError
from dl2u.estimator import (
    OlsResult,
    explosive_pair,
    normalized_sum_squares,
    ols_rho,
    pivot_S,
    pivot_T,
    pivots,
    score_rho_error,
    sign_flip,
)
from dl2u.montecarlo import table_params
from dl2u.sequences import SequenceSpec, eval_sequence, rho_n, scales


def stat_params(**kw):  # table 2b's n^0.25 row at n = 200
    return replace(table_params("2b", SequenceSpec.parse("pow:0.25"), 200), **kw)


def expl_params(**kw):  # table 2a's n^0.5 row
    return replace(table_params("2a", SequenceSpec.parse("pow:0.5")), **kw)


class TestOls:
    def test_noiseless_ar_is_recovered_exactly(self):
        rho = 0.987654321
        y = rho ** np.arange(50)
        assert ols_rho(y).rho_hat == pytest.approx(rho, rel=1e-15)

    def test_degenerate_path_raises(self):
        with pytest.raises(DomainError, match="degenerate"):
            ols_rho(np.zeros(10))
        with pytest.raises(DomainError):
            ols_rho([1.0])

    def test_scale_invariance_power_of_two_is_exact(self):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(100).cumsum()
        assert ols_rho(4.0 * y).rho_hat == ols_rho(y).rho_hat

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(min_value=0.01, max_value=100.0))
    def test_scale_invariance_general(self, lam):
        rng = np.random.default_rng(5)
        y = rng.standard_normal(100).cumsum()
        assert ols_rho(lam * y).rho_hat == pytest.approx(ols_rho(y).rho_hat, rel=1e-12)


class TestSignFlip:
    def test_is_involution(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(31)
        assert np.array_equal(sign_flip(sign_flip(y)), y)

    def test_negates_rho_hat_exactly(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(100).cumsum()
        assert ols_rho(sign_flip(y)).rho_hat == -ols_rho(y).rho_hat


class TestScoreForm:
    def test_matches_direct_difference_when_stable(self):
        p = stat_params()
        path = simulate_path(p, RngSeed(1, 0))
        direct = ols_rho(path.y).rho_hat - rho_n(p)
        assert score_rho_error(path) == pytest.approx(direct, rel=1e-8)

    def test_survives_deep_explosive_cancellation(self):
        # rho_n^n here is ~1e33, so the direct difference underflows the
        # rounding error of rho_hat; the score form must stay finite & small
        p = expl_params(n=300, kn=SequenceSpec.parse("pow:0.1"))
        path = simulate_path(p, RngSeed(1, 0))
        err = score_rho_error(path)
        assert 0 < abs(err) < 1e-20


class TestPivots:
    def test_pivot_T_value_and_target(self):
        p = stat_params()
        path = simulate_path(p, RngSeed(1, 0))
        err = score_rho_error(path)
        piv = pivot_T(ols_rho(path.y), p, rho_error=err)
        kn = eval_sequence(p.kn, p.n)
        assert piv.value == pytest.approx(math.sqrt(p.n * kn) * err, rel=1e-14)

    def test_pivot_S_fixture(self):
        # n = 300, c = 0.5, k_n = sqrt(300), centered error 1e-4:
        # rho_n^300 * k_n * 1e-4 / (2c) = 8.838875127750353
        p = expl_params()
        ols = OlsResult(numerator=1.0, denominator=1.0)
        piv = pivot_S(ols, p, rho_error=1e-4)
        assert piv.value == pytest.approx(8.838875127750353, rel=1e-12)

    def test_pivot_regime_guards(self):
        ols = OlsResult(1.0, 1.0)
        with pytest.raises(DomainError):
            pivot_T(ols, expl_params(), rho_error=1e-4)
        with pytest.raises(DomainError):
            pivot_S(ols, stat_params(), rho_error=1e-4)

    def test_pivot_T_needs_kn_above_c(self):
        # no root 1 - c/k_n at k_n <= c: the scale alone, sqrt(n k_n), is finite
        p = stat_params(n=3, kn=SequenceSpec.parse("const:0.5"))
        with pytest.raises(DomainError, match="k_n > c"):
            pivot_T(OlsResult(1.0, 1.0), p, rho_error=1e-4)

    @pytest.mark.parametrize("pivot, params", [(pivot_T, stat_params), (pivot_S, expl_params)])
    def test_rho_error_is_required(self, pivot, params):
        # no direct-difference fallback: the centered error comes in score form only
        with pytest.raises(TypeError, match="rho_error"):
            pivot(OlsResult(1.0, 1.0), params())

    def test_pivot_S_overflow_names_exponent(self):
        p = expl_params(n=10**5, kn=SequenceSpec.parse("log"))
        with pytest.raises(NumericOverflowError, match="n log rho_n"):
            pivot_S(OlsResult(1.0, 1.0), p, rho_error=1.0)

    def test_pivot_S_zero_error(self):
        assert pivot_S(OlsResult(1.0, 1.0), expl_params(), rho_error=0.0).value == 0.0

    def test_explosive_scale_overflow_in_2c_raises(self):
        # log(2c) was log(inf) here, so every pivot read 0.0 instead of overflowing
        p = expl_params(n=3, c=1e308, kn=SequenceSpec.parse("lin"))
        y, u = np.array([[0.0, 0.5, 1.0, 1.0]]), np.array([[0.5, 0.75, 0.25]])
        with pytest.raises(NumericOverflowError, match="2c"):
            pivots(p, y, u)
        with pytest.raises(NumericOverflowError, match="2c"):
            pivot_S(OlsResult(1.0, 1.0), p, rho_error=1e-4)
        q = expl_params(c=1e308)  # scales needs n >= 16 here
        with pytest.raises(NumericOverflowError, match="2c"):
            explosive_pair(np.ones(q.n + 1), np.ones(q.n), q, scales(q))

    def test_explosive_entries_need_c_above_zero(self):
        # each divides by 2c, so c = 0 fails the one regime-and-c test they share
        p = expl_params(c=0.0)
        y, u = np.ones((1, p.n + 1)), np.ones((1, p.n))
        with pytest.raises(DomainError, match="c > 0"):
            pivots(p, y, u)
        with pytest.raises(DomainError, match="c > 0"):
            pivot_S(OlsResult(1.0, 1.0), p, rho_error=1e-4)
        with pytest.raises(DomainError, match="c > 0"):
            explosive_pair(y[0], u[0], p, scales(p))

    def test_paths_of_another_n_are_a_domain_error(self):
        # n = 100 paths must not take the n = 50 model's normalization silently, nor a short u
        # or a 1-d y escape as einsum's bare ValueError or an IndexError
        p = table_params("1a", SequenceSpec.parse("pow:0.5"), 50)
        big = replace(p, n=100)
        y, u = simulate_batch(big, 0, [0, 1])
        for args in [(p, y, u), (big, y, u[:, :-1]), (big, y[0], u[0]), (big, y, u[:1])]:
            with pytest.raises(DomainError, match=r"need paths y \(B, n\+1\) and u \(B, n\)"):
                pivots(*args)
        assert pivots(big, y, u).shape == (2,)


class TestNormalizedQuantities:
    def test_sum_squares_alpha_zero_direct(self):
        p = stat_params(alpha=0.0)
        path = simulate_path(p, RngSeed(4, 0))
        vol = scales(p)
        kn = eval_sequence(p.kn, p.n)
        direct = float(path.y[1:] @ path.y[1:]) / (p.n * kn)
        assert normalized_sum_squares(path.y, p, vol) == pytest.approx(direct, rel=1e-12)

    def test_sum_squares_regime_guard(self):
        p = expl_params()
        path = simulate_path(p, RngSeed(4, 0))
        with pytest.raises(DomainError):
            normalized_sum_squares(path.y, p, scales(p))

    def test_explosive_pair_ratio_reproduces_pivot(self):
        # at c = 0.5 the pair ratio equals the explosive pivot exactly
        p = expl_params()
        path = simulate_path(p, RngSeed(4, 0))
        vol = scales(p)
        first, second = explosive_pair(path.y, path.u, p, vol)
        piv = pivots(p, path.y[None], path.u[None])[0]
        assert first / second == pytest.approx(piv, rel=1e-10)

    def test_explosive_pair_regime_guard(self):
        p = stat_params()
        path = simulate_path(p, RngSeed(4, 0))
        with pytest.raises(DomainError):
            explosive_pair(path.y, path.u, p, scales(p))


class TestDegenerateScore:
    def test_zero_lag_path_raises(self):
        path = SimulatedPath(y=np.zeros(5), sigma2=np.ones(5), u=np.zeros(4))
        with pytest.raises(DomainError, match="degenerate"):
            score_rho_error(path)

    @pytest.mark.parametrize("params", [stat_params(n=10), expl_params(n=10)], ids=["T", "S"])
    def test_batched_pivots_reject_a_zero_lag_path_without_a_warning(self, params):
        # score / den was 0 / 0: a bare RuntimeWarning, or NaN pivots with warnings off
        y, u = np.ones((3, 11)), np.ones((3, 10))
        y[1], u[1] = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^degenerate path: .* on path 1$"):
                pivots(params, y, u)
