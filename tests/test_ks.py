import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl2u.errors import DomainError
from dl2u.ks import TargetLaw, cdf, density, ks_pvalue, ks_statistic, ks_test


class TestTargetLaw:
    def test_labels(self):
        assert TargetLaw.normal(2.0).label() == "N(0,2)"
        assert TargetLaw.standard_cauchy().label() == "Cauchy(0,1)"

    def test_validation(self):
        with pytest.raises(DomainError):
            TargetLaw("normal", -1.0)
        with pytest.raises(DomainError):
            TargetLaw("normal")
        with pytest.raises(DomainError):
            TargetLaw("cauchy", 1.0)
        with pytest.raises(DomainError):
            TargetLaw("students_t")


class TestCdfDensity:
    def test_cauchy_quartiles(self):
        law = TargetLaw.standard_cauchy()
        assert cdf(law, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert cdf(law, 1.0) == pytest.approx(0.75, abs=1e-15)
        assert cdf(law, -1.0) == pytest.approx(0.25, abs=1e-15)

    def test_normal_symmetry_and_scale(self):
        law = TargetLaw.normal(2.0)
        x = np.linspace(-4, 4, 33)
        assert np.allclose(cdf(law, x) + cdf(law, -x), 1.0, atol=1e-14)
        # variance-2 normal at sqrt(2) matches the standard normal at 1
        from scipy.special import ndtr

        assert cdf(law, math.sqrt(2.0)) == pytest.approx(float(ndtr(1.0)), rel=1e-14)

    @pytest.mark.parametrize("law", [TargetLaw.normal(2.0), TargetLaw.standard_cauchy()])
    def test_density_integrates_to_cdf_increment(self, law):
        x = np.linspace(-30, 30, 200001)
        mass = np.trapezoid(density(law, x), x)
        expected = float(cdf(law, 30.0) - cdf(law, -30.0))
        assert mass == pytest.approx(expected, rel=1e-6)


class TestKsStatistic:
    def test_midpoint_quantile_sample_attains_half_spacing(self):
        # points at the (i - 1/2)/m target quantiles give D = 1/(2m) exactly
        law = TargetLaw.normal(1.0)
        m = 64
        from scipy.special import ndtri

        sample = ndtri((np.arange(1, m + 1) - 0.5) / m)
        assert ks_statistic(sample, law) == pytest.approx(1.0 / (2 * m), rel=1e-12)

    def test_rejects_nan_and_empty(self):
        law = TargetLaw.normal(1.0)
        with pytest.raises(DomainError):
            ks_statistic([0.1, float("nan")], law)
        with pytest.raises(DomainError):
            ks_statistic([], law)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=200))
    def test_statistic_lies_in_unit_interval(self, xs):
        d = ks_statistic(xs, TargetLaw.standard_cauchy())
        assert 0.0 <= d <= 1.0


class TestKsPvalue:
    def test_bounds_and_degenerate_cases(self):
        assert ks_pvalue(0.0, 100) == 1.0
        assert ks_pvalue(1.0, 100) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DomainError):
            ks_pvalue(1.5, 100)
        with pytest.raises(DomainError):
            ks_pvalue(0.1, 0)

    def test_monotone_decreasing_in_d(self):
        ds = np.linspace(0.01, 0.5, 50)
        ps = [ks_pvalue(d, 500) for d in ds]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_critical_value_at_m_500(self):
        # the 5% two-sided critical distance at m = 500 is about 0.0604
        assert ks_pvalue(0.0604, 500) == pytest.approx(0.05, abs=0.002)

    def test_ks_test_bundles_fields(self):
        rng = np.random.default_rng(0)
        res = ks_test(rng.standard_normal(400), TargetLaw.normal(1.0))
        assert 0 <= res.d_stat <= 1
        assert res.p_value > 0.01
