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
            TargetLaw.normal(-1.0)
        for variance in (math.nan, math.inf, -math.inf):  # NaN passes `variance <= 0`
            with pytest.raises(DomainError, match="normal target needs a positive variance"):
                TargetLaw.normal(variance)


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

        assert cdf(law, math.sqrt(2.0)) == float(ndtr(1.0))

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
        for m in (0, 1.5, math.nan, True, 10**400):  # m is an integer in [1, 2^53]
            with pytest.raises(DomainError, match="sample size must be an integer"):
                ks_pvalue(0.1, m)
        assert ks_pvalue(0.1, np.int64(500)).hex() == ks_pvalue(0.1, 500).hex()

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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _with_neighbours(points):
    xs = np.array(points, dtype=float)
    return np.concatenate([np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)])


class TestScipyOracle:
    """The normal CDF and the KS p-value replay scipy.special bit for bit.

    scipy is a test-only dependency: the library computes both without it.
    """

    # Branch edges of Cephes ndtr at variance 1: x = a/sqrt(2) reaches 1/sqrt(2)
    # at |a| = 1, the erf/erfc switch at sqrt(2), the P/Q to R/S switch at
    # 8 sqrt(2), and erfc's underflow edge near |a| = 37.68.
    EDGES = [s * b for b in (1.0, math.sqrt(2.0), 8 * math.sqrt(2.0), 37.68, 0.0, math.inf)
             for s in (1.0, -1.0)]

    @pytest.mark.parametrize("variance", [1.0, 2.0])
    def test_ndtr_matches_on_grid_and_edges(self, variance):
        from scipy.special import ndtr

        x = np.concatenate([np.linspace(-40, 40, 400001), _with_neighbours(self.EDGES),
                            np.linspace(37.6, 37.8, 20001), -np.linspace(37.6, 37.8, 20001)])
        got = cdf(TargetLaw.normal(variance), x)
        want = ndtr(x / math.sqrt(variance))
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("scale", [1.0, 4.0, 15.0])
    def test_ndtr_matches_on_seeded_normals(self, scale):
        from scipy.special import ndtr

        x = scale * np.random.default_rng(16).standard_normal(10**6)
        assert np.array_equal(_bits(cdf(TargetLaw.normal(1.0), x)), _bits(ndtr(x)))

    def test_ndtr_keeps_scalar_and_shape(self):
        from scipy.special import ndtr

        law = TargetLaw.normal(1.0)
        assert type(cdf(law, 0.3)) is type(ndtr(0.3))
        x = np.linspace(-3, 3, 12).reshape(3, 4)
        assert np.array_equal(_bits(cdf(law, x)), _bits(ndtr(x)))
        assert cdf(law, np.empty(0)).shape == (0,)

    def test_pvalue_matches_kolmogorov(self):
        from scipy.special import kolmogorov

        # The Stephens factor at m = 3000 is 54.89, so d in [0, 1] spans the
        # scaled argument x over [0, 40], and every double near 0.82 is some
        # factor * d (the factor's mantissa, 1.72, exceeds 0.82's, 1.64).
        m = 3000
        factor = math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m)
        ds = list(np.linspace(0.0, 40.0 / factor, 400001))
        ds += list(np.linspace(0.0, 0.05 / factor, 5001))
        ds += [5e-324, 1e-300, 1e-20]
        # the series switch at 0.82 and the early return at 0.04, to the ulp
        for x in _with_neighbours([0.82, 0.04]):
            near = _with_neighbours(_with_neighbours([x / factor]))
            ds.append(next(float(d) for d in near if factor * d == x))
        got = np.array([ks_pvalue(float(d), m) for d in ds])
        want = np.array([kolmogorov(factor * float(d)) for d in ds])
        assert np.array_equal(_bits(got), _bits(want))
