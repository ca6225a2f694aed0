import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl2u.errors import DomainError
from dl2u.sequences import (
    ModelParams,
    Regime,
    SequenceKind,
    SequenceSpec,
    dispersion,
    eval_sequence,
    phi_n,
    rho_n,
    scales,
)


def stat_params(**kw):
    base = dict(
        c=1.0, d=1.0, alpha=0.5, n=1000,
        kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY,
    )
    base.update(kw)
    return ModelParams(**base)


class TestSequenceSpec:
    def test_parse_label_roundtrip(self):
        for text in ["const:3", "log", "pow:0.25", "lin"]:
            spec = SequenceSpec.parse(text)
            assert SequenceSpec.parse(spec.label()) == spec

    def test_parse_rejects_unknown(self):
        with pytest.raises(DomainError):
            SequenceSpec.parse("sqrt")

    def test_constant_needs_positive_value(self):
        with pytest.raises(DomainError):
            SequenceSpec.constant(0.0)
        for value in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                SequenceSpec.constant(value)

    def test_power_exponent_range(self):
        with pytest.raises(DomainError):
            SequenceSpec.power_of_n(0.0)
        with pytest.raises(DomainError):
            SequenceSpec.power_of_n(1.5)
        assert SequenceSpec.power_of_n(1.0).kind is SequenceKind.POWER_OF_N

    def test_parameterless_kinds_reject_value(self):
        with pytest.raises(DomainError):
            SequenceSpec(SequenceKind.LOG_OF_N, 2.0)


class TestEvalSequence:
    def test_values(self):
        assert eval_sequence(SequenceSpec.constant(3.0), 1000) == 3.0
        assert eval_sequence(SequenceSpec.log_of_n(), 1000) == math.log(1000)
        assert eval_sequence(SequenceSpec.power_of_n(0.5), 100) == pytest.approx(10.0)
        assert eval_sequence(SequenceSpec.linear_n(), 42) == 42.0

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            eval_sequence(SequenceSpec.log_of_n(), 2)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=3, max_value=10**6))
    def test_log_pow_lin_increase_with_n(self, n):
        for spec in [SequenceSpec.log_of_n(), SequenceSpec.power_of_n(0.3), SequenceSpec.linear_n()]:
            assert eval_sequence(spec, n + 1) > eval_sequence(spec, n)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            stat_params(c=-1.0)
        with pytest.raises(DomainError):
            stat_params(d=0.0)
        with pytest.raises(DomainError):
            stat_params(alpha=-0.1)
        for n in (-1, 0, 2):
            with pytest.raises(DomainError, match="at least 3"):
                stat_params(n=n)


class TestRoots:
    def test_rho_both_regimes(self):
        p = stat_params(c=0.5, n=300, kn=SequenceSpec.power_of_n(0.5),
                        regime=Regime.MILDLY_EXPLOSIVE)
        assert rho_n(p) == pytest.approx(1.0288675134594813, rel=1e-15)
        q = stat_params(c=0.5, n=300, kn=SequenceSpec.power_of_n(0.5))
        assert rho_n(q) == pytest.approx(2.0 - rho_n(p), rel=1e-15)

    def test_near_stationary_guard(self):
        with pytest.raises(DomainError, match="k_n > c"):
            rho_n(stat_params(c=10.0, kn=SequenceSpec.constant(2.0)))

    def test_phi_value(self):
        p = stat_params(d=0.001, n=10**4)
        assert phi_n(p) == pytest.approx(1.0 - 0.001 / math.log(math.log(10**4)), rel=1e-15)

    def test_phi_error_reports_minimum_n(self):
        with pytest.raises(DomainError, match="minimum admissible n"):
            phi_n(stat_params(n=5))


class TestVolatilityScales:
    def test_dispersion_endpoints(self):
        phi = phi_n(stat_params())
        assert dispersion(phi, 1) == pytest.approx(0.5, rel=1e-14)
        assert dispersion(phi, 10**9) == pytest.approx(1.0 / (2.0 * (1.0 - phi**2)), rel=1e-12)

    def test_dispersion_and_x_fixtures(self):
        # A_3 at phi = 0.9 is (1 - 0.9^6) / (2 (1 - 0.81)) = 1.23305, and
        # E[sigma_3^2] = exp(alpha^2 A_3)
        assert dispersion(0.9, 3) == pytest.approx(1.23305, rel=1e-5)
        x_3 = math.exp(0.25 * dispersion(0.9, 3))
        assert x_3 == pytest.approx(math.exp(0.25 * 1.23305), rel=1e-5)

    def test_log_m_matches_direct_average(self):
        p = stat_params(n=50)
        vol = scales(p)
        phi = phi_n(p)
        direct = np.mean([math.exp(p.alpha**2 * dispersion(phi, t)) for t in range(1, 51)])
        assert math.exp(vol.log_m_n) == pytest.approx(direct, rel=1e-12)

    def test_alpha_zero_scales_are_unit(self):
        vol = scales(stat_params(alpha=0.0))
        assert vol.log_m_n == pytest.approx(0.0, abs=1e-15)
        assert vol.log_l_n == 0.0

    def test_log_space_survives_overflow(self):
        # phi extremely close to 1 makes l_n astronomically large
        p = stat_params(alpha=3.0, d=1e-4, n=10**6)
        vol = scales(p)
        assert vol.log_l_n > math.log(sys.float_info.max)
        assert math.isfinite(vol.log_l_n)
        assert math.isfinite(vol.log_m_n)
