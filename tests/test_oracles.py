import math

import pytest

from dl2u.errors import DomainError
from dl2u.oracles import (
    MIN_DRAWS,
    check_conditional_mean,
    check_cross_moment,
    check_eq6_convergence,
    check_fourth_moment,
    check_mean_sigma2,
    check_wnvn,
    run_moment_suite,
)
from dl2u.sequences import ModelParams, Regime, SequenceSpec


def stat_params(**kw):
    base = dict(
        c=1.0, d=1.0, alpha=0.0, n=1000,
        kn=SequenceSpec.power_of_n(0.25), regime=Regime.NEAR_STATIONARY,
    )
    base.update(kw)
    return ModelParams(**base)


class TestClosedForms:
    def test_mean_sigma2_fixture(self):
        chk = check_mean_sigma2(0.5, 0.9, 3)
        assert chk.closed_form == pytest.approx(math.exp(0.25 * 1.23305), rel=1e-5)
        assert chk.passed

    def test_fourth_moment_fixture(self):
        chk = check_fourth_moment(0.5, 0.5, 2)
        assert chk.closed_form == pytest.approx(math.exp(0.625), rel=1e-12)
        assert chk.passed

    def test_conditional_mean_fixture(self):
        # worst grid point is drawn from z in [-2, 2]; the closed form at
        # z = 1, phi = 0.9, alpha = 0.5 is exp(1.025)
        assert math.exp(0.9 * 1.0 + 0.125) == pytest.approx(2.7870954605658507, rel=1e-12)
        assert check_conditional_mean(0.5, 0.9).passed

    def test_cross_moment_passes(self):
        assert check_cross_moment(0.5, 0.9, 2, 4).passed

    def test_cross_moment_order_guard(self):
        with pytest.raises(DomainError):
            check_cross_moment(0.5, 0.9, 4, 2)


class TestDegenerateAlpha:
    def test_alpha_zero_checks_are_exact(self):
        for chk in [
            check_mean_sigma2(0.0, 0.9, 3),
            check_fourth_moment(0.0, 0.9, 3),
            check_cross_moment(0.0, 0.9, 2, 4),
            check_conditional_mean(0.0, 0.9),
        ]:
            assert chk.z_score == 0.0
            assert chk.mc_estimate == chk.closed_form
            assert chk.passed


class TestDrawFloor:
    def test_refuses_small_samples(self):
        with pytest.raises(DomainError):
            check_mean_sigma2(0.5, 0.9, 3, draws=MIN_DRAWS - 1)
        with pytest.raises(DomainError):
            check_conditional_mean(0.5, 0.9, draws=10)


class TestSuite:
    def test_default_battery_passes(self):
        checks = run_moment_suite()
        assert len(checks) == 11
        assert all(c.passed for c in checks)
        report = checks[0].as_dict()
        assert set(report) == {
            "label", "mc_estimate", "closed_form", "mc_std_error", "z_score", "passed",
        }


class TestConvergenceChecks:
    def test_eq6_needs_grid(self):
        with pytest.raises(DomainError):
            check_eq6_convergence([stat_params()])

    def test_eq6_regime_guard(self):
        bad = ModelParams(c=0.5, d=1.0, alpha=0.0, n=300,
                          kn=SequenceSpec.power_of_n(0.5), regime=Regime.MILDLY_EXPLOSIVE)
        with pytest.raises(DomainError):
            check_eq6_convergence([bad, bad])

    def test_wnvn_passes_at_reference_point(self):
        p = ModelParams(c=0.5, d=1.0, alpha=0.5, n=300,
                        kn=SequenceSpec.power_of_n(0.5), regime=Regime.MILDLY_EXPLOSIVE)
        result = check_wnvn(p)
        assert result["passed"]
        assert {c["name"] for c in result["checks"]} == {"var_W", "var_V", "corr_WV"}

    def test_wnvn_regime_guard(self):
        with pytest.raises(DomainError):
            check_wnvn(stat_params())
