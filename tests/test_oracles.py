import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dl2u import dgp, oracles
from dl2u.errors import DomainError, NumericOverflowError
from dl2u.estimator import normalized_sum_squares
from dl2u.oracles import (
    BATCH_BYTES,
    EQ6_PATHS,
    VERIFY_EQ6_GRID,
    VERIFY_WNVN,
    WNVN_PATHS,
    check_conditional_mean,
    check_cross_moment,
    check_eq6_convergence,
    check_wnvn,
    run_moment_suite,
)
from dl2u.montecarlo import ExperimentSpec, emit_histogram, table_params
from dl2u.sequences import SequenceSpec, dispersion, eval_sequence, rho_n, scales


def stat_params(**kw):  # table 1a's n^0.25 row
    return replace(table_params("1a", SequenceSpec.parse("pow:0.25")), **kw)


class TestClosedForms:
    def test_mean_sigma2_fixture(self):
        chk = check_cross_moment(0.5, 0.9, 0, 3, seed=101)
        assert chk["closed_form"] == pytest.approx(math.exp(0.25 * 1.23305), rel=1e-5)
        assert chk["passed"]

    def test_fourth_moment_fixture(self):
        chk = check_cross_moment(0.5, 0.5, 2, 2, seed=202)
        assert chk["closed_form"] == pytest.approx(math.exp(0.625), rel=1e-12)
        assert chk["passed"]

    def test_conditional_mean_fixture(self):
        # worst grid point is drawn from z in [-2, 2]; the closed form at
        # z = 1, phi = 0.9, alpha = 0.5 is exp(1.025)
        assert math.exp(0.9 * 1.0 + 0.125) == pytest.approx(2.7870954605658507, rel=1e-12)
        assert check_conditional_mean(0.5, 0.9, seed=404)["passed"]

    def test_cross_moment_passes(self):
        assert check_cross_moment(0.5, 0.9, 2, 4, seed=303)["passed"]

    @pytest.mark.parametrize("args, error", [
        ((0.5, 0.9, 4, 2), "0 <= s <= t"), ((0.5, 0.9, -2, -1), "0 <= s <= t"),
        ((0.5, 0.0, 1, 3), "phi in"), ((0.5, -0.5, 1, 3), "phi in"), ((0.5, 1.0, 1, 3), "phi in"),
        ((0.5, 1e200, 1, 3), "phi in"), ((math.nan, 0.9, 1, 3), "alpha must be finite"),
        ((0.5, 0.9, 1.5, 3), "0 <= s <= t"), ((0.5, 0.9, 1, 3.0), "0 <= s <= t"),
        ((0.5, 0.9, True, 3), "0 <= s <= t"),
    ], ids=["s-above-t", "negative-times", "phi-0", "phi-negative", "phi-1", "phi-huge",
            "alpha-nan", "s-fraction", "t-float", "s-bool"])
    def test_cross_moment_outside_its_closed_form_is_a_domain_error(self, args, error):
        # A_t takes log(phi) and divides by 1 - phi^2; no draw and no warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(error)):
                check_cross_moment(*args, seed=5)

    def test_numpy_integer_times_give_the_python_int_record(self):
        ints = check_cross_moment(0.5, 0.9, 2, 4, seed=303)
        assert check_cross_moment(0.5, 0.9, np.int64(2), np.uint8(4), seed=303) == ints

    def test_numpy_floats_give_the_record_of_the_float_they_equal(self):
        # a float32 phi must not form phi^(t-s) in single precision, nor a long double alpha
        # draw, label and pick the worst grid point in long double
        alpha, phi = np.float32(0.3), np.float32(0.9)
        assert (check_cross_moment(alpha, phi, 1, 3, seed=5)
                == check_cross_moment(float(alpha), float(phi), 1, 3, seed=5))
        assert (check_conditional_mean(np.longdouble(0.5), 0.9, seed=5)
                == check_conditional_mean(0.5, 0.9, seed=5))

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**200, 1.5, True],
                             ids=["negative", "2^128", "2^200", "fraction", "bool"])
    @pytest.mark.parametrize("check, args", [
        (check_cross_moment, (0.5, 0.9, 1, 3)), (check_conditional_mean, (0.5, 0.9)),
        (check_cross_moment, (0.0, 0.9, 1, 3)),
    ], ids=["cross", "conditional", "cross-alpha-0"])
    def test_a_seed_that_is_no_philox_key_is_a_domain_error(self, check, args, seed):
        # Philox would raise a bare ValueError, or take a float or bool as key 1
        error = f"moment check needs an integer seed in [0, 2^128), got {seed!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
            check(*args, seed=seed)

    @pytest.mark.parametrize("phi", [math.nan, math.inf], ids=["phi-nan", "phi-inf"])
    def test_conditional_mean_needs_a_finite_phi(self, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite phi"):
                check_conditional_mean(0.5, phi, seed=5)

    @pytest.mark.parametrize("check, args, label", [
        (check_cross_moment, (30.0, 0.9, 1, 3), "cross_moment(alpha=30.0,phi=0.9,s=1,t=3)"),
        (check_conditional_mean, (40.0, 0.9), "conditional_mean(alpha=40.0,phi=0.9,z=-2)"),
        (check_cross_moment, (1e154, 0.9, 3, 3), "fourth_moment(alpha=1e+154,phi=0.9,t=3)"),
        (check_cross_moment, (2e154, 0.9, 1, 3), "alpha^2"),
        (check_conditional_mean, (2e154, 0.9), "alpha^2"),
    ], ids=["closed-form", "conditional-closed-form", "sampled-exp", "alpha-square",
            "conditional-alpha-square"])
    def test_overflow_is_the_packages_error(self, check, args, label):
        # neither a bare OverflowError nor numpy's overflow warning may escape the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match=f"^{re.escape(label)} leaves"):
                check(*args, seed=5)


class TestDegenerateAlpha:
    def test_alpha_zero_checks_are_exact(self, monkeypatch):
        def no_philox(*args, **kwargs):
            raise AssertionError("alpha = 0 drew normals")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        for chk in [
            check_cross_moment(0.0, 0.9, 0, 3, seed=101),
            check_cross_moment(0.0, 0.9, 3, 3, seed=202),
            check_cross_moment(0.0, 0.9, 2, 4, seed=303),
            check_conditional_mean(0.0, 0.9, seed=404),
            check_conditional_mean(0.0, -0.5, seed=404),  # forms no A_t, so takes any finite phi
        ]:
            assert chk["z_score"] == 0.0
            assert chk["mc_estimate"] == chk["closed_form"]
            assert chk["passed"]


class TestMomentsAreCrossMoments:
    """E sigma_t^2 = exp(alpha^2 A_t) and E sigma_t^4 = exp(4 alpha^2 A_t) are the cross
    moment at s = 0 and s = t, bit for bit, and their records say which moment they are."""

    GRID = [(alpha, phi, t) for alpha in (0.0, 0.3, 0.5) for phi in (0.5, 0.9, 0.95)
            for t in (1, 3, 10)]

    @pytest.mark.parametrize("s_of, name, k", [(lambda t: 0, "mean_sigma2", 1.0),
                                               (lambda t: t, "fourth_moment", 4.0)],
                             ids=["mean-at-s-0", "fourth-at-s-t"])
    def test_record_is_the_cross_moment(self, s_of, name, k):
        for alpha, phi, t in self.GRID:
            record = check_cross_moment(alpha, phi, s_of(t), t, seed=17 + t)
            assert record["label"] == f"{name}(alpha={alpha},phi={phi},t={t})"
            assert record["closed_form"] == math.exp(k * alpha * alpha * dispersion(phi, t))


class TestSuite:
    def test_verify_needs_an_integer_seed(self):
        with pytest.raises(DomainError, match=re.escape("verify needs --seed in [0, 2^64 - 2)")):
            oracles.verify(1.5)

    @pytest.mark.parametrize("run, kind, seed", [
        (oracles.verify, np.uint64, 2**64 - 3), (oracles.verify, np.int64, 2**63 - 1),
        (run_moment_suite, np.uint64, 2**64 - 1), (run_moment_suite, np.int64, 2**63 - 1),
    ], ids=["uint64-top", "int64-top", "suite-uint64-top", "suite-int64-top"])
    def test_a_numpy_integer_seed_gives_the_int_seeds_report(self, run, kind, seed):
        # the keys seed + k are Python ints: no uint64 wrap and no int64 overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(kind(seed)) == run(seed)

    @pytest.mark.parametrize("seed", [True, 1.5, -1, 2**128 - 10],
                             ids=["bool", "fraction", "negative", "last-key-2^128"])
    def test_the_suite_checks_its_seed_before_any_draw(self, monkeypatch, seed):
        def no_philox(*args, **kwargs):
            raise AssertionError("the suite drew normals from an invalid seed")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        error = f"moment suite needs an integer seed in [0, 2^128 - 10), got {seed!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
            run_moment_suite(seed)

    def test_default_battery_passes(self):
        checks = run_moment_suite()
        assert len(checks) == 11
        assert all(c["passed"] is True for c in checks)
        assert [list(c) for c in checks] == 11 * [
            ["label", "mc_estimate", "closed_form", "mc_std_error", "z_score", "passed"],
        ]


class TestConvergenceChecks:
    def test_eq6_needs_grid(self):
        with pytest.raises(DomainError):
            check_eq6_convergence([stat_params()], seed=505)

    def test_eq6_regime_guard(self):
        bad = table_params("1b", SequenceSpec.parse("pow:0.5"))
        with pytest.raises(DomainError):
            check_eq6_convergence([bad, bad], seed=505)

    def test_wnvn_passes_at_reference_point(self):
        result = check_wnvn(VERIFY_WNVN, seed=606)
        assert result["passed"]
        assert {c["name"] for c in result["checks"]} == {"var_W", "var_V", "corr_WV"}

    def test_wnvn_regime_guard(self):
        with pytest.raises(DomainError):
            check_wnvn(stat_params(), seed=606)

    @pytest.mark.parametrize("check", [
        lambda: check_eq6_convergence([stat_params(c=0.0), stat_params()], seed=505),
        lambda: check_eq6_convergence([stat_params(), VERIFY_WNVN], seed=505),
        lambda: check_wnvn(replace(VERIFY_WNVN, c=0.0), seed=606),
        lambda: check_wnvn(stat_params(), seed=606),
        lambda: emit_histogram(ExperimentSpec(stat_params(c=0.0, n=100), 50, 4), bins=20),
        lambda: emit_histogram(ExperimentSpec(replace(VERIFY_WNVN, c=0.0, n=100), 50, 4), bins=20),
    ], ids=["eq6-c0", "eq6-explosive", "wnvn-c0", "wnvn-stationary", "hist-c0",
            "hist-explosive-c0"])
    def test_a_2c_limit_off_its_domain_fails_before_any_draw(self, monkeypatch, check):
        # at c = 0, eq6 and wn_vn drew every path, then stopped on a bare ZeroDivisionError,
        # and an explosive histogram drew a replication's paths before the pivot raised
        def no_draw(*args):
            raise AssertionError("a path was drawn")
        monkeypatch.setattr(dgp, "simulate_y", no_draw)
        monkeypatch.setattr(dgp, "simulate_batch", no_draw)
        with pytest.raises(DomainError):
            check()


class TestVerify:
    def test_one_failed_check_fails_the_report(self, monkeypatch):
        # verify looks each check up in the module, where the benchmark's tracer wraps it too
        monkeypatch.setattr(oracles, "check_wnvn", lambda params, seed: {"passed": False})
        report = oracles.verify(707)
        assert report["passed"] is False and all(c["passed"] for c in report["moment_checks"])


class TestVerifyBatches:  # dl2u verify's models, run at its default seed's DGP bases
    def test_no_batch_holds_an_array_over_the_budget(self, monkeypatch):
        # sigma2, freed inside the batch, is no larger than the y it returns
        calls = []

        def recording(name):
            simulate = getattr(dgp, name)

            def wrapper(params, base, streams):
                out = simulate(params, base, streams)
                arrays = out if isinstance(out, tuple) else (out,)
                calls.append((name, params.n, list(streams), max(a.nbytes for a in arrays)))
                return out

            return wrapper

        for name in ("simulate_y", "simulate_batch"):
            monkeypatch.setattr(dgp, name, recording(name))
        oracles.verify(707)  # eq6 from DGP base 708, then wn_vn from 709
        assert all(nbytes <= BATCH_BYTES for *_, nbytes in calls)
        assert [(name, n, len(streams)) for name, n, streams, _ in calls] == [
            ("simulate_y", 1000, 200), ("simulate_y", 10000, 100), ("simulate_y", 10000, 100),
            ("simulate_batch", 300, 1000), ("simulate_batch", 300, 1000),
        ]
        for paths, blocks in ((EQ6_PATHS, calls[1:3]), (WNVN_PATHS, calls[3:])):
            assert sum((streams for _, _, streams, _ in blocks), []) == list(range(paths))

    def test_eq6_means_are_those_of_one_whole_batch(self):
        grid = check_eq6_convergence(VERIFY_EQ6_GRID, seed=708)["grid"]
        for entry, params in zip(grid, VERIFY_EQ6_GRID):
            y = dgp.simulate_y(params, 708, np.arange(EQ6_PATHS, dtype=np.uint64))
            assert entry["mean"] == float(normalized_sum_squares(y, params, scales(params)).mean())

    def test_wnvn_values_are_those_of_one_whole_batch(self):
        p = VERIFY_WNVN
        _, u = dgp.simulate_batch(p, 709, np.arange(WNVN_PATHS, dtype=np.uint64))
        j = np.arange(1, p.n + 1)
        half_log_norm = 0.5 * (scales(p).log_l_n + math.log(eval_sequence(p.kn, p.n)))
        log_rho = math.log(rho_n(p))
        W = u @ np.exp(-j * log_rho - half_log_norm)
        V = u @ np.exp(-(p.n - j + 1) * log_rho - half_log_norm)
        want = [np.var(W, ddof=1), np.var(V, ddof=1), np.corrcoef(W, V)[0, 1]]
        assert [c["value"] for c in check_wnvn(p, seed=709)["checks"]] == [float(w) for w in want]
