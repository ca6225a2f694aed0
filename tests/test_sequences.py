import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dl2u import cli, dgp, estimator
from dl2u.errors import DomainError, NumericOverflowError
from dl2u.ks import TargetLaw, ks_pvalue
from dl2u.montecarlo import table_params
from dl2u.oracles import check_conditional_mean, check_cross_moment
from dl2u.sequences import (
    Regime,
    SequenceKind,
    SequenceSpec,
    alpha_squared,
    dispersion,
    eval_sequence,
    integer,
    phi_n,
    real,
    rho_n,
    scales,
)


def stat_params(**kw):  # table 2b's n^0.25 row
    return replace(table_params("2b", SequenceSpec.parse("pow:0.25")), **kw)


class TestInteger:
    def test_returns_a_python_int_in_range(self):
        for x, lo, hi in [(0, 0, 1), (np.uint64(2**64 - 1), 0, 2**64), (np.int8(-3), -3, 0)]:
            value = integer(x, lo, hi, "no")
            assert type(value) is int and value == int(x)

    @pytest.mark.parametrize("x", [True, np.True_, 1.0, np.float64(1), "1", None, -1, 2**64],
                             ids=["bool", "numpy-bool", "float", "numpy-float", "str", "none",
                                  "below", "at-hi"])
    def test_anything_else_is_the_given_domain_error(self, x):
        with pytest.raises(DomainError, match=f"^no, got {re.escape(repr(x))}$"):
            integer(x, 0, 2**64, "no")

    def test_an_int_past_1024_bits_is_shown_by_its_bit_count(self):
        # 1,024 bits is 309 digits, below the lowest int-to-str limit a process can set
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for x, shown in [(2**1024 - 1, repr(2**1024 - 1)), (-(2**1024), "an int of 1025 bits"),
                             (10**5000, "an int of 16610 bits")]:
                with pytest.raises(DomainError, match=f"^no, got {re.escape(shown)}$"):
                    integer(x, 0, 1, "no")
        finally:
            sys.set_int_max_str_digits(default)


# every real-valued input the library takes, with a value just outside its range
REAL_INPUTS = {
    "model-c": (lambda x: stat_params(c=x), -math.ulp(0.0)),
    "model-d": (lambda x: stat_params(d=x), 0.0),
    "model-alpha": (lambda x: stat_params(alpha=x), -math.ulp(0.0)),
    "model-y0": (lambda x: stat_params(y0=x), 2**1024 - 2**970),  # the least int float() overflows
    "model-z0": (lambda x: stat_params(z0=x), -(2**1024 - 2**970)),
    "const-value": (lambda x: SequenceSpec(SequenceKind.CONSTANT, x), 0.0),
    "pow-value": (lambda x: SequenceSpec(SequenceKind.POWER_OF_N, x), math.nextafter(1.0, 2.0)),
    "target-variance": (TargetLaw, 0.0),
    "alpha-squared": (alpha_squared, 2**1024 - 2**970),
    "dispersion-phi": (lambda x: dispersion(x, 3), 1.0),
    "conditional-phi": (lambda x: check_conditional_mean(0.5, x, 5), 2**1024 - 2**970),
    "cross-alpha": (lambda x: check_cross_moment(x, 0.9, 1, 3, 5), 2**1024 - 2**970),
    "cross-phi": (lambda x: check_cross_moment(0.5, x, 1, 3, 5), 1.0),
    "ks-d": (lambda x: ks_pvalue(x, 10), math.nextafter(1.0, 2.0)),
}
BAD_REALS = {"str": "1", "none": None, "complex": 1 + 0j, "bool": True, "numpy-bool": np.True_,
             "10^400": 10**400, "10^5000": 10**5000, "nan": math.nan, "inf": math.inf,
             "-inf": -math.inf}
BAD_REAL_CASES = [(site, bad) for site in REAL_INPUTS for bad in [*BAD_REALS, "outside"]
                  if (site, bad) != ("target-variance", "none")]  # TargetLaw(None) is the Cauchy


class TestReal:
    def test_returns_a_python_float_in_range(self):
        for x, lo, hi in [(3, 0.0, math.inf), (np.float32(0.3), 0.0, 1.0), (np.int64(-2), -2, 0),
                          (np.longdouble(1) / 3, 0.0, 1.0),
                          (1.0, math.ulp(0.0), math.nextafter(1.0, 2.0)),
                          (-sys.float_info.max, -sys.float_info.max, math.inf)]:
            value = real(x, lo, hi, "no")
            assert type(value) is float and value == float(x)

    @pytest.mark.parametrize("site, bad", BAD_REAL_CASES,
                             ids=[f"{site}-{bad}" for site, bad in BAD_REAL_CASES])
    def test_every_bad_real_input_is_a_domain_error(self, site, bad):
        # Unchecked, a str or complex raised a bare TypeError, an int past the float range a bare
        # OverflowError, and a bool passed as 1.0; a const value or variance of 10^400 was taken,
        # then raised OverflowError from rho_n, label(), replication_pivots or ks.cdf.
        call, outside = REAL_INPUTS[site]
        x = outside if bad == "outside" else BAD_REALS[bad]
        big = isinstance(x, int) and x.bit_length() > 1024
        shown = f"an int of {x.bit_length()} bits" if big else repr(x)
        with pytest.raises(DomainError, match=f", got {re.escape(shown)}$"):
            call(x)

    def test_numpy_float32_parameters_run_in_double_precision(self):
        # NumPy 2 keeps np.float32 * float in float32: an unconverted float32 c makes rho_n float32
        f32 = {"c": np.float32(0.3), "d": np.float32(0.7), "alpha": np.float32(0.5),
               "y0": np.float32(0.1), "z0": np.float32(-0.2)}
        for table in ("2a", "2b"):
            kn = SequenceSpec(SequenceKind.POWER_OF_N, np.float32(0.3))
            single = replace(table_params(table, kn, 60), **f32)
            double = replace(table_params(table, SequenceSpec(SequenceKind.POWER_OF_N,
                                                              float(np.float32(0.3))), 60),
                             **{name: float(v) for name, v in f32.items()})
            (y1, u1), (y2, u2) = (dgp.simulate_batch(p, 9, [0, 1, 2]) for p in (single, double))
            assert y1.tobytes() == y2.tobytes() and u1.tobytes() == u2.tobytes()
            assert (estimator.pivots(single, y1, u1).tobytes()
                    == estimator.pivots(double, y2, u2).tobytes())
            assert type(rho_n(single)) is float
            assert json.loads(json.dumps(cli._params_meta(single))) == cli._params_meta(double)


class TestSequenceSpec:
    def test_parse_label_roundtrip(self):
        for text in ["const:3", "log", "pow:0.25", "pow:0.5", "pow:0.75", "lin"]:
            spec = SequenceSpec.parse(text)
            assert spec.label() == text
            assert SequenceSpec.parse(spec.label()) == spec
        assert SequenceSpec(SequenceKind.POWER_OF_N, 0.123456789).label() == "pow:0.123456789"

    @given(st.one_of(
        st.floats(min_value=0, max_value=math.inf, exclude_min=True, exclude_max=True)
        .map(lambda v: SequenceSpec(SequenceKind.CONSTANT, v)),
        st.floats(min_value=0, max_value=1, exclude_min=True)
        .map(lambda a: SequenceSpec(SequenceKind.POWER_OF_N, a)),
        st.sampled_from([SequenceSpec.parse("log"), SequenceSpec.parse("lin")]),
    ))
    def test_label_never_rounds(self, spec):
        assert SequenceSpec.parse(spec.label()) == spec

    def test_parse_rejects_unknown(self):
        with pytest.raises(DomainError):
            SequenceSpec.parse("sqrt")

    def test_constant_needs_positive_value(self):
        with pytest.raises(DomainError):
            SequenceSpec(SequenceKind.CONSTANT, 0.0)
        for value in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                SequenceSpec(SequenceKind.CONSTANT, value)

    def test_power_exponent_range(self):
        with pytest.raises(DomainError):
            SequenceSpec(SequenceKind.POWER_OF_N, 0.0)
        with pytest.raises(DomainError):
            SequenceSpec(SequenceKind.POWER_OF_N, 1.5)
        assert SequenceSpec(SequenceKind.POWER_OF_N, 1.0).kind is SequenceKind.POWER_OF_N

    def test_parameterless_kinds_reject_value(self):
        with pytest.raises(DomainError):
            SequenceSpec(SequenceKind.LOG_OF_N, 2.0)


class TestEvalSequence:
    def test_values(self):
        assert eval_sequence(SequenceSpec.parse("const:3"), 1000) == 3.0
        assert eval_sequence(SequenceSpec.parse("log"), 1000) == math.log(1000)
        assert eval_sequence(SequenceSpec.parse("pow:0.5"), 100) == pytest.approx(10.0)
        assert eval_sequence(SequenceSpec.parse("lin"), 42) == 42.0

    def test_rejects_tiny_n(self):
        # and every n that is no integer in ModelParams' range [3, 2^53]
        for n in (2, 3.5, math.nan, True, 2**53 + 1, 10**400):
            with pytest.raises(DomainError, match=re.escape("needs an integer n in [3, 2^53]")):
                eval_sequence(SequenceSpec.parse("log"), n)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=3, max_value=10**6))
    def test_log_pow_lin_increase_with_n(self, n):
        for spec in map(SequenceSpec.parse, ["log", "pow:0.3", "lin"]):
            assert eval_sequence(spec, n + 1) > eval_sequence(spec, n)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            stat_params(c=-1.0)
        with pytest.raises(DomainError):
            stat_params(d=0.0)
        with pytest.raises(DomainError):
            stat_params(alpha=-0.1)
        for n in (-1, 0, 2, np.int64(2), 2**53 + 1):  # float(n) is exact to 2^53
            error = f"n must be an integer in [3, 2^53], got {n!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
                stat_params(n=n)
        assert stat_params(n=2**53).n == 2**53
        assert type(stat_params(n=np.int64(100)).n) is int
        for n in (100.5, 100.0, True):  # a float n would reach np.empty; True is no 1
            with pytest.raises(DomainError, match="n must be an integer"):
                stat_params(n=n)
        for name in ("c", "d", "alpha", "y0", "z0"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match=f"{name} must be finite"):
                    stat_params(**{name: value})

    @pytest.mark.parametrize("field, value", [("regime", "stat"), ("regime", None),
                                              ("kn", "pow:0.5"), ("rn", "log")])
    def test_kn_rn_and_regime_must_be_their_types(self, field, value):
        # a str regime is no Regime.NEAR_STATIONARY, so rho_n would take it as explosive
        with pytest.raises(DomainError, match="kn and rn must be SequenceSpecs and regime a Regime"):
            stat_params(**{field: value})


class TestRoots:
    def test_rho_both_regimes(self):
        p = stat_params(c=0.5, n=300, kn=SequenceSpec.parse("pow:0.5"),
                        regime=Regime.MILDLY_EXPLOSIVE)
        assert rho_n(p) == pytest.approx(1.0288675134594813, rel=1e-15)
        q = stat_params(c=0.5, n=300, kn=SequenceSpec.parse("pow:0.5"))
        assert rho_n(q) == pytest.approx(2.0 - rho_n(p), rel=1e-15)

    def test_near_stationary_guard(self):
        with pytest.raises(DomainError, match="k_n > c"):
            rho_n(stat_params(c=10.0, kn=SequenceSpec.parse("const:2")))

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

    @pytest.mark.parametrize("phi", [0.1, 0.5, 0.9, 0.95, 1.0 - 1e-5])
    def test_dispersion_array_matches_scalar_calls(self, phi):
        # (0.9, 2) is where np.expm1 rounds 1 ulp away from libm's expm1
        t = np.arange(1, 1001)
        got = dispersion(phi, t)
        assert got.dtype == np.float64 and got.shape == t.shape
        assert [a.hex() for a in got.tolist()] == [dispersion(phi, int(s)).hex() for s in t]
        assert type(dispersion(phi, 2)) is float

    @pytest.mark.parametrize("t", [-1, 1.5, math.nan, True, 2**63, 10**400],
                             ids=["negative", "fraction", "nan", "bool", "2^63", "10^400"])
    def test_dispersion_needs_an_integer_t_of_at_least_0(self, t):
        # -1 gave A_-1 = -2 at phi = 0.5, a negative variance factor, and 1.5 gave A_1.5
        with pytest.raises(DomainError, match=re.escape("A_t needs an integer t in [0, 2^63)")):
            dispersion(0.5, t)
        for array in (np.array([1, -1, 2]), np.array([1.0, 2.0]), np.array([True])):
            with pytest.raises(DomainError, match="A_t needs an integer array t >= 0"):
                dispersion(0.5, array)

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

    @pytest.mark.parametrize("n", [3, 50, 1000, 10000, 10**6])
    def test_log_m_matches_scipy_logsumexp(self, n):
        # scipy is a test-only oracle.  scales shifts by the largest term as
        # logsumexp does, but sums and rounds its own way, so it agrees to 1e-14
        # (2.6e-15 at worst over this grid), not to the bit.  The grid spans phi
        # from about 0.1 to 1 - 1e-5 (r_n = n or log n).
        from scipy.special import logsumexp

        for d, rn in itertools.product(
            [1e-4, 0.1, 0.5, 1.0], [SequenceSpec.parse("lin"), SequenceSpec.parse("log")],
        ):
            if math.log(eval_sequence(rn, n)) <= d:
                continue
            A_t = dispersion(phi_n(stat_params(n=n, d=d, rn=rn)), np.arange(1, n + 1))
            for alpha in [0.0, 0.1, 0.5, 1.0, 3.0]:
                want = float(logsumexp(alpha**2 * A_t) - math.log(n))
                got = scales(stat_params(n=n, alpha=alpha, d=d, rn=rn)).log_m_n
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (alpha, d, rn)

    def test_alpha_zero_scales_are_unit(self):
        # m_n = 1 exactly; at 9170, 19143 and 94869 a form that adds log(n) and
        # then subtracts it rounds to +-1.78e-15
        for n in (16, 1000, 9170, 10000, 19143, 94869, 100000):
            vol = scales(stat_params(alpha=0.0, n=n))
            assert vol.log_m_n == 0.0, n
            assert vol.log_l_n == 0.0

    def test_alpha_square_overflow_is_the_packages_error(self):
        with pytest.raises(NumericOverflowError, match="^alpha\\^2 leaves the float range"):
            scales(replace(table_params("2a", SequenceSpec.parse("pow:0.5")), alpha=1e200))

    def test_scale_overflow_is_the_packages_error(self):
        # alpha^2 = 1e308 is finite, but alpha^2 A_t and log l_n are not at d = 0.1
        p = replace(table_params("2a", SequenceSpec.parse("pow:0.5")), d=0.1, alpha=1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError, match="^alpha\\^2 A_t leaves the float range"):
                scales(p)

    def test_log_space_survives_overflow(self):
        # phi extremely close to 1 makes l_n astronomically large
        p = stat_params(alpha=3.0, d=1e-4, n=10**6)
        vol = scales(p)
        assert vol.log_l_n > math.log(sys.float_info.max)
        assert math.isfinite(vol.log_l_n)
        assert math.isfinite(vol.log_m_n)
