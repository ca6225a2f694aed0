"""Target limit laws and the one-sample Kolmogorov-Smirnov diagnostic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sequences import integer, real

__all__ = ["TargetLaw", "KsResult", "cdf", "density", "ks_statistic", "ks_pvalue", "ks_test"]


@dataclass(frozen=True)
class TargetLaw:
    """Zero-mean normal with given variance, or the standard Cauchy (variance None)."""

    variance: float | None

    def __post_init__(self):
        if self.variance is not None:
            object.__setattr__(self, "variance", real(self.variance, math.ulp(0.0), math.inf,
                                                      "normal target needs a positive variance"))

    @staticmethod
    def normal(variance: float) -> "TargetLaw":
        return TargetLaw(variance)

    @staticmethod
    def standard_cauchy() -> "TargetLaw":
        return TargetLaw(None)

    def label(self) -> str:
        return "Cauchy(0,1)" if self.variance is None else f"N(0,{self.variance:g})"


# Cephes ndtr.c's coefficients, as shortest round-trip doubles: erf(z) = z T(z^2)/U(z^2),
# and erfc(z) = exp(-z^2) P(z)/Q(z), with R/S in place of P/Q from z = 8.  Q, S and U lead
# with the 1.0 that Cephes' p1evl leaves implicit; np.polyval runs polevl's Horner steps.
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814,
      196.5208329560771, 526.4451949954773, 934.5285271719576, 1027.5518868951572,
      557.5353353693994)
_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
      1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536,
      7.4097426995044895, 2.9788666537210022)
_S = (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659,
      9.608968090632859, 3.369076451000815)
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051,
      55592.30130103949)
_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095,
      49267.39426086359)


def _ndtr(a):
    """Standard normal CDF: Cephes ndtr, vectorized, bit for bit.

    With x = a/sqrt(2) and z = |x|: 1/2 + erf(x)/2 for z < 1/sqrt(2), else erfc(z)/2,
    reflected for x > 0; erf(x) = sign(x) erf(z), and erfc(z) = 1 - erf(z) for z < 1.
    erf runs on all elements (z capped at 1): a numpy call costs more than a mask saves.
    """
    x = a.reshape(-1) * 0.7071067811865476
    z = np.abs(x)
    zc = np.minimum(z, 1.0)
    zz = zc * zc
    e = zc * np.polyval(_T, zz) / np.polyval(_U, zz)  # erf(min(z, 1))
    tail = z >= 1.0
    t = np.minimum(z[tail], 27.0)  # erfc is 0 from sqrt(MAXLOG) = 26.6 on: keep P..S finite
    w = t * -t
    # libm's exp, as Cephes calls it (np.exp's SIMD path rounds 1% of these otherwise)
    y = np.fromiter(map(math.exp, w.tolist()), float, w.size)
    p, q = np.polyval(_P, t), np.polyval(_Q, t)
    big = t >= 8.0
    if big.any():
        p[big], q[big] = np.polyval(_R, t[big]), np.polyval(_S, t[big])
        y[w < -709.782712893384] = 0.0  # Cephes' underflow edge -z^2 < -MAXLOG
    out = 0.5 * (1.0 - e)  # erfc(z) / 2
    out[tail] = 0.5 * (y * p / q)
    np.subtract(1.0, out, out=out, where=x > 0)
    np.copyto(out, 0.5 + 0.5 * np.copysign(e, x), where=z < 0.7071067811865476)
    return out.reshape(a.shape)[()]


def cdf(law: TargetLaw, x):
    """Distribution function of the target law, vectorized over x."""
    x = np.asarray(x, dtype=float)
    if law.variance is None:
        return 0.5 + np.arctan(x) / np.pi
    return _ndtr(x / math.sqrt(law.variance))


def density(law: TargetLaw, x):
    """Density of the target law, vectorized over x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x * x = inf gives the right density, 0
        if law.variance is None:
            return 1.0 / (np.pi * (1.0 + x * x))
        v = law.variance
        return np.exp(-0.5 * x * x / v) / math.sqrt(2.0 * math.pi * v)


def ks_statistic(sample, law: TargetLaw) -> float:
    """Two-sided sup distance between the empirical CDF and the target CDF."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise DomainError("KS statistic needs a nonempty sample")
    if np.isnan(x).any():
        raise DomainError("sample contains NaN")
    xs = np.sort(x)
    m = xs.size
    F = cdf(law, xs)
    i = np.arange(1, m + 1)
    d_plus = (i / m - F).max()
    d_minus = (F - (i - 1) / m).max()
    return float(max(d_plus, d_minus))


def ks_pvalue(d: float, m: int) -> float:
    """Asymptotic two-sided KS p-value with the Stephens small-sample factor:
    P(K > x) as xsf's `kolmogorov` forms it, bit for bit (1 minus the theta series
    in exp(-pi^2 / (8 x^2)) up to x = 0.82, the series in exp(-2 x^2) above)."""
    d = real(d, 0.0, math.nextafter(1.0, 2.0), "KS distance must lie in [0, 1]")
    m = integer(m, 1, 2**53 + 1, "sample size must be an integer in [1, 2^53]")
    x = (math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m)) * d
    if x <= 0.04:  # P(K <= x) < 1e-300, so xsf's 1 - P(K <= x) is 1
        return 1.0
    if x <= 0.82:
        logu8 = -math.pi * math.pi / (x * x)
        u, u8 = math.exp(logu8 / 8), math.exp(logu8)
        sf = 1 - math.sqrt(2 * math.pi) / x * u * (1 + u8 * (1 + u8 * u8 * (1 + math.pow(u8, 3))))
    else:
        v = math.exp(-2 * x * x)
        v3 = math.pow(v, 3)
        sf = 2 * v * (1 - v3 * (1 - v3 * (v * v) * (1 - v3 * v3 * v)))
    return min(max(sf, 0.0), 1.0)


@dataclass(frozen=True)
class KsResult:
    """KS distance with its asymptotic p-value."""

    d_stat: float
    p_value: float


def ks_test(sample, law: TargetLaw) -> KsResult:
    """Run the one-sample KS test of `sample` against `law`."""
    d = ks_statistic(sample, law)
    m = len(np.asarray(sample))
    return KsResult(d_stat=d, p_value=ks_pvalue(d, m))
