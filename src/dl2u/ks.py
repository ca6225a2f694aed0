"""Target limit laws and the one-sample Kolmogorov-Smirnov diagnostic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["TargetLaw", "KsResult", "cdf", "density", "ks_statistic", "ks_pvalue", "ks_test"]


@dataclass(frozen=True)
class TargetLaw:
    """Zero-mean normal with given variance, or the standard Cauchy."""

    kind: str  # "normal" | "cauchy"
    variance: float | None = None

    def __post_init__(self):
        if self.kind == "normal":
            if self.variance is None or self.variance <= 0:
                raise DomainError("normal target needs a positive variance")
        elif self.kind == "cauchy":
            if self.variance is not None:
                raise DomainError("cauchy target takes no variance")
        else:
            raise DomainError(f"unknown target law {self.kind!r}")

    @staticmethod
    def normal(variance: float) -> "TargetLaw":
        return TargetLaw("normal", float(variance))

    @staticmethod
    def standard_cauchy() -> "TargetLaw":
        return TargetLaw("cauchy")

    def label(self) -> str:
        if self.kind == "normal":
            return f"N(0,{self.variance:g})"
        return "Cauchy(0,1)"


def cdf(law: TargetLaw, x):
    """Distribution function of the target law, vectorized over x."""
    x = np.asarray(x, dtype=float)
    if law.kind == "normal":
        from scipy.special import ndtr  # lazy: simulate/estimate/hist skip its 25 MB import
        return ndtr(x / math.sqrt(law.variance))
    return 0.5 + np.arctan(x) / np.pi


def density(law: TargetLaw, x):
    """Density of the target law, vectorized over x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # x * x = inf gives the right density, 0
        if law.kind == "normal":
            v = law.variance
            return np.exp(-0.5 * x * x / v) / math.sqrt(2.0 * math.pi * v)
        return 1.0 / (np.pi * (1.0 + x * x))


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
    """Asymptotic two-sided KS p-value with the Stephens small-sample factor."""
    if not 0.0 <= d <= 1.0:
        raise DomainError("KS distance must lie in [0, 1]")
    if m < 1:
        raise DomainError("sample size must be at least 1")
    from scipy.special import kolmogorov  # lazy: simulate/estimate/hist skip its 25 MB import
    return float(kolmogorov((math.sqrt(m) + 0.12 + 0.11 / math.sqrt(m)) * d))


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
