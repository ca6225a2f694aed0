"""OLS estimation of the autoregressive root and the two normalized pivots.

The near-stationary pivot sqrt(n k_n) (rho_hat - rho_n) targets N(0, 2c);
the explosive pivot rho_n^n k_n (rho_hat - rho_n) / (2c) targets the
standard Cauchy.  Explosive powers are always combined in log-space.
`montecarlo.replication_pivots` shares the normalizations and overflow
check but not the arithmetic: einsum and np.exp round differently from BLAS
dot products and math.exp, and the bits of both sides are pinned.

For strongly explosive roots the centered error rho_hat - rho_n is of
order rho_n^{-n}, far below the rounding error of rho_hat itself, so the
pivots accept a `rho_error` computed in score form (sum y_{t-1} u_t /
sum y_{t-1}^2 with the stored innovations), which is free of that
cancellation.  See `score_rho_error`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dgp import SimulatedPath
from .errors import DegeneratePathError, DomainError, NumericOverflowError
from .ks import TargetLaw
from .sequences import ModelParams, Regime, VolatilityScales, eval_sequence, rho_n

__all__ = [
    "OlsResult",
    "PivotValue",
    "target_law",
    "ols_rho",
    "score_rho_error",
    "stationary_scale",
    "log_explosive_scale",
    "check_explosive_overflow",
    "pivot_T",
    "pivot_S",
    "sign_flip",
    "normalized_sum_squares",
    "explosive_pair",
]

_DEGENERATE_DENOM = 1e-300
_LOG_DBL_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class OlsResult:
    """Serial correlation estimate with its defining numerator/denominator."""

    numerator: float  # sum_{t=1}^n y_{t-1} y_t
    denominator: float  # sum_{t=1}^n y_{t-1}^2

    @property
    def rho_hat(self) -> float:
        return self.numerator / self.denominator


def ols_rho(y) -> OlsResult:
    """Least-squares slope of y_t on y_{t-1} through the origin."""
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        raise DomainError("OLS needs a series of length >= 2")
    lag = y[:-1]
    den = float(lag @ lag)
    if den < _DEGENERATE_DENOM:
        raise DegeneratePathError("degenerate path: sum of squared lags is zero")
    return OlsResult(numerator=float(lag @ y[1:]), denominator=den)


def score_rho_error(path: SimulatedPath) -> float:
    """Centered error rho_hat - rho_n via sum y_{t-1} u_t / sum y_{t-1}^2.

    Uses the innovations stored at generation time, avoiding the
    catastrophic cancellation of (numerator/denominator - rho_n) when
    rho_n^n dwarfs 1/eps.
    """
    return float(path.y[:-1] @ path.u) / ols_rho(path.y).denominator


@dataclass(frozen=True)
class PivotValue:
    """A normalized statistic together with its limiting target law."""

    kind: str  # "T" (near-stationary) | "S" (explosive)
    value: float
    target: TargetLaw


def target_law(params: ModelParams) -> TargetLaw:
    """Limit law of the regime's pivot: N(0, 2c), or the standard Cauchy."""
    if params.regime is Regime.NEAR_STATIONARY:
        return TargetLaw.normal(2.0 * params.c)
    return TargetLaw.standard_cauchy()


def stationary_scale(params: ModelParams) -> float:
    """sqrt(n k_n), the near-stationary pivot's normalization."""
    if params.regime is not Regime.NEAR_STATIONARY:
        raise DomainError("the near-stationary pivot requires the near-stationary regime")
    return math.sqrt(params.n * eval_sequence(params.kn, params.n))


def log_explosive_scale(params: ModelParams) -> tuple[float, float]:
    """(log(rho_n^n k_n / (2c)), n log rho_n) of the explosive regime."""
    if params.regime is not Regime.MILDLY_EXPLOSIVE:
        raise DomainError("the explosive pivot requires the mildly explosive regime")
    if params.c <= 0:
        raise DomainError("the explosive pivot needs c > 0")
    n_log_rho = params.n * math.log(rho_n(params))
    kn = eval_sequence(params.kn, params.n)
    return n_log_rho + math.log(kn) - math.log(2.0 * params.c), n_log_rho


def check_explosive_overflow(log_mag, n_log_rho: float, what: str) -> None:
    """Raise NumericOverflowError if any log-magnitude exceeds log(DBL_MAX)."""
    if np.any(log_mag > _LOG_DBL_MAX):
        raise NumericOverflowError(f"{what} overflow: n log rho_n = {n_log_rho:g}")


def _rescale(value: float, log_factor: float, n_log_rho: float, what: str) -> float:
    """value * exp(log_factor), formed in log-space with scalar libm calls."""
    if value == 0.0:
        return 0.0
    log_mag = math.log(abs(value)) + log_factor
    check_explosive_overflow(log_mag, n_log_rho, what)
    return math.copysign(math.exp(log_mag), value)


def pivot_T(ols: OlsResult, params: ModelParams, rho_error: float | None = None) -> PivotValue:
    """Near-stationary pivot sqrt(n k_n) (rho_hat - rho_n) -> N(0, 2c)."""
    scale = stationary_scale(params)
    diff = rho_error if rho_error is not None else ols.rho_hat - rho_n(params)
    return PivotValue(kind="T", value=scale * diff, target=target_law(params))


def pivot_S(ols: OlsResult, params: ModelParams, rho_error: float | None = None) -> PivotValue:
    """Explosive pivot rho_n^n k_n (rho_hat - rho_n) / (2c) -> Cauchy(0,1)."""
    log_scale, n_log_rho = log_explosive_scale(params)
    diff = rho_error if rho_error is not None else ols.rho_hat - rho_n(params)
    value = _rescale(diff, log_scale, n_log_rho, "explosive pivot")
    return PivotValue(kind="S", value=value, target=target_law(params))


def sign_flip(y):
    """Alternating sign transform y*_t = (-1)^t y_t (an involution)."""
    y = np.asarray(y, dtype=float)
    signs = np.where(np.arange(y.size) % 2 == 0, 1.0, -1.0)
    return y * signs


def normalized_sum_squares(y, params: ModelParams, vol: VolatilityScales):
    """sum_{t=1}^n y_t^2 / (n k_n m_n) along the last axis of y = (y_0..y_n), in log-space."""
    if params.regime is not Regime.NEAR_STATIONARY:
        raise DomainError("normalized_sum_squares requires the near-stationary regime")
    kn = eval_sequence(params.kn, params.n)
    tail = np.asarray(y)[..., 1:]
    ss = np.einsum("...i,...i->...", tail, tail)
    with np.errstate(divide="ignore"):  # an all-zero path maps to 0
        return np.exp(np.log(ss) - math.log(params.n) - math.log(kn) - vol.log_m_n)


def explosive_pair(
    path: SimulatedPath, params: ModelParams, vol: VolatilityScales
) -> tuple[float, float]:
    """Normalized (score, sum-of-squares) pair of the explosive regime.

    Returns (rho^-n sum y_{t-1} u_t / (l_n k_n),
             rho^-2n sum y_{t-1}^2 / (l_n k_n^2)),
    whose joint limit is (WV, V^2) with W, V independent N(0, 1/(2c)).
    The squared sum runs over the lagged series so that the ratio of the
    two coordinates reproduces the explosive pivot identity exactly.
    """
    _, n_log_rho = log_explosive_scale(params)
    log_kn = math.log(eval_sequence(params.kn, params.n))
    lag = path.y[:-1]
    score = float(lag @ path.u)
    ssq = float(lag @ lag)
    first = _rescale(score, -n_log_rho - vol.log_l_n - log_kn, n_log_rho, "explosive pair")
    second = _rescale(ssq, -2.0 * n_log_rho - vol.log_l_n - 2.0 * log_kn, n_log_rho,
                      "explosive pair")
    return first, second
