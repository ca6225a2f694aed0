"""OLS estimation of the autoregressive root and the two normalized pivots.

The near-stationary pivot sqrt(n k_n) (rho_hat - rho_n) targets N(0, 2c);
the explosive pivot rho_n^n k_n (rho_hat - rho_n) / (2c) targets the
standard Cauchy.  Explosive powers are always combined in log-space.
This module owns the pivot formula: `pivots` forms every table pivot.  The
scalar `pivot_T`/`pivot_S` keep BLAS dot products and math.exp, which round
differently, only because the output of `dl2u estimate` is pinned.

For strongly explosive roots the centered error rho_hat - rho_n is of
order rho_n^{-n}, far below the rounding error of rho_hat itself, so every
pivot is formed from the score form (sum y_{t-1} u_t / sum y_{t-1}^2 with
the stored innovations), which is free of that cancellation; the scalar
pivots take it as `rho_error`.  See `score_rho_error`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericOverflowError
from .ks import TargetLaw
from .sequences import _LOG_DBL_MAX, ModelParams, Regime, VolatilityScales, eval_sequence, rho_n

__all__ = [
    "OlsResult",
    "PivotValue",
    "target_law",
    "ols_rho",
    "score_rho_error",
    "pivots",
    "pivot_T",
    "pivot_S",
    "sign_flip",
    "normalized_sum_squares",
    "explosive_pair",
]

_DEGENERATE_DENOM = 1e-300


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
        raise DomainError("degenerate path: sum of squared lags is zero")
    return OlsResult(numerator=float(lag @ y[1:]), denominator=den)


def score_rho_error(path) -> float:
    """Centered error rho_hat - rho_n via sum y_{t-1} u_t / sum y_{t-1}^2.

    Reads path.y (n+1,) and path.u (n,), the innovations stored at
    generation time, avoiding the catastrophic cancellation of
    (numerator/denominator - rho_n) when rho_n^n dwarfs 1/eps.
    """
    return float(path.y[:-1] @ path.u) / ols_rho(path.y).denominator


@dataclass(frozen=True)
class PivotValue:
    """A normalized statistic; target_law(params) gives its limit law."""

    kind: str  # "T" (near-stationary) | "S" (explosive)
    value: float


def target_law(params: ModelParams) -> TargetLaw:
    """Limit law of the regime's pivot: N(0, 2c), or the standard Cauchy."""
    if params.regime is Regime.NEAR_STATIONARY:
        _stationary_scale(params)  # the normal limit needs the pivot's scale: k_n > c, n k_n finite
        return TargetLaw.normal(2.0 * params.c)
    _log_explosive_scale(params)  # the Cauchy limit needs the pivot's scale: c > 0
    return TargetLaw.standard_cauchy()


def _stationary_scale(params: ModelParams) -> float:
    """sqrt(n k_n), the near-stationary pivot's normalization."""
    if params.regime is not Regime.NEAR_STATIONARY:
        raise DomainError("the near-stationary pivot requires the near-stationary regime")
    rho_n(params)  # the root 1 - c/k_n must exist: k_n > c
    n_kn = params.n * eval_sequence(params.kn, params.n)
    if n_kn == math.inf:
        raise NumericOverflowError("near-stationary scale overflow: n k_n exceeds the float range")
    return math.sqrt(n_kn)


def _log_explosive_scale(params: ModelParams) -> tuple[float, float]:
    """(log(rho_n^n k_n / (2c)), n log rho_n) of the explosive regime."""
    if params.regime is not Regime.MILDLY_EXPLOSIVE or params.c <= 0:
        raise DomainError("the explosive pivot needs the mildly explosive regime and c > 0")
    if (two_c := 2.0 * params.c) == math.inf:
        raise NumericOverflowError("explosive scale overflow: 2c exceeds the float range")
    n_log_rho = params.n * math.log(rho_n(params))
    kn = eval_sequence(params.kn, params.n)
    return n_log_rho + math.log(kn) - math.log(two_c), n_log_rho


def _check_explosive_overflow(log_mag, n_log_rho: float, what: str) -> None:
    """Raise NumericOverflowError if any log-magnitude exceeds log(DBL_MAX)."""
    if np.any(log_mag > _LOG_DBL_MAX):
        raise NumericOverflowError(f"{what} overflow: n log rho_n = {n_log_rho:g}")


def _log_rescale(value, log_factor: float, n_log_rho: float, what: str):
    """value * exp(log_factor) elementwise, formed in log-space with numpy."""
    with np.errstate(divide="ignore"):  # a zero value maps to 0
        log_mag = np.log(np.abs(value)) + log_factor
    _check_explosive_overflow(log_mag, n_log_rho, what)
    return np.sign(value) * np.exp(log_mag)


def pivots(params: ModelParams, y, u) -> np.ndarray:
    """Score-form pivots of paths y (B, n+1), u (B, n); one row replays a table pivot."""
    if np.shape(y)[1:] != (params.n + 1,) or np.shape(u) != (np.shape(y)[0], params.n):
        raise DomainError(f"pivots at n = {params.n} need paths y (B, n+1) and u (B, n)")
    lag = y[:, :-1]
    den = np.einsum("ij,ij->i", lag, lag)
    if (overflowed := ~np.isfinite(den)).any():  # y is finite, but its squares overflow first
        raise NumericOverflowError(f"sum of squared lags overflowed on path {overflowed.argmax()}")
    if (zero := den < _DEGENERATE_DENOM).any():  # ols_rho's rule, before score / den
        raise DomainError(f"degenerate path: sum of squared lags is zero on path {zero.argmax()}")
    score = np.einsum("ij,ij->i", lag, u)
    diff = score / den
    if params.regime is Regime.NEAR_STATIONARY:
        return _stationary_scale(params) * diff
    log_scale, n_log_rho = _log_explosive_scale(params)
    return _log_rescale(diff, log_scale, n_log_rho, "explosive pivot")


def pivot_T(ols: OlsResult, params: ModelParams, *, rho_error: float) -> PivotValue:
    """Near-stationary pivot sqrt(n k_n) (rho_hat - rho_n) -> N(0, 2c); ols is not read."""
    return PivotValue(kind="T", value=_stationary_scale(params) * rho_error)


def pivot_S(ols: OlsResult, params: ModelParams, *, rho_error: float) -> PivotValue:
    """Explosive pivot rho_n^n k_n (rho_hat - rho_n) / (2c) -> Cauchy(0,1); ols is not read."""
    log_scale, n_log_rho = _log_explosive_scale(params)
    value = 0.0
    if rho_error != 0.0:  # scalar libm calls, as the pinned `dl2u estimate` output was formed
        log_mag = math.log(abs(rho_error)) + log_scale
        _check_explosive_overflow(log_mag, n_log_rho, "explosive pivot")
        value = math.copysign(math.exp(log_mag), rho_error)
    return PivotValue(kind="S", value=value)


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


def explosive_pair(y, u, params: ModelParams, vol: VolatilityScales):
    """Normalized (score, sum-of-squares) pair of the explosive regime.

    Along the last axis of y = (y_0..y_n) and u = (u_1..u_n), returns
    (rho^-n sum y_{t-1} u_t / (l_n k_n), rho^-2n sum y_{t-1}^2 / (l_n k_n^2)),
    whose joint limit is (WV, V^2) with W, V independent N(0, 1/(2c)).
    The squared sum runs over the lagged series so that the ratio of the
    two coordinates reproduces the explosive pivot identity exactly.
    """
    _, n_log_rho = _log_explosive_scale(params)
    log_kn = math.log(eval_sequence(params.kn, params.n))
    lag = np.asarray(y)[..., :-1]
    score = np.einsum("...i,...i->...", lag, u)
    ssq = np.einsum("...i,...i->...", lag, lag)
    first = _log_rescale(score, -n_log_rho - vol.log_l_n - log_kn, n_log_rho, "explosive pair")
    second = _log_rescale(ssq, -2.0 * n_log_rho - vol.log_l_n - 2.0 * log_kn, n_log_rho,
                          "explosive pair")
    return first, second
