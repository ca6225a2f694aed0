"""Sample-size-indexed parameter sequences and volatility scale quantities.

The model's persistence parameters are driven by rate sequences evaluated
at the sample length n: the mean root is 1 -/+ c/k_n and the log-volatility
persistence is 1 - d/log(r_n).  This module evaluates those sequences and
the closed-form scales of the lognormal volatility process: the dispersion
factor A_t, and the sample-average variance m_n and long-run scale l_n,
which are kept in log-space so that large-alpha / near-unit-phi regimes
never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError

__all__ = [
    "SequenceKind",
    "SequenceSpec",
    "Regime",
    "ModelParams",
    "VolatilityScales",
    "dispersion",
    "eval_sequence",
    "rho_n",
    "phi_n",
    "scales",
]


class SequenceKind(Enum):  # each value is the kind's head in CLI notation
    CONSTANT = "const"
    LOG_OF_N = "log"
    POWER_OF_N = "pow"
    LINEAR_N = "lin"


@dataclass(frozen=True)
class SequenceSpec:
    """A rate sequence: constant, log n, n^a with a in (0, 1], or n."""

    kind: SequenceKind
    value: float | None = None  # constant value or power exponent

    def __post_init__(self):
        if self.kind is SequenceKind.CONSTANT:
            if self.value is None or not 0 < self.value < math.inf:
                raise DomainError("constant sequence needs a positive finite value")
        elif self.kind is SequenceKind.POWER_OF_N:
            if self.value is None or not 0 < self.value <= 1:
                raise DomainError("power sequence needs exponent in (0, 1]")
        elif self.value is not None:
            raise DomainError(f"{self.kind.value} sequence takes no parameter")

    @staticmethod
    def constant(value: float) -> "SequenceSpec":
        return SequenceSpec(SequenceKind.CONSTANT, float(value))

    @staticmethod
    def log_of_n() -> "SequenceSpec":
        return SequenceSpec(SequenceKind.LOG_OF_N)

    @staticmethod
    def power_of_n(a: float) -> "SequenceSpec":
        return SequenceSpec(SequenceKind.POWER_OF_N, float(a))

    @staticmethod
    def linear_n() -> "SequenceSpec":
        return SequenceSpec(SequenceKind.LINEAR_N)

    @staticmethod
    def parse(text: str) -> "SequenceSpec":
        """Parse CLI notation: 'const:V', 'log', 'pow:A' or 'lin'."""
        head, colon, arg = text.partition(":")
        try:
            kind, value = SequenceKind(head), float(arg) if colon else None
        except ValueError:
            raise DomainError(
                f"malformed sequence spec {text!r}; expected const:V, log, pow:A or lin"
            ) from None
        return SequenceSpec(kind, value)

    def label(self) -> str:
        """CLI notation of the sequence; `parse` inverts it."""
        if self.value is None:
            return self.kind.value
        return f"{self.kind.value}:{self.value:g}"


def eval_sequence(spec: SequenceSpec, n: int) -> float:
    """Evaluate a rate sequence at sample length n (requires n >= 3)."""
    if n < 3:
        raise DomainError(f"sequence evaluation needs n >= 3, got n={n}")
    if spec.kind is SequenceKind.CONSTANT:
        return spec.value
    if spec.kind is SequenceKind.LOG_OF_N:
        return math.log(n)
    if spec.kind is SequenceKind.POWER_OF_N:
        return float(n) ** spec.value
    return float(n)


class Regime(Enum):
    NEAR_STATIONARY = "stat"
    MILDLY_EXPLOSIVE = "expl"


@dataclass(frozen=True)
class ModelParams:
    """Full parameterization of the double near-unit-root data generator."""

    c: float
    d: float
    alpha: float
    n: int
    kn: SequenceSpec
    regime: Regime
    rn: SequenceSpec = field(default_factory=SequenceSpec.log_of_n)
    y0: float = 0.0
    z0: float = 0.0

    def __post_init__(self):
        if self.c < 0:
            raise DomainError("c must be nonnegative")
        if self.d <= 0:
            raise DomainError("d must be positive")
        if self.alpha < 0:
            raise DomainError("alpha must be nonnegative")
        if self.n < 3:  # eval_sequence, which every formula calls, needs n >= 3
            raise DomainError(f"n must be at least 3, got n={self.n}")


def rho_n(params: ModelParams) -> float:
    """Autoregressive root 1 -/+ c/k_n for the configured regime."""
    kn = eval_sequence(params.kn, params.n)
    if params.regime is Regime.NEAR_STATIONARY:
        if kn <= params.c and params.c > 0:
            raise DomainError(
                f"near-stationary root needs k_n > c; k_n={kn:g} <= c={params.c:g}"
            )
        return 1.0 - params.c / kn
    return 1.0 + params.c / kn


def _min_admissible_n(rn: SequenceSpec, d: float) -> int | None:
    """Smallest n in [3, 10^9] with log(r_n) > d, or None if no such n exists."""
    lo, hi = 3, 10**9
    if math.log(eval_sequence(rn, hi)) <= d:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if math.log(eval_sequence(rn, mid)) > d:
            hi = mid
        else:
            lo = mid + 1
    return lo


def phi_n(params: ModelParams) -> float:
    """Volatility persistence 1 - d/log(r_n), strictly inside (0, 1)."""
    rn = eval_sequence(params.rn, params.n)
    log_rn = math.log(rn)
    if log_rn <= params.d:
        n_min = _min_admissible_n(params.rn, params.d)
        hint = (
            f"; minimum admissible n is {n_min}"
            if n_min is not None
            else "; no n makes this r_n admissible"
        )
        raise DomainError(
            f"phi_n undefined: log r_n = {log_rn:g} <= d = {params.d:g}"
            f" at n = {params.n}{hint}"
        )
    return 1.0 - params.d / log_rn


def dispersion(phi: float, t: int) -> float:
    """A_t = (1 - phi^(2t)) / (2 (1 - phi^2)), so that Var z_t = 2 alpha^2 A_t; A_1 = 1/2."""
    return -math.expm1(2.0 * t * math.log(phi)) / (2.0 * (1.0 - phi * phi))


@dataclass(frozen=True)
class VolatilityScales:
    """Log-space scales of the lognormal volatility process.

    m_n = n^-1 sum_t exp(alpha^2 A_t) and l_n = exp(alpha^2 / (2 (1 - phi^2)))
    overflow in direct space long before their logarithms do.
    """

    log_m_n: float
    log_l_n: float


def scales(params: ModelParams) -> VolatilityScales:
    """Compute log m_n and log l_n."""
    phi = phi_n(params)
    alpha = params.alpha
    n = params.n
    phi2 = phi * phi

    t = np.arange(1, n + 1, dtype=float)
    # Vectorized A_t.  `dispersion` cannot share it: np.expm1 differs from
    # math.expm1 by 1 ulp at (phi=0.9, t=2), a value that the cross-moment
    # closed form of `dl2u verify` pins.
    A_t = -np.expm1(2.0 * t * math.log(phi)) / (2.0 * (1.0 - phi2))
    log_m = float(logsumexp(alpha**2 * A_t) - math.log(n))
    log_l = alpha**2 / (2.0 * (1.0 - phi2))
    return VolatilityScales(log_m_n=log_m, log_l_n=log_l)
