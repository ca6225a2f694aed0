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

import bisect
import contextlib
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, NumericOverflowError

__all__ = [
    "SequenceKind",
    "SequenceSpec",
    "Regime",
    "ModelParams",
    "VolatilityScales",
    "integer",
    "real",
    "alpha_squared",
    "dispersion",
    "eval_sequence",
    "rho_n",
    "phi_n",
    "scales",
]

_LOG_DBL_MAX = math.log(sys.float_info.max)  # exp of any larger double overflows


def _number(x, kinds: tuple, cast, lo: float, hi: float, need: str):
    """cast(x) for an x of `kinds`, but no bool, with cast(x) in [lo, hi); else
    DomainError(f"{need}, got {value}"), value being repr(x), or "an int of N bits" past 1,024
    bits (309 digits, below any int-to-str limit).  need is constant text, formatted on failure."""
    with contextlib.suppress(OverflowError):  # float(x) of an int from 2^1024 - 2^970 on
        if isinstance(x, kinds) and not isinstance(x, bool) and lo <= (v := cast(x)) < hi:
            return v
    big = isinstance(x, int) and x.bit_length() > 1024
    raise DomainError(f"{need}, got {f'an int of {x.bit_length()} bits' if big else repr(x)}")


def integer(x, lo: float, hi: float, need: str) -> int:
    """int(x) for an int or numpy integer in [lo, hi); else need's DomainError (see `_number`)."""
    return _number(x, (int, np.integer), int, lo, hi, need)


def real(x, lo: float, hi: float, need: str) -> float:
    """`integer`'s rule for float(x) of an int, float or numpy integer or floating; open ends are
    exact doubles: ulp(0.0) for > 0, nextafter(1.0, 2.0) for <= 1, -float_info.max for finite."""
    return _number(x, (int, float, np.integer, np.floating), float, lo, hi, need)


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
        if self.kind is SequenceKind.CONSTANT or self.kind is SequenceKind.POWER_OF_N:
            const = self.kind is SequenceKind.CONSTANT
            value = real(self.value, math.ulp(0.0), math.inf if const else math.nextafter(1.0, 2.0),
                         "constant sequence needs a positive finite value" if const
                         else "power sequence needs exponent in (0, 1]")
            object.__setattr__(self, "value", value)
        elif self.value is not None:
            raise DomainError(f"{self.kind.value} sequence takes no parameter")

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
        text = f"{self.value:g}"  # short form, unless it rounds the value
        if float(text) != self.value:
            text = repr(self.value)
        return f"{self.kind.value}:{text}"


def eval_sequence(spec: SequenceSpec, n: int) -> float:
    """Evaluate a rate sequence at sample length n, an integer in ModelParams' range [3, 2^53]."""
    n = integer(n, 3, 2**53 + 1, "sequence evaluation needs an integer n in [3, 2^53]")
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


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Full parameterization of the double near-unit-root data generator; every
    `params` record the CLI writes lists these fields, in this order."""

    c: float
    d: float
    alpha: float
    n: int
    kn: SequenceSpec
    rn: SequenceSpec = field(default_factory=lambda: SequenceSpec(SequenceKind.LOG_OF_N))
    regime: Regime
    y0: float = 0.0
    z0: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.kn, SequenceSpec) and isinstance(self.rn, SequenceSpec)
                and isinstance(self.regime, Regime)):  # a str regime would read as explosive
            raise DomainError("kn and rn must be SequenceSpecs and regime a Regime")
        for names, lo, rule in (("c alpha", 0.0, " must be finite and nonnegative"),
                                ("d", math.ulp(0.0), " must be finite and positive"),
                                ("y0 z0", -sys.float_info.max, " must be finite")):
            for name in names.split():
                object.__setattr__(self, name, real(getattr(self, name), lo, math.inf, name + rule))
        n = integer(self.n, 3, 2**53 + 1, "n must be an integer in [3, 2^53]")  # eval_sequence's n
        object.__setattr__(self, "n", n)


def rho_n(params: ModelParams) -> float:
    """Autoregressive root 1 -/+ c/k_n for the configured regime."""
    kn = eval_sequence(params.kn, params.n)
    if params.regime is Regime.NEAR_STATIONARY:
        if kn <= params.c:
            raise DomainError(f"near-stationary root needs k_n > c; k_n={kn:g} <= c={params.c:g}")
        return 1.0 - params.c / kn
    return 1.0 + params.c / kn


def _min_admissible_n(rn: SequenceSpec, d: float) -> int | None:
    """Smallest n in [3, 10^9] with log(r_n) > d, or None if no such n exists."""
    ns = range(3, 10**9 + 1)
    i = bisect.bisect_left(ns, True, key=lambda n: math.log(eval_sequence(rn, n)) > d)
    return ns[i] if i < len(ns) else None


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


def alpha_squared(alpha: float) -> float:
    """alpha^2 of the closed forms; NumericOverflowError where it leaves the float range."""
    alpha = real(alpha, -sys.float_info.max, math.inf, "alpha must be finite")
    if (a2 := alpha * alpha) == math.inf:  # alpha**2 would raise a bare OverflowError
        raise NumericOverflowError(f"alpha^2 leaves the float range at alpha = {alpha:g}")
    return a2


def dispersion(phi: float, t):
    """A_t = (1 - phi^(2t)) / (2 (1 - phi^2)), so that Var z_t = 2 alpha^2 A_t; A_1 = 1/2.

    t is an int in [0, 2^63), which gives a float, or a 1-d int array of t >= 0.  libm's
    expm1 runs at every t (numpy's SIMD expm1 rounds some of them 1 ulp apart).
    """
    phi = real(phi, math.ulp(0.0), 1.0, "A_t needs phi in (0, 1)")  # phi_n's range
    if np.ndim(t) == 0:  # below 2^63, np.atleast_1d(t) is int64
        t = integer(t, 0, 2**63, "A_t needs an integer t in [0, 2^63)")
    elif np.asarray(t).dtype.kind not in "iu" or np.min(t, initial=0) < 0:
        raise DomainError("A_t needs an integer array t >= 0")
    x = 2.0 * np.atleast_1d(t) * math.log(phi)
    a = -np.fromiter(map(math.expm1, x.tolist()), float, x.size) / (2.0 * (1.0 - phi * phi))
    return a if np.ndim(t) else float(a[0])


@dataclass(frozen=True)
class VolatilityScales:
    """Log-space scales of the lognormal volatility process.

    m_n = n^-1 sum_t exp(alpha^2 A_t) and l_n = exp(alpha^2 / (2 (1 - phi^2)))
    overflow in direct space long before their logarithms do.
    """

    log_m_n: float
    log_l_n: float


def scales(params: ModelParams) -> VolatilityScales:
    """Compute log m_n and log l_n.  log m_n is the log-mean-exp of alpha^2 A_t shifted
    by its largest term, so no exp overflows, and it is exactly 0 at alpha = 0;
    NumericOverflowError where alpha^2 A_t or log l_n leaves the float range."""
    phi = phi_n(params)
    a2 = alpha_squared(params.alpha)
    with np.errstate(over="ignore"):  # an infinite alpha^2 A_t is caught below
        a = a2 * dispersion(phi, np.arange(1, params.n + 1))
    a_max = a.max()
    log_l = a2 / (2.0 * (1.0 - phi * phi))
    if not (math.isfinite(a_max) and math.isfinite(log_l)):  # log l_n is alpha^2 A_t's limit
        raise NumericOverflowError(
            f"alpha^2 A_t leaves the float range at alpha = {params.alpha:g}")
    log_m = float(a_max + math.log(np.mean(np.exp(a - a_max))))
    return VolatilityScales(log_m_n=log_m, log_l_n=log_l)
