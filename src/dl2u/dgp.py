"""Reproducible path generation for the double near-unit-root model.

Each replication draws from counter-based Philox streams keyed by
(base, stream, series), so any path can be regenerated in isolation and
batched runs reproduce single-path ones bit for bit.  Series 0 carries the
mean innovations and series 1 the log-volatility shocks; the two are
independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericOverflowError
from .sequences import ModelParams, phi_n, rho_n

__all__ = ["RngSeed", "SimulatedPath", "draw_innovations", "simulate_path", "simulate_batch"]

_EPS_SERIES = 0
_ETA_SERIES = 1


@dataclass(frozen=True)
class RngSeed:
    """Stream address of one replication: (base seed, stream index)."""

    base: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.base < 2**64:
            raise DomainError("base must be a 64-bit unsigned integer")
        if not 0 <= self.stream < 2**64:
            raise DomainError("stream must be a 64-bit unsigned integer")


def _generator(seed: RngSeed, series: int) -> np.random.Generator:
    # 128-bit Philox key = (base, stream); disjoint series live 2^192
    # counter blocks apart, so draws can never overlap.
    key = seed.base | (seed.stream << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=series << 192))


def draw_innovations(params: ModelParams, seed: RngSeed) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (eps, eta) innovation pair for one path, each of length n."""
    eps = _generator(seed, _EPS_SERIES).standard_normal(params.n)
    if params.alpha > 0:
        eta = params.alpha * _generator(seed, _ETA_SERIES).standard_normal(params.n)
    else:
        eta = np.zeros(params.n)
    return eps, eta


@dataclass(frozen=True)
class SimulatedPath:
    """One realized trajectory: y and sigma2 of length n+1, u of length n."""

    y: np.ndarray
    sigma2: np.ndarray
    u: np.ndarray


def simulate_batch(
    params: ModelParams, base: int, streams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate len(streams) paths at once, one Philox substream per path.

    Returns (y, sigma2, u) with shapes (B, n+1), (B, n+1), (B, n).  Row j
    is the path for RngSeed(base, streams[j]); single-path and batched
    calls produce bit-identical values.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    B, n = len(streams), params.n

    y = np.empty((B, n + 1))
    sigma2 = np.empty((B, n + 1))
    u = np.empty((B, n))
    y[:, 0] = params.y0
    sigma2[:, 0] = np.exp(params.z0)
    if n == 0:
        return y, sigma2, u

    rho = rho_n(params)
    phi = phi_n(params)

    eps = np.empty((B, n))
    eta = np.zeros((B, n))
    for j, stream in enumerate(streams):
        seed = RngSeed(base, int(stream))
        eps[j], eta_j = draw_innovations(params, seed)
        if params.alpha > 0:
            eta[j] = eta_j

    z = np.full(B, params.z0)
    with np.errstate(over="ignore"):  # finiteness is checked explicitly below
        for t in range(n):
            z = phi * z + eta[:, t]
            s2 = np.exp(z)
            sigma2[:, t + 1] = s2
            u[:, t] = np.sqrt(s2) * eps[:, t]
            y[:, t + 1] = rho * y[:, t] + u[:, t]

    if not np.all(np.isfinite(y)):
        j_bad, t_bad = np.argwhere(~np.isfinite(y))[0]
        raise NumericOverflowError(
            f"y overflowed at index t={t_bad} (seed base={base}, "
            f"stream={streams[j_bad]}); n log rho = {n * np.log(rho):g}"
        )
    return y, sigma2, u


def simulate_path(params: ModelParams, seed: RngSeed) -> SimulatedPath:
    """Simulate one trajectory of the mean/volatility recursion pair."""
    y, sigma2, u = simulate_batch(params, seed.base, [seed.stream])
    return SimulatedPath(y=y[0], sigma2=sigma2[0], u=u[0])
