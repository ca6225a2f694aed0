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


def draw_innovations(params: ModelParams, base: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (eps, eta) innovations of len(streams) paths, each of shape (B, n).

    Row j of series s is the Philox stream with 128-bit key
    (base, streams[j]) started at counter s << 192, so disjoint series can
    never overlap.  One generator is re-keyed per row and series rather
    than rebuilt: a fresh key, counter and empty buffer give the same bits.
    """
    RngSeed(base)  # validates the 64-bit range
    streams = np.asarray(streams, dtype=np.uint64)
    B, n = len(streams), params.n
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    eps = np.empty((B, n))
    eta = np.zeros((B, n))  # unwritten at alpha = 0: filling 16 MB of it cost +15.3 MB RSS
    series = [(_EPS_SERIES, eps)]
    if params.alpha > 0:
        series.append((_ETA_SERIES, eta))
    for j, stream in enumerate(streams.tolist()):
        for counter_hi, out in series:
            bitgen.state = {
                "bit_generator": "Philox",
                "state": {"key": (base, stream), "counter": (0, 0, 0, counter_hi)},
                "buffer": (0, 0, 0, 0),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.standard_normal(out=out[j])
    if params.alpha > 0:
        eta *= params.alpha
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
    rho = rho_n(params)
    phi = phi_n(params)

    y = np.empty((B, n + 1))
    sigma2 = np.empty((B, n + 1))
    u = np.empty((B, n))
    # Huge alpha, z0 or rho_n make inf or NaN below; y's finiteness is checked at the end.
    with np.errstate(over="ignore", invalid="ignore"):
        # Drawn after the outputs are allocated: the reverse order left the peak
        # RSS of repeated `dl2u verify` calls 2 MB (1.5%) higher.
        eps, eta = draw_innovations(params, base, streams)

        # Only z and y are true recurrences; each step is one multiply and one
        # add per element, in the same order as z = phi z + eta, y = rho y + u.
        # z runs in sigma2's columns and is exponentiated there afterwards.
        y[:, 0] = params.y0
        if params.alpha > 0:
            sigma2[:, 0] = params.z0
            for t in range(n):
                np.multiply(sigma2[:, t], phi, out=sigma2[:, t + 1])
                sigma2[:, t + 1] += eta[:, t]
        else:  # eta = 0, so every path shares one z; "+ 0.0" is its eta term
            z = [params.z0]
            for t in range(n):
                z.append(phi * z[t] + 0.0)
            sigma2[:] = z
        np.exp(sigma2, out=sigma2)
        np.sqrt(sigma2[:, 1:], out=u)
        u *= eps
        for t in range(n):
            np.multiply(y[:, t], rho, out=y[:, t + 1])
            y[:, t + 1] += u[:, t]

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
