"""Reproducible path generation for the double near-unit-root model.

Each replication draws from counter-based Philox streams keyed by
(base, stream, series), so any path can be regenerated in isolation and
batched runs reproduce single-path ones bit for bit.  Series 0 carries the
mean innovations and series 1 the log-volatility shocks; the two are
independent by construction.
"""

from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericOverflowError
from .sequences import ModelParams, phi_n, rho_n

__all__ = ["RngSeed", "SimulatedPath", "draw_innovations", "simulate_path", "simulate_batch"]

_EPS_SERIES = 0
_ETA_SERIES = 1
_TILE = 64  # steps per time-major tile of a recurrence

# By default glibc mmaps each block above a threshold that moves with the
# process's history and returns freed memory to the OS, so a fresh (B, n)
# batch array would fault in a page per 4 KB.  Fixed, process-wide thresholds
# keep blocks up to 32 MiB (glibc's largest) on the heap and up to 64 MiB of
# freed heap in the process, so each batch reuses the last one's memory.
if sys.platform.startswith("linux") and hasattr(_libc := ctypes.CDLL(None), "mallopt"):
    _libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


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
    At alpha = 0, eta is a read-only broadcast view of 0.0.
    """
    RngSeed(base)  # validates the 64-bit range
    streams = np.asarray(streams, dtype=np.uint64)
    B, n = len(streams), params.n
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    eps = np.empty((B, n))
    series = [(_EPS_SERIES, eps)]
    if params.alpha > 0:
        eta = np.empty((B, n))
        series.append((_ETA_SERIES, eta))
    else:
        eta = np.broadcast_to(0.0, (B, n))
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
    """One realized trajectory: y and sigma2 of length n+1, u of length n.

    At alpha = 0, sigma2 is a read-only view of the one volatility row that
    every path of its batch shares.
    """

    y: np.ndarray
    sigma2: np.ndarray
    u: np.ndarray


def _recur(x: np.ndarray, shocks: np.ndarray, coef: float) -> None:
    """Fill x[:, 1:] in place with x[:, t+1] = coef * x[:, t] + shocks[:, t].

    One row loops over Python floats: CPython rounds each multiply and add
    exactly as np.multiply and np.add do, without their per-call dispatch.
    More rows run time-major over tiles of _TILE steps in contiguous
    (T+1, B) and (T, B) buffers, so each step is two ufunc calls over
    contiguous rows rather than strided columns; every element sees the
    same multiply and add, in the same order, as the column loop.  The row
    views and the float64 coefficient are built once, not per step.
    """
    B, n = shocks.shape
    if B == 1:
        v, coef = float(x[0, 0]), float(coef)
        x[0, 1:] = [v := coef * v + s for s in shocks[0].tolist()]
        return
    xt = np.empty((_TILE + 1, B))
    st = np.empty((_TILE, B))
    x_rows, shock_rows, coef = list(xt), list(st), np.float64(coef)
    xt[0] = x[:, 0]
    for t0 in range(0, n, _TILE):
        T = min(_TILE, n - t0)
        st[:T] = shocks[:, t0 : t0 + T].T
        for t in range(T):
            np.multiply(x_rows[t], coef, out=x_rows[t + 1])
            np.add(x_rows[t + 1], shock_rows[t], out=x_rows[t + 1])
        x[:, t0 + 1 : t0 + T + 1] = xt[1 : T + 1].T
        xt[0] = xt[T]


def simulate_batch(
    params: ModelParams, base: int, streams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate len(streams) paths at once, one Philox substream per path.

    Returns (y, sigma2, u) with shapes (B, n+1), (B, n+1), (B, n).  Row j
    is the path for RngSeed(base, streams[j]); single-path and batched
    calls produce bit-identical values.  At alpha = 0 every path has the
    same volatility, and sigma2 is a read-only broadcast view of one row.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    B, n = len(streams), params.n
    rho = rho_n(params)
    phi = phi_n(params)

    # Allocated before the draws: the reverse order left the peak RSS of
    # repeated `dl2u verify` calls 2 MB (1.5%) higher.
    y = np.empty((B, n + 1))
    y[:, 0] = params.y0
    # At alpha = 0, eta = 0 and every path shares one z row, driven by eta's first row.
    sigma2 = np.empty((B, n + 1)) if params.alpha > 0 else np.empty((1, n + 1))
    sigma2[:, 0] = params.z0
    # Huge alpha, z0 or rho_n make inf or NaN below; y's finiteness is checked at the end.
    with np.errstate(over="ignore", invalid="ignore"):
        # z = phi z + eta and y = rho y + u are the only recurrences; z runs
        # in sigma2 and is exponentiated there.  u is formed in eps's memory
        # as eps * sqrt(sigma2), which is bitwise sqrt(sigma2) * eps.
        eps, eta = draw_innovations(params, base, streams)
        _recur(sigma2, eta[: len(sigma2)], phi)
        np.exp(sigma2, out=sigma2)
        if params.alpha > 0:
            vol = np.sqrt(sigma2[:, 1:], out=eta)
        else:
            vol = np.sqrt(sigma2[0, 1:])
            sigma2 = np.broadcast_to(sigma2[0], (B, n + 1))
        u = eps
        u *= vol
        _recur(y, u, rho)

    # A non-finite y[t] stays non-finite through rho * y[t] + u[t] (0 * inf is
    # NaN), so the last column decides; the full scan only locates the fault.
    if not np.all(np.isfinite(y[:, -1])):
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
