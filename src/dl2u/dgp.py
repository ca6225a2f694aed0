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

from .errors import NumericOverflowError
from .sequences import _LOG_DBL_MAX, ModelParams, integer, phi_n, rho_n

__all__ = [
    "RngSeed", "SimulatedPath", "draw_innovations", "simulate_path", "simulate_batch", "simulate_y",
]

_EPS_SERIES = 0
_ETA_SERIES = 1
_TILE = 64  # steps per time-major tile of a recurrence
_BAD_BASE = "base must be a 64-bit unsigned integer"
_BAD_STREAM = "stream must be a 64-bit unsigned integer"

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
        object.__setattr__(self, "base", integer(self.base, 0, 2**64, _BAD_BASE))
        object.__setattr__(self, "stream", integer(self.stream, 0, 2**64, _BAD_STREAM))


def draw_innovations(
    params: ModelParams, base: int, streams, eps=None, eta=None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the (eps, eta) innovations of len(streams) paths, each of shape (B, n) at alpha > 0.

    Row j of series s is the Philox stream with 128-bit key
    (base, streams[j]) started at counter s << 192, so disjoint series can
    never overlap.  One generator is re-keyed per row and series by assigning
    one state dict with that key and counter: the same bits as a fresh one.
    At alpha = 0, eta is one writable row of zeros, shape (1, n): z's
    recurrence needs no draws, and its one row serves every path.  Given
    eps or eta, the series is written there instead, so a caller can draw
    straight into columns 1..n of its (B, n+1) recurrence buffer.  Streams
    in a uint64 array pass on its dtype; any others are checked one by one.
    """
    base = integer(base, 0, 2**64, _BAD_BASE)
    if not (isinstance(streams, np.ndarray) and streams.dtype == np.uint64):
        streams = np.array([integer(s, 0, 2**64, _BAD_STREAM) for s in streams], dtype=np.uint64)
    B, n = len(streams), params.n
    bitgen = np.random.Philox(0)  # seeded: reads no OS entropy
    normal = np.random.Generator(bitgen).standard_normal
    eps = np.empty((B, n)) if eps is None else eps
    eta = np.empty((B if params.alpha > 0 else 1, n)) if eta is None else eta
    series = [((0, 0, 0, _EPS_SERIES), eps)]
    if params.alpha > 0:
        series.append(((0, 0, 0, _ETA_SERIES), eta))
    else:
        eta.fill(0.0)
    philox = {"key": None, "counter": None}
    state = {"bit_generator": "Philox", "state": philox, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for j, stream in enumerate(streams.tolist()):
        philox["key"] = (base, stream)
        for counter, out in series:
            philox["counter"] = counter
            bitgen.state = state
            normal(out=out[j])
    with np.errstate(over="ignore"):  # a huge alpha makes inf here, which _fill_y reports
        eta *= params.alpha
    return eps, eta


@dataclass(frozen=True)
class SimulatedPath:
    """One realized trajectory: y and sigma2 of length n+1, u of length n."""

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
    same multiply and add, in the same order, as the column loop.  Steps
    call local names with a positional out and a 0-d float64 coefficient,
    built once like the row views, which trims per-call argument handling.

    shocks may be x[:, 1:] itself: the row is copied out whole, and each
    tile's shocks are copied out before their columns of x are written.
    """
    B, n = shocks.shape
    if B == 1:
        v = float(x[0, 0])  # coef is a float: ModelParams holds floats
        x[0, 1:] = [v := coef * v + s for s in shocks[0].tolist()]
        return
    xt = np.empty((_TILE + 1, B))
    st = np.empty((_TILE, B))
    x_rows, shock_rows, coef = list(xt), list(st), np.array(coef, dtype=np.float64)
    multiply, add = np.multiply, np.add
    xt[0] = x[:, 0]
    for t0 in range(0, n, _TILE):
        T = min(_TILE, n - t0)
        st[:T] = shocks[:, t0 : t0 + T].T
        for t in range(T):
            multiply(x_rows[t], coef, x_rows[t + 1])
            add(x_rows[t + 1], shock_rows[t], x_rows[t + 1])
        x[:, t0 + 1 : t0 + T + 1] = xt[1 : T + 1].T
        xt[0] = xt[T]


def _shocks(params: ModelParams, base: int, streams, eps=None, sigma2=None) -> np.ndarray:
    """Draw eps (into the given (B, n) array, if any) and form u = eps * sqrt(sigma2) there.

    eta is drawn into columns 1..n of sigma2, shape (rows of eta, n+1),
    where z = phi z + eta recurs in place and is exponentiated.  Without a
    sigma2 to fill and keep, sqrt(sigma2) is written over those columns and
    the array is freed on return, so u is the one (B, n) array left.  u is
    bitwise sqrt(sigma2) * eps either way.  At alpha = 0 and z0 = 0, z stays
    0, so sigma2 is exactly 1 and u is eps: the volatility pass is skipped.
    """
    phi = phi_n(params)  # first, for its errors
    if params.z0 > _LOG_DBL_MAX:  # sigma2_0 reaches no u, so the check of y would miss it
        raise NumericOverflowError(f"sigma2_0 = exp(z0) overflowed at z0 = {params.z0:g}")
    kept = sigma2 is not None
    if not kept:
        sigma2 = np.empty((len(streams) if params.alpha > 0 else 1, params.n + 1))
    u, _ = draw_innovations(params, base, streams, eps=eps, eta=sigma2[:, 1:])
    if params.alpha == 0 and params.z0 == 0:
        sigma2.fill(1.0)
        return u
    sigma2[:, 0] = params.z0
    # Huge alpha or z0 make inf or NaN here; y's finiteness is checked by _fill_y.
    with np.errstate(over="ignore", invalid="ignore"):
        _recur(sigma2, sigma2[:, 1:], phi)
        np.exp(sigma2, out=sigma2)
        u *= np.sqrt(sigma2[:, 1:], out=None if kept else sigma2[:, 1:])
    return u


def _fill_y(y: np.ndarray, u, rho: float, params: ModelParams, base: int, streams) -> None:
    """Fill y from y0 by y = rho y + u (u may be y[:, 1:]); raise if any y is not finite."""
    y[:, 0] = params.y0
    with np.errstate(over="ignore", invalid="ignore"):
        _recur(y, u, rho)
    # A non-finite y[t] stays non-finite through rho * y[t] + u[t] (0 * inf is
    # NaN), so the last column decides; the full scan only locates the fault.
    if not np.all(np.isfinite(y[:, -1])):
        j_bad, t_bad = np.argwhere(~np.isfinite(y))[0]
        raise NumericOverflowError(
            f"y overflowed at index t={t_bad} (seed base={base}, "
            f"stream={streams[j_bad]}); n log rho = {params.n * np.log(rho):g}"
        )


def simulate_batch(params: ModelParams, base: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """Simulate len(streams) paths at once, one Philox substream per path.

    Returns (y, u) with shapes (B, n+1) and (B, n).  Row j is the path for
    RngSeed(base, streams[j]); single-path and batched calls produce
    bit-identical values.  sigma2 holds sqrt(sigma2) for u and is freed
    before y is allocated, so at most two (B, n+1)-sized arrays are live.
    """
    rho = rho_n(params)
    u = _shocks(params, base, streams)
    y = np.empty((len(streams), params.n + 1))
    _fill_y(y, u, rho, params, base, streams)
    return y, u


def simulate_y(params: ModelParams, base: int, streams) -> np.ndarray:
    """simulate_batch's y alone, bit for bit and with its errors, in one (B, n+1) array.

    eps is drawn into y's columns 1..n, u is formed there, and y recurs
    over them in place.
    """
    rho = rho_n(params)
    y = np.empty((len(streams), params.n + 1))
    _shocks(params, base, streams, eps=y[:, 1:])
    _fill_y(y, y[:, 1:], rho, params, base, streams)
    return y


def simulate_path(params: ModelParams, seed: RngSeed) -> SimulatedPath:
    """Simulate one trajectory of the mean/volatility recursion pair.

    simulate_batch's steps at B = 1, bit for bit and with its errors, but
    keeping the volatility row that simulate_batch frees.
    """
    streams = [seed.stream]
    rho = rho_n(params)
    sigma2 = np.empty((1, params.n + 1))
    u = _shocks(params, seed.base, streams, sigma2=sigma2)
    y = np.empty_like(sigma2)
    _fill_y(y, u, rho, params, seed.base, streams)
    return SimulatedPath(y=y[0], sigma2=sigma2[0], u=u[0])
