"""Monte Carlo verification of the lognormal moment identities and limits.

Every check pits a simulation estimate against the closed form the theory
normalizes by, reporting a z-score; |z| <= 4 passes.  Lognormal checks use
antithetic shock pairs, which the symmetry of the identities makes free
variance reduction.  Degenerate alpha = 0 cases must pass with z = 0
exactly.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import dgp, montecarlo
from .errors import DomainError, NumericOverflowError
from .estimator import normalized_sum_squares
from .sequences import (ModelParams, Regime, SequenceSpec, alpha_squared, dispersion,
                        eval_sequence, integer, real, rho_n, scales)

__all__ = [
    "check_cross_moment",
    "check_conditional_mean",
    "check_eq6_convergence",
    "check_wnvn",
    "run_moment_suite",
    "verify",
]

DRAWS = 10**5  # draws per moment check, half of them antithetic
Z_THRESHOLD = 4.0
EQ6_PATHS = 200  # paths per grid point of check_eq6_convergence
WNVN_PATHS = 2000  # paths of check_wnvn
BATCH_BYTES = 8 << 20  # most bytes of (B, n+1)-sized arrays a check's batch holds at once
# dl2u verify's models: table 1a's n^0.25 row at two sizes for eq6, table 2a's n^0.5 row for wn_vn
VERIFY_EQ6_GRID = tuple(montecarlo.table_params("1a", SequenceSpec.parse("pow:0.25"), n)
                        for n in (montecarlo.N_NEARSTAT, 10000))
VERIFY_WNVN = montecarlo.table_params("2a", SequenceSpec.parse("pow:0.5"))


def _check(label: str, log_values: np.ndarray, log_closed: float, log_scale: float = 0.0) -> dict:
    """The record of the mean of exp(log_scale) exp(log_values) against exp(log_closed), as
    `dl2u verify` prints it; NumericOverflowError if a moment or its sample leaves the float range."""
    with np.errstate(over="raise"):
        try:
            values, closed = math.exp(log_scale) * np.exp(log_values), math.exp(log_closed)
            if np.ptp(values) == 0.0:  # constant sample: mean is exact, error zero
                mc, se = float(values[0]), 0.0
            else:
                mc, se = float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
        except (OverflowError, FloatingPointError):
            closed = math.inf
    if closed == math.inf:  # math.exp(inf) is inf, without an OverflowError
        raise NumericOverflowError(f"{label} leaves the float range")
    z = 0.0 if se == 0.0 and mc == closed else (mc - closed) / se
    return {"label": label, "mc_estimate": mc, "closed_form": closed, "mc_std_error": se,
            "z_score": z, "passed": abs(z) <= Z_THRESHOLD}


def _stream_blocks(paths: int, path_bytes: int) -> list[np.ndarray]:
    """Streams 0..paths-1 in the fewest even blocks whose path_bytes per path fit BATCH_BYTES.

    All but the last block are multiples of 4 rows, so each row of u @ w meets
    the OpenBLAS gemv kernel, and keeps the bits, that it has in one whole batch.
    """
    fit = max(4, BATCH_BYTES // path_bytes // 4 * 4)
    rows = 4 * -(-paths // (4 * -(-paths // fit)))
    streams = np.arange(paths, dtype=np.uint64)
    return [streams[a : a + rows] for a in range(0, paths, rows)]


def _simulate_z(phi: float, alpha: float, s: int, t: int, seed: int) -> np.ndarray:
    """Antithetic draws of z_s + z_t, z_t = sum_j phi^j eta_{t-j} and z_0 = 0, for 0 <= s <= t."""
    seed = integer(seed, 0, 2**128, "moment check needs an integer seed in [0, 2^128)")
    if alpha == 0:  # z is zero: one value, which _check reads as a constant sample, and no draw
        return np.zeros(1)
    half = DRAWS // 2
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = z_s = np.zeros(half)
    for step in range(1, t + 1):
        z = phi * z + alpha * rng.standard_normal(half)
        if step == s:
            z_s = z
    z = z_s + z
    return np.concatenate([z, -z])  # eta -> -eta flips z's sign


def check_cross_moment(alpha, phi, s, t, seed) -> dict:
    """E[sigma_s^2 sigma_t^2] = exp(alpha^2 A_s + alpha^2 A_t + 2 alpha^2 phi^(t-s) A_s), labeled
    as E[sigma_t^2] = exp(alpha^2 A_t) at s = 0 (z_0 = 0, A_0 = 0) and E[sigma_t^4] at s = t."""
    t = integer(t, 0, math.inf, "cross moment needs integers 0 <= s <= t")
    s = integer(s, 0, t + 1, "cross moment needs integers 0 <= s <= t")
    # the closed form's domain is checked before any draw; then only the checked floats are read
    a2, a_s, a_t = alpha_squared(alpha), dispersion(phi, s), dispersion(phi, t)
    alpha, phi = float(alpha), float(phi)
    log_closed = a2 * a_s + a2 * a_t + 2.0 * a2 * phi ** (t - s) * a_s
    if s == 0:
        label = f"mean_sigma2(alpha={alpha},phi={phi},t={t})"
    elif s == t:
        label = f"fourth_moment(alpha={alpha},phi={phi},t={t})"
    else:
        label = f"cross_moment(alpha={alpha},phi={phi},s={s},t={t})"
    return _check(label, _simulate_z(phi, alpha, s, t, seed), log_closed)


def check_conditional_mean(alpha, phi, seed) -> dict:
    """E[sigma_t^2 | z_{t-1} = z] = exp(phi z + alpha^2 / 2) at any finite phi, worst grid point."""
    phi = real(phi, -sys.float_info.max, math.inf, "conditional mean needs a finite phi")
    a2, alpha = alpha_squared(alpha), float(alpha)
    eta = _simulate_z(0.0, alpha, 0, 1, seed)  # z_1 = eta_1 when phi = 0
    checks = []
    for z_prev in np.linspace(-2.0, 2.0, 5):
        label = f"conditional_mean(alpha={alpha},phi={phi},z={z_prev:g})"
        checks.append(_check(label, eta, phi * z_prev + a2 / 2.0, phi * z_prev))
    return max(checks, key=lambda c: abs(c["z_score"]))  # the first of equal maxima


def check_eq6_convergence(params_grid, seed: int) -> dict:
    """Normalized sum of squares drifting to 1/(2c) along an n-grid.

    Passes when the absolute error at the largest n is below the error at
    the smallest n and within 15% of the 1/(2c) target.  Each grid point
    runs dgp.simulate_y, which draws u into y and recurs over it in place,
    over the fewest blocks of paths whose y (and sigma2, at alpha > 0) fit
    BATCH_BYTES: in dl2u verify, n = 10000 in two halves of 100 paths.  Each
    statistic is its own path's, so the means are one whole batch's, bit for bit.
    """
    if len(params_grid) < 2:
        raise DomainError("need at least two grid points")
    if any(params.regime is not Regime.NEAR_STATIONARY or params.c <= 0 for params in params_grid):
        raise DomainError("eq6 convergence check needs near-stationary points with c > 0")
    entries = []
    for params in params_grid:
        vol = scales(params)
        path_bytes = 8 * (params.n + 1) * (2 if params.alpha > 0 else 1)
        stats = np.concatenate([
            normalized_sum_squares(dgp.simulate_y(params, seed, streams), params, vol)
            for streams in _stream_blocks(EQ6_PATHS, path_bytes)
        ])
        target = 1.0 / (2.0 * params.c)
        entries.append({"n": params.n, "mean": float(stats.mean()),
                        "abs_error": float(abs(stats.mean() - target)), "target": target})
    entries.sort(key=lambda e: e["n"])
    final, first = entries[-1], entries[0]
    passed = (
        final["abs_error"] < first["abs_error"]
        and final["abs_error"] <= 0.15 * final["target"]
    )
    return {"label": "eq6_convergence", "grid": entries, "passed": passed}


def check_wnvn(params: ModelParams, seed: int) -> dict:
    """Variances of the explosive auxiliary sums vs 1/(2c), correlation vs 0.

    W_n weights innovations by rho^-j, V_n by rho^-(n-j+1); the limit is an
    independent N(0, 1/(2c)) pair.  Only u is read.  dgp.simulate_batch
    holds two (B, n+1)-sized arrays, u and sigma2, then y and u, so the
    paths run in the fewest blocks whose two arrays fit BATCH_BYTES (in dl2u
    verify, two halves of 1000); W and V are one whole batch's, bit for bit.
    """
    if params.regime is not Regime.MILDLY_EXPLOSIVE or params.c <= 0:
        raise DomainError("W/V check needs the mildly explosive regime and c > 0")
    vol = scales(params)
    rho = rho_n(params)
    kn = eval_sequence(params.kn, params.n)
    n = params.n
    j = np.arange(1, n + 1)
    half_log_norm = 0.5 * (vol.log_l_n + math.log(kn))
    w_weights = np.exp(-j * math.log(rho) - half_log_norm)
    v_weights = np.exp(-(n - j + 1) * math.log(rho) - half_log_norm)

    def _wv(streams):  # y and u are freed on return, before the next block is drawn
        u = dgp.simulate_batch(params, seed, streams)[1]
        return u @ w_weights, u @ v_weights

    W, V = np.concatenate([_wv(s) for s in _stream_blocks(WNVN_PATHS, 16 * (n + 1))], axis=1)
    target = 1.0 / (2.0 * params.c)

    def _var_entry(name, x):
        var = float(np.var(x, ddof=1))
        se = var * math.sqrt(2.0 / (len(x) - 1))
        return {"name": name, "value": var, "target": target, "se": se,
                "z": (var - target) / se}

    corr = float(np.corrcoef(W, V)[0, 1])
    corr_se = 1.0 / math.sqrt(WNVN_PATHS)
    checks = [
        _var_entry("var_W", W),
        _var_entry("var_V", V),
        {"name": "corr_WV", "value": corr, "target": 0.0, "se": corr_se, "z": corr / corr_se},
    ]
    return {
        "label": "wn_vn",
        "checks": checks,
        "passed": all(abs(c["z"]) <= Z_THRESHOLD for c in checks),
    }


# the battery: (alpha, phi, s, t) of check_cross_moment, then (alpha, phi) of check_conditional_mean
MOMENT_CASES = ((0.0, 0.9, 0, 3), (0.5, 0.9, 0, 3), (0.5, 0.5, 0, 1), (0.0, 0.9, 3, 3),
                (0.5, 0.5, 2, 2), (0.3, 0.95, 10, 10), (0.0, 0.9, 2, 4), (0.5, 0.9, 2, 4),
                (0.4, 0.3, 2, 12), (0.0, 0.9), (0.5, 0.9))


def run_moment_suite(seed: int = 707) -> list[dict]:
    """The records of MOMENT_CASES in order; case k reads Philox key seed + k < 2^128."""
    seed = integer(seed, 0, 2**128 - (len(MOMENT_CASES) - 1),
                   "moment suite needs an integer seed in [0, 2^128 - 10)")
    return [(check_cross_moment if len(case) == 4 else check_conditional_mean)(*case, seed + k)
            for k, case in enumerate(MOMENT_CASES)]


def verify(seed: int) -> dict:
    """dl2u verify's report: the moment suite from seed, eq6 over VERIFY_EQ6_GRID from DGP
    base seed + 1 and wn_vn at VERIFY_WNVN from seed + 2; it passes iff every check does.
    Those bases are moment cases 1 and 2's keys, so eq6's and wn_vn's path 0 draw those cases'
    normals; separating the keys would move verify's output."""
    seed = integer(seed, 0, 2**64 - 2, "verify needs --seed in [0, 2^64 - 2)")  # seed + 2 < 2^64
    reports = run_moment_suite(seed=seed)  # the three checks run through this module's globals
    eq6 = check_eq6_convergence(VERIFY_EQ6_GRID, seed=seed + 1)
    wnvn = check_wnvn(VERIFY_WNVN, seed=seed + 2)
    passed = all(r["passed"] for r in reports) and eq6["passed"] and wnvn["passed"]
    return {"moment_checks": reports, "eq6": eq6, "wn_vn": wnvn, "passed": passed}
