"""Monte Carlo verification of the lognormal moment identities and limits.

Every check pits a simulation estimate against the closed form the theory
normalizes by, reporting a z-score; |z| <= 4 passes.  Lognormal checks use
antithetic shock pairs, which the symmetry of the identities makes free
variance reduction.  Degenerate alpha = 0 cases must pass with z = 0
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import dgp
from .errors import DomainError
from .estimator import normalized_sum_squares
from .sequences import ModelParams, Regime, dispersion, eval_sequence, rho_n, scales

__all__ = [
    "MomentCheck",
    "check_mean_sigma2",
    "check_fourth_moment",
    "check_cross_moment",
    "check_conditional_mean",
    "check_eq6_convergence",
    "check_wnvn",
    "run_moment_suite",
]

MIN_DRAWS = 10**5
Z_THRESHOLD = 4.0
EQ6_PATHS = 200  # paths per grid point of check_eq6_convergence
WNVN_PATHS = 2000  # paths of check_wnvn


@dataclass(frozen=True)
class MomentCheck:
    label: str
    mc_estimate: float
    closed_form: float
    mc_std_error: float
    z_score: float

    @property
    def passed(self) -> bool:
        return abs(self.z_score) <= Z_THRESHOLD

    def as_dict(self) -> dict:
        out = asdict(self)
        out["passed"] = self.passed
        return out


def _check(label, mc, closed, se) -> MomentCheck:
    z = 0.0 if se == 0.0 and mc == closed else (mc - closed) / se
    return MomentCheck(label, float(mc), float(closed), float(se), float(z))


def _simulate_z(phi: float, alpha: float, steps: tuple[int, ...], draws: int, seed: int) -> list[np.ndarray]:
    """Antithetic draws of z_t = sum_j phi^j eta_{t-j}, z_0 = 0, for each t in steps."""
    if draws < MIN_DRAWS:
        raise DomainError(f"need at least {MIN_DRAWS} draws, got {draws}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    half = draws // 2
    z = np.zeros(half)
    at = {0: z}
    for t in range(1, max(steps) + 1):
        z = phi * z + alpha * rng.standard_normal(half)
        if t in steps:
            at[t] = z
    return [np.concatenate([at[t], -at[t]]) for t in steps]  # eta -> -eta flips z's sign


def _mc_mean(values: np.ndarray) -> tuple[float, float]:
    if np.ptp(values) == 0.0:  # constant sample: mean is exact, error zero
        return float(values[0]), 0.0
    mc = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mc, se


def check_mean_sigma2(alpha, phi, t, draws=MIN_DRAWS, seed=101) -> MomentCheck:
    """E[sigma_t^2] = exp(alpha^2 A_t)."""
    (z,) = _simulate_z(phi, alpha, (t,), draws, seed)
    mc, se = _mc_mean(np.exp(z))
    closed = math.exp(alpha**2 * dispersion(phi, t))
    return _check(f"mean_sigma2(alpha={alpha},phi={phi},t={t})", mc, closed, se)


def check_fourth_moment(alpha, phi, t, draws=MIN_DRAWS, seed=202) -> MomentCheck:
    """E[sigma_t^4] = exp(2 Var z_t) = exp(4 alpha^2 A_t)."""
    (z,) = _simulate_z(phi, alpha, (t,), draws, seed)
    mc, se = _mc_mean(np.exp(2.0 * z))
    closed = math.exp(4.0 * alpha**2 * dispersion(phi, t))
    return _check(f"fourth_moment(alpha={alpha},phi={phi},t={t})", mc, closed, se)


def check_cross_moment(alpha, phi, s, t, draws=MIN_DRAWS, seed=303) -> MomentCheck:
    """E[sigma_s^2 sigma_t^2] = exp(alpha^2 A_s + alpha^2 A_t + 2 alpha^2 phi^(t-s) A_s)."""
    if s > t:
        raise DomainError("cross moment needs s <= t")
    z_s, z_t = _simulate_z(phi, alpha, (s, t), draws, seed)
    mc, se = _mc_mean(np.exp(z_s + z_t))
    a2 = alpha**2
    closed = math.exp(
        a2 * dispersion(phi, s)
        + a2 * dispersion(phi, t)
        + 2.0 * a2 * phi ** (t - s) * dispersion(phi, s)
    )
    return _check(f"cross_moment(alpha={alpha},phi={phi},s={s},t={t})", mc, closed, se)


def check_conditional_mean(alpha, phi, draws=MIN_DRAWS, seed=404) -> MomentCheck:
    """E[sigma_t^2 | z_{t-1} = z] = exp(phi z + alpha^2 / 2), worst grid point."""
    (eta,) = _simulate_z(0.0, alpha, (1,), draws, seed)  # z_1 = eta_1 when phi = 0
    shock = np.exp(eta)
    worst = None
    for z_prev in np.linspace(-2.0, 2.0, 5):
        vals = math.exp(phi * z_prev) * shock
        mc, se = _mc_mean(vals)
        closed = math.exp(phi * z_prev + alpha**2 / 2.0)
        chk = _check(f"conditional_mean(alpha={alpha},phi={phi},z={z_prev:g})", mc, closed, se)
        if worst is None or abs(chk.z_score) > abs(worst.z_score):
            worst = chk
    return worst


def check_eq6_convergence(params_grid, seed: int = 505) -> dict:
    """Normalized sum of squares drifting to 1/(2c) along an n-grid.

    Passes when the absolute error at the largest n is below the error at
    the smallest n and within 15% of the 1/(2c) target.
    """
    if len(params_grid) < 2:
        raise DomainError("need at least two grid points")
    if any(params.regime is not Regime.NEAR_STATIONARY for params in params_grid):
        raise DomainError("eq6 convergence check is near-stationary only")
    entries = []
    for params in params_grid:
        vol = scales(params)
        y, _, _ = dgp.simulate_batch(params, seed, np.arange(EQ6_PATHS, dtype=np.uint64))
        stats = normalized_sum_squares(y, params, vol)
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


def check_wnvn(params: ModelParams, seed: int = 606) -> dict:
    """Variances of the explosive auxiliary sums vs 1/(2c), correlation vs 0.

    W_n weights innovations by rho^-j, V_n by rho^-(n-j+1); the limit is an
    independent N(0, 1/(2c)) pair.
    """
    if params.regime is not Regime.MILDLY_EXPLOSIVE:
        raise DomainError("W/V check is explosive-regime only")
    vol = scales(params)
    rho = rho_n(params)
    kn = eval_sequence(params.kn, params.n)
    n = params.n
    _, _, u = dgp.simulate_batch(params, seed, np.arange(WNVN_PATHS, dtype=np.uint64))
    j = np.arange(1, n + 1)
    half_log_norm = 0.5 * (vol.log_l_n + math.log(kn))
    w_weights = np.exp(-j * math.log(rho) - half_log_norm)
    v_weights = np.exp(-(n - j + 1) * math.log(rho) - half_log_norm)
    W = u @ w_weights
    V = u @ v_weights
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


def run_moment_suite(draws: int = MIN_DRAWS, seed: int = 707) -> list[MomentCheck]:
    """The default battery of lognormal moment checks."""
    cases = [
        check_mean_sigma2(0.0, 0.9, 3, draws, seed),
        check_mean_sigma2(0.5, 0.9, 3, draws, seed + 1),
        check_mean_sigma2(0.5, 0.5, 1, draws, seed + 2),
        check_fourth_moment(0.0, 0.9, 3, draws, seed + 3),
        check_fourth_moment(0.5, 0.5, 2, draws, seed + 4),
        check_fourth_moment(0.3, 0.95, 10, draws, seed + 5),
        check_cross_moment(0.0, 0.9, 2, 4, draws, seed + 6),
        check_cross_moment(0.5, 0.9, 2, 4, draws, seed + 7),
        check_cross_moment(0.4, 0.3, 2, 12, draws, seed + 8),
        check_conditional_mean(0.0, 0.9, draws, seed + 9),
        check_conditional_mean(0.5, 0.9, draws, seed + 10),
    ]
    return cases
