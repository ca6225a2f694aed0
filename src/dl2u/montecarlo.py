"""Replication harness: batches of simulated pivots, KS summaries, tables.

One replication simulates B paths, forms the B normalized pivot values for
the configured regime and KS-tests them against the matching limit law.
An experiment repeats that R times with disjoint seed streams; path j of
replication `rep` always uses stream rep*B + j, so any replication, or any
single path, can be regenerated alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dgp
from .errors import DomainError, NumericOverflowError
from .estimator import check_explosive_overflow, log_explosive_scale, stationary_scale
from .ks import KsResult, TargetLaw, density, ks_test
from .sequences import ModelParams, Regime, SequenceSpec

__all__ = [
    "ExperimentSpec",
    "ExperimentSummary",
    "TableRow",
    "TABLE_IDS",
    "target_law",
    "replication_pivots",
    "run_replication",
    "run_experiment",
    "run_table",
    "emit_histogram",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One table cell: R replications of B pivots each."""

    params: ModelParams
    paths_per_test: int = 500  # B
    replications: int = 100  # R
    alpha_level: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.paths_per_test < 1:
            raise DomainError("paths_per_test must be at least 1")
        if self.replications < 1:
            raise DomainError("replications must be at least 1")


@dataclass(frozen=True)
class ExperimentSummary:
    mean_ks: float
    acceptance_proportion: float
    per_replication: tuple[KsResult, ...]


def target_law(params: ModelParams) -> TargetLaw:
    if params.regime is Regime.NEAR_STATIONARY:
        return TargetLaw.normal(2.0 * params.c)
    return TargetLaw.standard_cauchy()


def replication_pivots(spec: ExperimentSpec, rep: int) -> np.ndarray:
    """Simulate B paths for replication `rep` and return their pivot values.

    The centered error is computed in score form (sum y_{t-1} u_t over
    sum y_{t-1}^2), which stays accurate when rho_n^n exceeds 1/eps.
    """
    if not 0 <= rep < spec.replications:
        raise DomainError(f"replication index {rep} outside [0, {spec.replications})")
    params = spec.params
    B = spec.paths_per_test
    streams = np.arange(rep * B, (rep + 1) * B, dtype=np.uint64)
    try:
        y, _, u = dgp.simulate_batch(params, spec.seed, streams)
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"replication {rep} aborted: {exc}") from exc

    lag = y[:, :-1]
    den = np.einsum("ij,ij->i", lag, lag)
    score = np.einsum("ij,ij->i", lag, u)
    diff = score / den

    if params.regime is Regime.NEAR_STATIONARY:
        return stationary_scale(params) * diff
    log_scale, n_log_rho = log_explosive_scale(params)
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(diff)) + log_scale
    check_explosive_overflow(log_mag, n_log_rho, f"replication {rep}: explosive pivot")
    return np.sign(diff) * np.exp(log_mag)


def run_replication(spec: ExperimentSpec, rep: int) -> KsResult:
    """KS-test one replication's pivots against the regime's limit law."""
    return ks_test(replication_pivots(spec, rep), target_law(spec.params))


def run_experiment(spec: ExperimentSpec) -> ExperimentSummary:
    """Run all replications in order and summarize their KS tests."""
    results = [run_replication(spec, rep) for rep in range(spec.replications)]
    mean_ks = float(np.mean([r.d_stat for r in results]))
    accepted = sum(1 for r in results if r.p_value > spec.alpha_level)
    return ExperimentSummary(
        mean_ks=mean_ks,
        acceptance_proportion=accepted / spec.replications,
        per_replication=tuple(results),
    )


# Table layouts.  The paper's table parameters are only partially stated;
# the homoskedastic tables use c=1 (near-stationary) / c=0.5 (explosive,
# n=300) with alpha=0, the SV tables d=1, alpha=0.5.  The "constant" row
# value is a calibration choice: k=3 keeps both the variance deficit
# 2c - c^2/k and the O(1/n) estimator bias small at the default sizes.
CONSTANT_KN = 3.0

_KN_FULL = [
    ("constant", SequenceSpec.constant(CONSTANT_KN)),
    ("log n", SequenceSpec.log_of_n()),
    ("n^0.1", SequenceSpec.power_of_n(0.1)),
    ("n^0.25", SequenceSpec.power_of_n(0.25)),
    ("n^0.5", SequenceSpec.power_of_n(0.5)),
    ("n^0.75", SequenceSpec.power_of_n(0.75)),
    ("n^0.99", SequenceSpec.power_of_n(0.99)),
    ("n", SequenceSpec.linear_n()),
]
_KN_SV = _KN_FULL[2:]

TABLE_IDS = ("1a", "1b", "2a", "2b")


@dataclass(frozen=True)
class TableRow:
    kn_label: str
    mean_ks: float
    acceptance: float


def _table_params(table_id: str, kn: SequenceSpec, n_nearstat: int, n_explosive: int) -> ModelParams:
    if table_id == "1a":
        return ModelParams(c=1.0, d=1.0, alpha=0.0, n=n_nearstat, kn=kn, regime=Regime.NEAR_STATIONARY)
    if table_id == "1b":
        return ModelParams(c=0.5, d=1.0, alpha=0.0, n=n_explosive, kn=kn, regime=Regime.MILDLY_EXPLOSIVE)
    if table_id == "2a":
        return ModelParams(c=0.5, d=1.0, alpha=0.5, n=n_explosive, kn=kn, regime=Regime.MILDLY_EXPLOSIVE)
    if table_id == "2b":
        return ModelParams(c=1.0, d=1.0, alpha=0.5, n=n_nearstat, kn=kn, regime=Regime.NEAR_STATIONARY)
    raise DomainError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")


def table_kn_rows(table_id: str) -> list[tuple[str, SequenceSpec]]:
    if table_id not in TABLE_IDS:
        raise DomainError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    return list(_KN_FULL if table_id.startswith("1") else _KN_SV)


def _row_seed(seed: int, row: int) -> int:
    # splitmix64-style spread so rows use unrelated Philox keys
    x = (seed + row * 0x9E3779B97F4A7C15) % 2**64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % 2**64
    return x ^ (x >> 31)


def run_table(
    table_id: str,
    n_nearstat: int = 1000,
    n_explosive: int = 300,
    replications: int = 100,
    paths_per_test: int = 500,
    seed: int = 0,
) -> list[TableRow]:
    """Reproduce one table: a KS summary per mean-persistence row."""
    rows = []
    for i, (label, kn) in enumerate(table_kn_rows(table_id)):
        params = _table_params(table_id, kn, n_nearstat, n_explosive)
        spec = ExperimentSpec(
            params=params,
            paths_per_test=paths_per_test,
            replications=replications,
            seed=_row_seed(seed, i),
        )
        summary = run_experiment(spec)
        rows.append(TableRow(label, summary.mean_ks, summary.acceptance_proportion))
    return rows


def emit_histogram(
    spec: ExperimentSpec,
    bins: int = 50,
    clip_quantiles: tuple[float, float] = (0.01, 0.99),
) -> dict:
    """Histogram of pooled pivot values with the target density overlay.

    Explosive pivots are clipped to an empirical quantile window before
    binning (Cauchy tails make fixed-width bins useless otherwise).
    """
    if bins < 10:
        raise DomainError("need at least 10 bins")
    pooled = np.concatenate(
        [replication_pivots(spec, rep) for rep in range(spec.replications)]
    )
    law = target_law(spec.params)
    if spec.params.regime is Regime.MILDLY_EXPLOSIVE:
        lo, hi = np.quantile(pooled, clip_quantiles)
        kept = pooled[(pooled >= lo) & (pooled <= hi)]
    else:
        kept = pooled
    counts, edges = np.histogram(kept, bins=bins)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    return {
        "edges": edges.tolist(),
        "counts": counts.tolist(),
        "overlay_x": midpoints.tolist(),
        "overlay_density": density(law, midpoints).tolist(),
        "target": law.label(),
        "n_pooled": int(pooled.size),
        "n_kept": int(kept.size),
    }
