"""Replication harness: batches of simulated pivots, KS summaries, tables.

One replication simulates B paths, forms the B normalized pivot values for
the configured regime and KS-tests them against the matching limit law.
An experiment repeats that R times with disjoint seed streams; path j of
replication `rep` always uses stream rep*B + j, so any replication, or any
single path, can be regenerated alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import dgp
from .errors import DomainError, NumericOverflowError
from .estimator import pivots, target_law
from .ks import KsResult, density, ks_test
from .sequences import ModelParams, Regime, SequenceKind, SequenceSpec, integer

__all__ = [
    "ExperimentSpec",
    "TableRow",
    "TABLE_IDS",
    "N_NEARSTAT",
    "N_EXPLOSIVE",
    "PATHS_PER_TEST",
    "REPLICATIONS",
    "table_params",
    "table_kn_rows",
    "replication_pivots",
    "run_replication",
    "run_experiment",
    "run_table",
    "emit_histogram",
]

# The paper's design sizes: n per regime, B paths per KS test, R replications.
N_NEARSTAT = 1000
N_EXPLOSIVE = 300
PATHS_PER_TEST = 500
REPLICATIONS = 100


@dataclass(frozen=True)
class ExperimentSpec:
    """One table cell: R replications of B pivots each."""

    params: ModelParams
    paths_per_test: int = PATHS_PER_TEST  # B
    replications: int = REPLICATIONS  # R
    seed: int = 0
    alpha_level: ClassVar[float] = 0.05  # KS level a replication is accepted at

    def __post_init__(self):
        for name in ("paths_per_test", "replications"):
            value = integer(getattr(self, name), 1, np.inf, name + " must be at least 1")
            object.__setattr__(self, name, value)
        integer(self.paths_per_test * (self.params.n + 1), 0, 2**60,  # numpy's largest array;
                "paths_per_test * (n + 1) must be below 2^60")  # a smaller one may be a MemoryError
        target_law(self.params)  # a row with no limit law or no pivot scale fails before any draw


def replication_pivots(spec: ExperimentSpec, rep: int) -> np.ndarray:
    """Simulate B paths for replication `rep` and return their pivot values."""
    rep = integer(rep, 0, spec.replications, "replication index outside [0, replications)")
    B = spec.paths_per_test
    end = integer((rep + 1) * B, 0, 2**64 + 1, "(rep + 1) * paths_per_test must be at most 2^64")
    streams = np.arange(rep * B, end, dtype=np.uint64)
    try:
        y, u = dgp.simulate_batch(spec.params, spec.seed, streams)
        return pivots(spec.params, y, u)
    except NumericOverflowError as exc:
        raise NumericOverflowError(f"replication {rep} aborted: {exc}") from exc


def run_replication(spec: ExperimentSpec, rep: int) -> KsResult:
    """KS-test one replication's pivots against the regime's limit law."""
    return ks_test(replication_pivots(spec, rep), target_law(spec.params))


def run_experiment(spec: ExperimentSpec) -> tuple[float, float]:
    """Run all replications in order: (mean KS distance, acceptance proportion)."""
    results = [run_replication(spec, rep) for rep in range(spec.replications)]
    accepted = sum(1 for r in results if r.p_value > spec.alpha_level)
    return float(np.mean([r.d_stat for r in results])), accepted / spec.replications


# Table layouts.  The paper's table parameters are only partially stated;
# the homoskedastic tables use c=1 (near-stationary) / c=0.5 (explosive)
# with alpha=0, the SV tables d=1, alpha=0.5.  The "constant" row
# value is a calibration choice: k=3 keeps both the variance deficit
# 2c - c^2/k and the O(1/n) estimator bias small at the default sizes.
# The explosive tables stop at N_EXPLOSIVE to keep rho_n^n representable.
CONSTANT_KN = 3.0

_KN_FULL = [
    ("constant", SequenceSpec(SequenceKind.CONSTANT, CONSTANT_KN)),
    ("log n", SequenceSpec.parse("log")),
    ("n^0.1", SequenceSpec.parse("pow:0.1")),
    ("n^0.25", SequenceSpec.parse("pow:0.25")),
    ("n^0.5", SequenceSpec.parse("pow:0.5")),
    ("n^0.75", SequenceSpec.parse("pow:0.75")),
    ("n^0.99", SequenceSpec.parse("pow:0.99")),
    ("n", SequenceSpec.parse("lin")),
]
_KN_SV = _KN_FULL[2:]

# table id -> (c, alpha, regime, k_n rows); d = 1 throughout
_TABLES = {
    "1a": (1.0, 0.0, Regime.NEAR_STATIONARY, _KN_FULL),
    "1b": (0.5, 0.0, Regime.MILDLY_EXPLOSIVE, _KN_FULL),
    "2a": (0.5, 0.5, Regime.MILDLY_EXPLOSIVE, _KN_SV),
    "2b": (1.0, 0.5, Regime.NEAR_STATIONARY, _KN_SV),
}
TABLE_IDS = tuple(_TABLES)


@dataclass(frozen=True)
class TableRow:
    kn_label: str
    mean_ks: float
    acceptance: float


def _table(table_id: str) -> tuple:
    if table_id not in _TABLES:
        raise DomainError(f"unknown table id {table_id!r}; expected one of {TABLE_IDS}")
    return _TABLES[table_id]


def table_params(table_id: str, kn: SequenceSpec, n: int | None = None) -> ModelParams:
    """The model of table `table_id` at persistence k_n and size n; n = None is the
    table's own size, N_NEARSTAT or N_EXPLOSIVE by its regime."""
    c, alpha, regime, _ = _table(table_id)
    if n is None:
        n = N_NEARSTAT if regime is Regime.NEAR_STATIONARY else N_EXPLOSIVE
    return ModelParams(c=c, d=1.0, alpha=alpha, n=n, kn=kn, regime=regime)


def table_kn_rows(table_id: str) -> list[tuple[str, SequenceSpec]]:
    """The (label, k_n) rows of table `table_id`, in order."""
    return list(_table(table_id)[3])


def _row_seed(seed: int, row: int) -> int:
    # splitmix64-style spread so rows use unrelated Philox keys
    x = (seed + row * 0x9E3779B97F4A7C15) % 2**64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % 2**64
    return x ^ (x >> 31)


def run_table(
    table_id: str,
    n_nearstat: int | None = None,
    n_explosive: int | None = None,
    replications: int = REPLICATIONS,
    paths_per_test: int = PATHS_PER_TEST,
    seed: int = 0,
) -> list[TableRow]:
    """Reproduce one table: a KS summary per mean-persistence row.  The rows
    take the size given for the table's regime; None is the table's own size."""
    seed = dgp.RngSeed(seed).base  # checked, not spread mod 2^64
    n = n_nearstat if _table(table_id)[2] is Regime.NEAR_STATIONARY else n_explosive
    rows = []
    for i, (label, kn) in enumerate(table_kn_rows(table_id)):
        params = table_params(table_id, kn, n)
        spec = ExperimentSpec(
            params=params,
            paths_per_test=paths_per_test,
            replications=replications,
            seed=_row_seed(seed, i),
        )
        rows.append(TableRow(label, *run_experiment(spec)))
    return rows


def emit_histogram(spec: ExperimentSpec, bins: int) -> dict:
    """Histogram of pooled pivot values with the target density overlay.

    Explosive pivots are clipped to their 1%-99% empirical quantile window
    before binning (Cauchy tails make fixed-width bins useless otherwise).
    """
    bins = integer(bins, 10, np.inf, "need at least 10 bins")
    law = target_law(spec.params)
    pooled = np.concatenate(
        [replication_pivots(spec, rep) for rep in range(spec.replications)]
    )
    kept = pooled
    if spec.params.regime is Regime.MILDLY_EXPLOSIVE:
        lo, hi = np.quantile(pooled, (0.01, 0.99))
        kept = pooled[(pooled >= lo) & (pooled <= hi)]
    try:
        counts, edges = np.histogram(kept, bins=bins)
    except ValueError as exc:  # e.g. a lone pivot of 1e150: its unit-wide range holds no 10 bins
        raise DomainError(f"cannot bin the pivots: {exc}") from exc
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
