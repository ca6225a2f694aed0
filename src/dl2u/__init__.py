"""Simulation and inference toolkit for AR(1) processes with a near-unit
mean root and nearly nonstationary lognormal stochastic volatility."""

from .errors import (
    DegeneratePathError,
    DomainError,
    NumericOverflowError,
    VerificationError,
)
from .sequences import (
    ModelParams,
    Regime,
    SequenceKind,
    SequenceSpec,
    VolatilityScales,
    eval_sequence,
    phi_n,
    rho_n,
    scales,
)
from .dgp import RngSeed, SimulatedPath, simulate_batch, simulate_path
from .ks import KsResult, TargetLaw, ks_pvalue, ks_statistic, ks_test
from .estimator import (
    OlsResult,
    PivotValue,
    explosive_pair,
    normalized_sum_squares,
    ols_rho,
    pivot_S,
    pivot_T,
    score_rho_error,
    sign_flip,
    target_law,
)
from .montecarlo import (
    ExperimentSpec,
    ExperimentSummary,
    TableRow,
    emit_histogram,
    run_experiment,
    run_replication,
    run_table,
)
from .oracles import MomentCheck, run_moment_suite

__version__ = "0.1.0"
