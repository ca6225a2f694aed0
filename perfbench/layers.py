"""Per-layer tracing of dl2u: where each module is wrapped, what is counted,
and how spans become per-unit layer metrics.

The layers are the package modules: sequences, dgp, estimator, ks,
montecarlo, oracles and cli (errors does no work).  Each public boundary is
wrapped where its caller looks it up, so the library is not edited.
"""

from __future__ import annotations

import numpy as np

from dl2u import cli, dgp, montecarlo, oracles

from spans import Tracer, totals


def _count_batch(counts, params, base, streams):
    paths, n = len(streams), params.n
    counts["dgp.steps"] += paths * n
    counts["dgp.array_bytes"] += 8 * paths * (2 * (n + 1) + 3 * n)  # y, sigma2; u, eps, eta


def _count_ks(counts, sample, law):
    counts["ks.samples"] += len(sample)


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    tracer.count_instances(np.random, "Philox", "dgp.generators")
    tracer.wrap(dgp, "draw_innovations", "dgp.draw_innovations")
    tracer.wrap(dgp, "simulate_batch", "dgp.simulate_batch", count=_count_batch)
    tracer.wrap(montecarlo, "run_table", "montecarlo.run_table")
    tracer.wrap(montecarlo, "run_experiment", "montecarlo.run_experiment")
    tracer.wrap(montecarlo, "run_replication", "montecarlo.run_replication", new_trace=True)
    tracer.wrap(montecarlo, "replication_pivots", "montecarlo.replication_pivots")
    tracer.wrap(montecarlo, "ks_test", "ks.ks_test", count=_count_ks)
    for fn in ("ols_rho", "score_rho_error", "pivot_T", "pivot_S"):
        tracer.wrap(cli, fn, f"estimator.{fn}")
    tracer.wrap(cli, "main", "cli.main")
    for fn in ("cmd_simulate", "cmd_estimate", "cmd_verify"):
        tracer.wrap(cli, fn, f"cli.{fn}")
    for fn in ("run_moment_suite", "check_eq6_convergence", "check_wnvn"):
        tracer.wrap(oracles, fn, f"oracles.{fn}")
    tracer.wrap(oracles, "scales", "sequences.scales")


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("dgp.draws_ms", "ms"),
    ("dgp.recursion_ms", "ms"),
    ("dgp.draws_share", "ratio"),
    ("dgp.generators", "count"),
    ("dgp.steps", "count"),
    ("dgp.array_mb", "MB"),
    ("montecarlo.pivots_ms", "ms"),
    ("montecarlo.harness_ms", "ms"),
    ("ks.test_ms", "ms"),
    ("ks.samples", "count"),
    ("estimator.ms", "ms"),
    ("cli.parse_ms", "ms"),
    ("cli.io_ms", "ms"),
    ("cli.bytes", "bytes"),
    ("oracles.moments_ms", "ms"),
    ("oracles.eq6_ms", "ms"),
    ("oracles.wnvn_ms", "ms"),
    ("sequences.scales_ms", "ms"),
    ("trace.unit_ms", "ms"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(tracer: Tracer, traced, unit_span: str, overhead_s: float) -> dict:
    """Per-unit layer figures from the spans of a traced run.

    A unit is a replication for the tables (run_replication spans), a pair
    of round trips for inspect and a call for verify (bench.unit spans).
    Span times are scaled to the reference host by the run's median speed.
    """
    total, own, calls = totals(tracer.spans)
    units = calls[unit_span]
    scale = 1e3 * traced.speed / units

    def ms(table, *names):
        return scale * sum(table[n] for n in names)

    unit_ms = ms(total, unit_span)
    draws_ms = ms(own, "dgp.draw_innovations")
    counts = tracer.counts
    values = {
        "dgp.draws_ms": draws_ms,
        "dgp.recursion_ms": ms(own, "dgp.simulate_batch"),
        "dgp.draws_share": draws_ms / unit_ms,
        "dgp.generators": counts["dgp.generators"] / units,
        "dgp.steps": counts["dgp.steps"] / units,
        "dgp.array_mb": counts["dgp.array_bytes"] / units / 1e6,
        "montecarlo.pivots_ms": ms(own, "montecarlo.replication_pivots"),
        "montecarlo.harness_ms": ms(own, "montecarlo.run_table", "montecarlo.run_experiment",
                                    "montecarlo.run_replication"),
        "ks.test_ms": ms(total, "ks.ks_test"),
        "ks.samples": counts["ks.samples"] / units,
        "estimator.ms": ms(total, "estimator.ols_rho", "estimator.score_rho_error",
                           "estimator.pivot_T", "estimator.pivot_S"),
        "cli.parse_ms": ms(own, "cli.main"),
        "cli.io_ms": ms(own, "cli.cmd_simulate", "cli.cmd_estimate", "cli.cmd_verify"),
        "cli.bytes": traced.total("bytes_written") / units,
        "oracles.moments_ms": ms(total, "oracles.run_moment_suite"),
        "oracles.eq6_ms": ms(total, "oracles.check_eq6_convergence"),
        "oracles.wnvn_ms": ms(total, "oracles.check_wnvn"),
        "sequences.scales_ms": ms(total, "sequences.scales"),
        "trace.unit_ms": unit_ms,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
