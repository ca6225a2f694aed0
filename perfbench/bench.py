"""One benchmark run: warm-up and gate, timed units, checks, metrics, record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from calibrate import FOREIGN_CPU_LIMIT, slowness
from layers import install_tracing, layer_metrics
from spans import Tracer
from workloads import DEFAULT_SEED, make_workloads, run_units, sha256, units_for
from run import RESULTS, ROOT, SRC

PINNED = RESULTS.parent / "pinned.json"
SETUP_PROBES = 3
PROBE_KERNEL_REPS = 9

# (name, unit) of every end-to-end metric, in report order.
E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("paths_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

__all__ = ["E2E_METRICS", "make_workloads", "pin_errors", "run", "setup_probe"]


def prepare(workload, seed: int, seconds: int):
    """Set-up: generate the inputs and run the gate unit once as warm-up.

    The gate unit is the first unit of the default seed, so every run,
    whatever its seed, checks it against the pinned hash.  For the tables
    the gate hash covers the pivots run_table built its rows from.
    """
    inputs = workload.inputs(seed, units_for(workload, seconds))
    gate_input = workload.inputs(DEFAULT_SEED, 1)[0]
    gate = workload.run(gate_input)
    gate.digest = sha256(workload.collect(gate_input, gate))
    return inputs, gate


def setup_probe(workload, seed: int, seconds: int) -> None:
    """Body of a set-up probe process: set up, then gauge the host.

    Prints the seconds spent after set-up, the host's slowness and the
    other threads' CPU share while it was gauged.
    """
    prepare(workload, seed, seconds)
    t0 = time.perf_counter()
    slowness(PROBE_KERNEL_REPS, workload.stream_weight)  # the first calls in a process run slow
    slow, foreign = slowness(PROBE_KERNEL_REPS, workload.stream_weight)
    print(time.perf_counter() - t0, slow, foreign)


def measure_setup(workload, args) -> tuple[float, float, float]:
    """Set-up time of a fresh process that imports dl2u, builds the inputs
    and runs the warm-up unit; the mean of the host slowness gauged just
    before it started and just after its set-up; and the larger of the two
    gauges' foreign CPU shares."""
    cmd = [sys.executable, str(RESULTS.parent / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    before, foreign_before = slowness(PROBE_KERNEL_REPS, workload.stream_weight)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    after_s, after, foreign_after = map(float, proc.stdout.split()[-3:])
    return wall - after_s, (before + after) / 2, max(foreign_before, foreign_after)


def setup_seconds(wall: float, slow: float, foreign: float) -> float:
    """A set-up probe's time at reference speed, or raw where other threads
    took CPU while the host was gauged."""
    return wall if foreign > FOREIGN_CPU_LIMIT else wall / slow


def pin_errors(pinned: dict, name: str, seed: int, seconds: int, hashes: dict) -> list[str]:
    """Compare hashes with the pinned ones: the gate always, the rest for the
    pinned seed at the pinned run length."""
    pins = pinned["workloads"].get(name)
    if pins is None:
        return [f"no pinned hashes for {name}"]
    keys = ["gate_sha256"]
    if seed == pinned["seed"] and seconds == pinned["seconds"]:
        keys = list(pins)
    return [f"{key}: got {hashes.get(key)}, pinned {pins[key]}"
            for key in keys if hashes.get(key) != pins[key]]


def host_info(nproc: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "dl2u").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            revision = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
    }


def p90(times: list[float]) -> float | None:
    """90th percentile, only where at least ten samples lie beyond it."""
    if len(times) < 100:
        return None
    return statistics.quantiles(times, n=10)[-1]


def run(workload, args, nproc: int, threads_env: dict) -> int:
    inputs, gate = prepare(workload, args.seed, args.seconds)
    slowness(PROBE_KERNEL_REPS, workload.stream_weight)  # the first calls in a process run slow
    setup = [] if args.trace else [measure_setup(workload, args) for _ in range(SETUP_PROBES)]

    untraced = run_units(workload, inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = gate.mismatches + workload.check(inputs, untraced)
    hashes = {"gate_sha256": gate.digest, "outputs_sha256": untraced.digest}
    pinned = json.loads(PINNED.read_text())
    errors += pin_errors(pinned, workload.name, args.seed, args.seconds, hashes)

    attempted, failed = untraced.total("attempted"), untraced.total("failed")
    wall_s = untraced.wall_s
    latency = untraced.scaled_times
    latency_p90 = p90(latency)
    p90_line = (f"{1e3 * latency_p90:.6g} ms (n={len(latency)})" if latency_p90
                else f"not reported: n={len(latency)} leaves fewer than 10 beyond p90")
    lines = [
        f"workload {workload.name}: seed {args.seed}, {len(inputs)} units, trace {args.trace}",
        f"failed_frac {failed / attempted:g} ratio ({failed} failed of {attempted} attempted)",
        f"host speed {untraced.speed:.4g} x reference (median over units); raw wall "
        f"{sum(untraced.times):.6g} s, raw unit median "
        f"{1e3 * statistics.median(untraced.times):.6g} ms",
        f"calibration {'on' if untraced.calibrated else 'OFF, raw times reported'}: other "
        f"threads' CPU share while the host was gauged {statistics.fmean(untraced.foreign):.3g} "
        f"(limit {FOREIGN_CPU_LIMIT:g})",
        f"latency_ms_p90 {p90_line}",
    ]
    if args.trace:
        tracer = Tracer()
        install_tracing(tracer)
        try:
            traced = run_units(workload, inputs, tracer)
        finally:
            tracer.restore()
        if traced.digest != untraced.digest:
            errors.append("traced outputs differ from untraced outputs")
        overhead_s = traced.wall_s - wall_s
        metrics = layer_metrics(tracer, traced, workload.unit_span, overhead_s)
        spans_path = RESULTS / f"{workload.name}-seed{args.seed}-spans.jsonl"
        tracer.write(spans_path)
        lines += [
            f"tracing overhead {overhead_s:.6g} s (traced wall_s {traced.wall_s:.6g} s, "
            f"untraced {wall_s:.6g} s); traced host speed {traced.speed:.4g} x reference",
            f"dgp.draws_share base: trace.unit_ms {metrics['trace.unit_ms']['value']:.6g} ms "
            f"per {workload.unit_span}",
            f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        ]
    else:
        setup_s = [setup_seconds(*probe) for probe in setup]
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "paths_per_s": untraced.total("paths") / wall_s,
            "latency_ms_p50": 1e3 * statistics.median(latency),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}
        lines.append(f"setup_s samples {[round(t, 4) for t in setup_s]} "
                     f"(median of {len(setup_s)} fresh processes; raw "
                     f"{[round(probe[0], 4) for probe in setup]})")
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"hash {key} {value}" for key, value in hashes.items()]
    lines += [f"CHECK FAILED: {e}" for e in errors]

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "units": len(inputs),
        "trace": args.trace,
        "host": host_info(nproc),
        "threads_env": threads_env,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "latency_ms": {"p50": 1e3 * statistics.median(latency),
                       "p90": 1e3 * latency_p90 if latency_p90 else None,
                       "samples": len(latency)},
        "raw": {"unit_s": untraced.times, "slowness": untraced.slow,
                "gauge_foreign_cpu_share": untraced.foreign, "calibrated": untraced.calibrated,
                "stream_weight": workload.stream_weight, "setup": setup},
        "hashes": hashes,
        "errors": errors,
        "failures": [e for o in untraced.outcomes for e in o.errors][:20],
    }
    if hasattr(workload, "manifest"):
        record["tables"] = workload.manifest(inputs, untraced)
    record_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    lines.append(f"record {record_path.relative_to(ROOT)}")

    print("\n".join(lines))
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if not errors else 1
