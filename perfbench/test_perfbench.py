"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest -q perfbench
"""

import json
import re
import threading
import time
from collections import defaultdict

import numpy as np
import pytest

import layers
import workloads as wl
from bench import E2E_METRICS, PINNED, pin_errors, prepare
from dl2u import montecarlo
from run import ROOT, WORKLOAD_NAMES
from spans import Tracer, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_table():
    return wl.TableWorkload("tiny-2a", "2a", 1.0, paths=10)


def traced_run(workload, inputs):
    tracer = Tracer()
    layers.install_tracing(tracer)
    try:
        result = wl.run_units(workload, inputs, tracer)
    finally:
        tracer.restore()
    return tracer, result


def test_metric_names_are_well_formed_and_match_benchmark_json():
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name, _ in e2e + layer)
    assert e2e == list(E2E_METRICS)
    assert layer == list(layers.LAYER_METRICS)
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(wl.make_workloads(ROOT)) == list(WORKLOAD_NAMES)


def test_hash_gate_trips_on_one_ulp(monkeypatch, tmp_path):
    pinned = json.loads(PINNED.read_text())
    w = wl.make_workloads(tmp_path)["table-2a"]
    _, gate = prepare(w, 1, pinned["seconds"])
    assert gate.mismatches == []
    assert pin_errors(pinned, w.name, 1, pinned["seconds"], {"gate_sha256": gate.digest}) == []

    original, calls = montecarlo.replication_pivots, []

    def nudged(spec, rep):
        pivots = original(spec, rep)
        calls.append(spec)
        if len(calls) == 3:  # one pivot of the third row, by one ulp
            pivots[7] = np.nextafter(pivots[7], np.inf)
        return pivots

    monkeypatch.setattr(montecarlo, "replication_pivots", nudged)
    _, bumped = prepare(w, 1, pinned["seconds"])
    assert len(calls) == w.rows
    assert bumped.mismatches == []  # the rows are still the KS summaries of their pivots
    assert pin_errors(pinned, w.name, 1, pinned["seconds"], {"gate_sha256": bumped.digest})


def test_pinned_gate_hashes_reproduce(tmp_path):
    pinned = json.loads(PINNED.read_text())
    for name, w in wl.make_workloads(tmp_path).items():
        inp = w.inputs(wl.DEFAULT_SEED, 1)[0]
        outcome = wl.run_units(w, [inp]).outcomes[0]
        assert outcome.digest == pinned["workloads"][name]["gate_sha256"]
        assert outcome.mismatches == []


def test_table_record_holds_each_rows_philox_key():
    w = tiny_table()
    inputs = w.inputs(1, 2)
    result = wl.run_units(w, inputs)
    manifest = w.manifest(inputs, result)
    assert [m["table_seed"] for m in manifest] == inputs
    keys = [row["philox_base"] for m in manifest for row in m["rows"]]
    assert len(keys) == len(set(keys)) == 2 * w.rows
    assert all(row["streams"] == [0, w.paths] for m in manifest for row in m["rows"])
    assert w.check(inputs, result) == []


def test_overflowing_table_is_counted_not_raised():
    w = wl.TableWorkload("overflow-2a", "2a", 1.0, paths=2, n_explosive=20000)
    result = wl.run_units(w, w.inputs(1, 2))
    assert result.total("attempted") == result.total("failed") == 2 * w.rows
    assert all(o.errors[0].startswith("NumericOverflowError") for o in result.outcomes)


def test_failed_round_trip_does_not_stop_the_run(tmp_path):
    w = wl.make_workloads(tmp_path)["inspect"]
    stat, expl = w.inputs(1, 1)[0]
    overflowing = wl.RoundTrip("expl", 300, 100.0, "const:1", 1, 0, expl.out)
    result = wl.run_units(w, [(overflowing, stat), (stat, expl)])
    assert [o.failed for o in result.outcomes] == [2, 0]
    assert result.total("failed") / result.total("attempted") == 0.25
    assert result.outcomes[0].errors[0].startswith("simulate exit 4")


def test_traced_self_times_add_up_to_parent_durations():
    w = tiny_table()
    tracer, traced = traced_run(w, w.inputs(1, 1))
    spans = tracer.spans
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    for span, own in zip(spans, self_times(spans)):
        kids = sorted(children[span.id], key=lambda k: k.start)
        assert own >= 0.0
        assert own + sum(k.duration for k in kids) == pytest.approx(span.duration, abs=1e-9)
        assert all(span.start <= k.start and k.end <= span.end for k in kids)
        assert all(a.end <= b.start for a, b in zip(kids, kids[1:]))
    root = spans[0]
    assert root.name == "bench.unit" and root.parent is None
    assert sum(self_times(spans)) == pytest.approx(root.duration, abs=1e-9)
    # one trace id per replication, shared by all of its spans
    for rep in (s for s in spans if s.name == "montecarlo.run_replication"):
        assert all(k.trace == rep.trace for k in children[rep.id])
    assert not hasattr(montecarlo.run_table, "__wrapped__")  # wrappers removed
    assert traced.digest == wl.run_units(w, w.inputs(1, 1)).digest


@pytest.mark.parametrize("name, busy", [
    ("table", ("dgp.draws_ms", "dgp.recursion_ms", "montecarlo.pivots_ms", "ks.test_ms")),
    ("inspect", ("dgp.draws_ms", "estimator.ms", "cli.io_ms", "cli.bytes")),
    ("verify", ("oracles.moments_ms", "oracles.eq6_ms", "oracles.wnvn_ms",
                "sequences.scales_ms", "dgp.recursion_ms")),
])
def test_layers_report_work_on_their_workloads(name, busy, tmp_path):
    w = tiny_table() if name == "table" else wl.make_workloads(tmp_path)[name]
    tracer, traced = traced_run(w, w.inputs(1, 1))
    metrics = layers.layer_metrics(tracer, traced, w.unit_span, 0.0)
    assert list(metrics) == [n for n, _ in layers.LAYER_METRICS]
    assert all(metrics[m]["value"] > 0 for m in busy)
    if name != "table":
        assert metrics["ks.test_ms"]["value"] == 0


def spin(until: float) -> None:
    while time.perf_counter() < until:
        pass


class SpinAfterUnit:
    """A unit of numpy work that leaves a Python thread spinning for a while
    after it returns, the way an idle worker pool may spin."""

    unit_seconds = 0.02
    stream_weight = 0.0

    def __init__(self, spin_s: float):
        self.spin_s = spin_s
        self.threads = []

    def run(self, inp) -> wl.Outcome:
        x = np.arange(20_000, dtype=float)
        for _ in range(20):
            x = np.sqrt(x * x + 1.0)
        if self.spin_s:
            thread = threading.Thread(target=spin, args=(time.perf_counter() + self.spin_s,))
            thread.start()
            self.threads.append(thread)
        return wl.Outcome(1, 0)

    def collect(self, inp, outcome) -> bytes:
        return b""


def test_background_load_after_each_unit_is_not_calibrated_away():
    quiet = wl.run_units(SpinAfterUnit(0.0), range(5))
    spinning = SpinAfterUnit(0.05)
    try:
        loaded = wl.run_units(spinning, range(5))
    finally:
        for thread in spinning.threads:
            thread.join()
    assert quiet.calibrated
    assert not loaded.calibrated
    assert loaded.scaled_times == loaded.times  # raw, so the slowdown shows
    assert loaded.wall_s == sum(loaded.times) and loaded.speed == 1.0
