"""The four benchmark workloads and the timed runner.

Every workload is a fixed list of units generated from the benchmark seed:
one ``run_table`` call (R=1) for the table workloads, one
``simulate``/``estimate`` round trip per regime for ``inspect`` and one
``verify`` call for ``verify``.  The library sees only the generated
arguments and is driven through its public functions.  A unit's outputs
are hashed and checked outside its timed interval; operations that fail are
counted and the run goes on.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dl2u import cli, dgp, estimator, ks, montecarlo
from dl2u.errors import DomainError, NumericOverflowError
from dl2u.sequences import ModelParams, Regime, SequenceSpec

from calibrate import FOREIGN_CPU_LIMIT, kernel_reps, scaled, slowness
from spans import Tracer

DEFAULT_SEED = 0

@dataclass
class Outcome:
    """What one unit did: operations attempted and failed, paths simulated."""

    attempted: int
    failed: int
    paths: int = 0
    detail: object = None  # rows, estimate JSON or verify report text
    bytes_written: int = 0
    digest: str = ""  # SHA-256 of the unit's outputs
    errors: list[str] = field(default_factory=list)  # failed operations
    mismatches: list[str] = field(default_factory=list)  # outputs that fail a check
    record: object = None  # what the run record keeps of the unit


@dataclass
class RunResult:
    times: list[float]  # wall time of each unit, as measured
    slow: list[float]  # host slowness before the first unit and after each unit
    foreign: list[float]  # other threads' CPU share while each slowness was gauged
    outcomes: list[Outcome]
    digest: str  # SHA-256 over the unit digests, in unit order

    @property
    def calibrated(self) -> bool:
        """Whether the kernels gauged host speed: no other thread of this
        process took CPU while they ran (see calibrate.py)."""
        return statistics.fmean(self.foreign) <= FOREIGN_CPU_LIMIT

    @property
    def scaled_times(self) -> list[float]:
        """Unit times at the reference host's speed, or the raw unit times
        where the run is not calibrated."""
        if not self.calibrated:
            return list(self.times)
        return scaled(self.times, self.slow)

    @property
    def wall_s(self) -> float:
        return sum(self.scaled_times)

    @property
    def speed(self) -> float:
        """Median host speed during the run relative to the reference host;
        1 where the run is not calibrated."""
        if not self.calibrated:
            return 1.0
        return statistics.median(1 / s for s in self.slow)

    def total(self, attr: str) -> int:
        return sum(getattr(o, attr) for o in self.outcomes)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run cli.main in-process, capturing stdout and stderr.

    Any exception escaping cli.main is reported as a failed call so that
    the run continues.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            err.write(traceback.format_exc())
            code = 1
    return code, out.getvalue(), err.getvalue()


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def rows_bytes(rows) -> bytes:
    """Exact serialization of TableRow values (floats as hex)."""
    return "".join(
        f"{r.kn_label},{float(r.mean_ks).hex()},{float(r.acceptance).hex()}\n" for r in rows
    ).encode()


def pivots_bytes(pooled: list[np.ndarray]) -> bytes:
    return b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes() for p in pooled)


@contextlib.contextmanager
def recording_pivots():
    """Yield a list that collects (spec, pivots) of every
    ``montecarlo.replication_pivots`` call made meanwhile.

    The function is wrapped where ``run_replication`` looks it up, so these
    are the pivots the table was built from.
    """
    calls, original = [], montecarlo.replication_pivots

    def record(spec, rep, *args, **kwargs):
        pivots = original(spec, rep, *args, **kwargs)
        calls.append((spec, pivots))
        return pivots

    montecarlo.replication_pivots = record
    try:
        yield calls
    finally:
        montecarlo.replication_pivots = original


class TableWorkload:
    """Repeated ``montecarlo.run_table(table_id, replications=1)`` calls.

    With one replication per row, a call makes one ``replication_pivots``
    call per row, in row order.
    """

    unit_span = "montecarlo.run_replication"

    def __init__(self, name, table_id, unit_seconds, *, stream_weight=0.0, paths=500,
                 n_explosive=300):
        self.name = name
        self.table_id = table_id
        self.unit_seconds = unit_seconds
        self.stream_weight = stream_weight
        self.paths = paths
        self.n_explosive = n_explosive
        self.rows = len(montecarlo.table_kn_rows(table_id))

    def inputs(self, seed: int, units: int) -> list[int]:
        rng = random.Random(seed)
        return [rng.getrandbits(63) for _ in range(units)]

    def run(self, table_seed: int) -> Outcome:
        with recording_pivots() as calls:
            try:
                rows = montecarlo.run_table(
                    self.table_id,
                    n_explosive=self.n_explosive,
                    replications=1,
                    paths_per_test=self.paths,
                    seed=table_seed,
                )
            except (NumericOverflowError, DomainError) as exc:
                error = f"{type(exc).__name__}: {exc}"
                return Outcome(self.rows, self.rows, detail=([], calls), errors=[error])
        return Outcome(self.rows, 0, paths=self.rows * self.paths, detail=(rows, calls))

    def collect(self, table_seed: int, outcome: Outcome) -> bytes:
        """Hash the rows plus the pooled pivots per row; check each row
        against a KS test of its pivots; keep each row's Philox key."""
        rows, calls = outcome.detail
        outcome.detail = rows
        outcome.record = [self.row_record(spec) for spec, _ in calls]
        if outcome.failed:
            return b""
        if len(calls) != self.rows or len(rows) != self.rows:
            outcome.mismatches.append(
                f"table seed {table_seed}: {len(rows)} rows from {len(calls)} pivot calls, "
                f"expected {self.rows}")
        for row, (spec, pivots) in zip(rows, calls):
            outcome.mismatches += self.row_mismatches(row, spec, pivots)
        return rows_bytes(rows) + pivots_bytes([pivots for _, pivots in calls])

    @staticmethod
    def row_mismatches(row, spec, pivots) -> list[str]:
        """The row must be the KS summary of its pivots, bit for bit."""
        test = ks.ks_test(pivots, montecarlo.target_law(spec.params))
        mean_ks = float(np.mean([test.d_stat]))
        acceptance = float(test.p_value > spec.alpha_level)
        errors = []
        if (row.mean_ks, row.acceptance) != (mean_ks, acceptance):
            errors.append(f"row {row.kn_label}: run_table gave {row}, its pivots give "
                          f"mean_ks={mean_ks!r} acceptance={acceptance!r}")
        if not np.isfinite(pivots).all():
            errors.append(f"row {row.kn_label}: non-finite pivot")
        if not (0.0 <= row.mean_ks <= 1.0 and 0.0 <= row.acceptance <= 1.0):
            errors.append(f"row {row} outside [0, 1]")
        return errors

    @staticmethod
    def row_record(spec) -> dict:
        """Philox key and stream range of a row, and how to replay a path."""
        p = spec.params
        return {
            "kn": p.kn.label(),
            "philox_base": spec.seed,
            "streams": [0, spec.replications * spec.paths_per_test],
            "replay": (
                f"dl2u simulate --n {p.n} --c {p.c:g} --d {p.d:g} --alpha {p.alpha:g} "
                f"--kn {p.kn.label()} --rn {p.rn.label()} --regime {p.regime.value} "
                f"--seed {spec.seed} --rep <stream>"
            ),
        }

    def check(self, inputs, result: RunResult) -> list[str]:
        return [m for o in result.outcomes for m in o.mismatches]

    def manifest(self, inputs, result: RunResult) -> list[dict]:
        return [{"table_seed": table_seed, "rows": o.record}
                for table_seed, o in zip(inputs, result.outcomes)]


@dataclass(frozen=True)
class RoundTrip:
    regime: str  # "stat" | "expl"
    n: int
    c: float
    kn: str
    base: int
    rep: int
    out: str  # CSV path passed to --out

    def model_args(self) -> list[str]:
        return ["--n", str(self.n), "--c", repr(self.c), "--d", "1", "--alpha", "0.5",
                "--kn", self.kn, "--regime", self.regime]

    def params(self) -> ModelParams:
        regime = Regime.NEAR_STATIONARY if self.regime == "stat" else Regime.MILDLY_EXPLOSIVE
        return ModelParams(c=self.c, d=1.0, alpha=0.5, n=self.n,
                           kn=SequenceSpec.parse(self.kn), regime=regime)


def read_path_csv(path: str) -> dict[str, np.ndarray]:
    """Columns of a ``dl2u simulate`` CSV, parsed field by field."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col: np.array([float(r[col]) for r in rows if r[col] != ""])
            for col in ("y", "sigma2", "u")}


class InspectWorkload:
    """``dl2u simulate --out f`` then ``dl2u estimate f``, once per regime.

    A unit is a pair of round trips, near-stationary (n=1000) then explosive
    (n=300), so that unit latencies come from one distribution rather than
    two.  The first `checked_units` pairs keep their own CSV files so that
    `check` can compare them with the library afterwards; the rest reuse
    one file per regime.
    """

    checked_units = 5
    unit_span = "bench.unit"
    stream_weight = 0.0  # arrays of a few kB (see calibrate.py)
    KN = ("pow:0.25", "pow:0.5", "pow:0.75")
    REGIMES = (("stat", 1000, 1.0), ("expl", 300, 0.5))
    # Relative tolerance between the CLI's estimate and the library's
    # in-memory pivot: the CLI takes dot products over strided CSV columns,
    # which may sum in another order (a few n * eps at n <= 1000).
    RTOL = 1e-12

    def __init__(self, name, unit_seconds, workdir: Path):
        self.name = name
        self.unit_seconds = unit_seconds
        self.workdir = Path(workdir)

    def inputs(self, seed: int, units: int) -> list[tuple[RoundTrip, ...]]:
        rng = random.Random(seed)
        pairs = []
        for i in range(units):
            tag = i if i < self.checked_units else "last"
            pairs.append(tuple(
                RoundTrip(regime, n, c, rng.choice(self.KN), rng.getrandbits(63),
                          rng.randrange(10**6), str(self.workdir / f"inspect_{tag}_{regime}.csv"))
                for regime, n, c in self.REGIMES
            ))
        return pairs

    @staticmethod
    def round_trip(trip: RoundTrip) -> tuple[int, str | None, str | None]:
        """(failed calls, estimate JSON, error) of one simulate/estimate pair."""
        model = trip.model_args()
        code, _, err = call_cli(["simulate", *model, "--seed", str(trip.base),
                                 "--rep", str(trip.rep), "--out", trip.out])
        if code != 0:  # estimate would read a stale or missing file
            return 2, None, f"simulate exit {code}: {err.strip()}"
        code, text, err = call_cli(["estimate", trip.out, *model])
        if code != 0:
            return 1, None, f"estimate exit {code}: {err.strip()}"
        return 0, text, None

    def run(self, pair) -> Outcome:
        results = [self.round_trip(trip) for trip in pair]
        texts = [text for _, text, _ in results]
        return Outcome(
            attempted=2 * len(pair),
            failed=sum(f for f, _, _ in results),
            paths=sum(t is not None for t in texts),
            detail=texts,
            errors=[e for _, _, e in results if e],
        )

    def collect(self, pair, outcome: Outcome) -> bytes:
        parts = []
        for trip, text in zip(pair, outcome.detail):
            if text is None:
                continue
            csv_bytes = Path(trip.out).read_bytes()
            meta_size = Path(trip.out + ".meta.json").stat().st_size
            parts += [csv_bytes, text.encode()]
            outcome.bytes_written += len(csv_bytes) + meta_size + len(text)
        return b"".join(parts)

    def check(self, inputs, result: RunResult) -> list[str]:
        """The first pairs' CSVs hold the library's path bit for bit, and
        their estimates match the library's pivot to RTOL."""
        errors = []
        for pair, o in list(zip(inputs, result.outcomes))[: self.checked_units]:
            for trip, text in zip(pair, o.detail):
                if text is not None:
                    errors += self.check_trip(trip, json.loads(text))
        return errors

    def check_trip(self, trip: RoundTrip, report: dict) -> list[str]:
        params = trip.params()
        path = dgp.simulate_path(params, dgp.RngSeed(trip.base, trip.rep))
        errors = []
        columns = read_path_csv(trip.out)
        if not all(np.array_equal(columns[k], getattr(path, k)) for k in columns):
            errors.append(f"{trip}: CSV differs from the library's path")
        ols = estimator.ols_rho(path.y)
        pivot = estimator.pivot_T if trip.regime == "stat" else estimator.pivot_S
        want = pivot(ols, params, rho_error=estimator.score_rho_error(path))
        got = (report["rho_hat"], report["pivot"]["value"])
        if report["pivot"]["kind"] != want.kind or not np.allclose(
            got, (ols.rho_hat, want.value), rtol=self.RTOL, atol=0.0
        ):
            errors.append(f"{trip}: estimate {got} != library {(ols.rho_hat, want.value)}")
        return errors


class VerifyWorkload:
    """``dl2u verify --seed s`` for generated oracle seeds."""

    unit_span = "bench.unit"
    stream_weight = 0.5  # eq6 at n=10000: 16 MB per array (see calibrate.py)
    # DGP paths one verify call simulates, as cmd_verify sets them up:
    # eq6 at n=1000 and n=10000 with 200 paths each, wn_vn with B=2000.
    PATHS_PER_CALL = 2 * 200 + 2000

    def __init__(self, name, unit_seconds):
        self.name = name
        self.unit_seconds = unit_seconds

    def inputs(self, seed: int, units: int) -> list[int]:
        rng = random.Random(seed)
        return [rng.getrandbits(31) for _ in range(units)]

    def run(self, oracle_seed: int) -> Outcome:
        code, text, err = call_cli(["verify", "--seed", str(oracle_seed)])
        errors = [f"verify exit {code}: {err.strip()}"] if code != 0 else []
        return Outcome(1, int(code != 0), paths=self.PATHS_PER_CALL, detail=text, errors=errors)

    def collect(self, oracle_seed: int, outcome: Outcome) -> bytes:
        outcome.bytes_written = len(outcome.detail.encode())
        try:
            passed = json.loads(outcome.detail)["passed"]
        except (ValueError, KeyError):
            passed = False
        if passed is not True and not outcome.failed:
            outcome.failed = 1
            outcome.errors.append(f"verify seed {oracle_seed}: report not passed")
        return outcome.detail.encode()

    def check(self, inputs, result: RunResult) -> list[str]:
        errors = []
        for seed, o in zip(inputs, result.outcomes):
            try:
                report = json.loads(o.detail)
            except ValueError:
                errors.append(f"verify seed {seed}: output is not JSON")
                continue
            missing = {"moment_checks", "eq6", "wn_vn", "passed"} - set(report)
            if missing:
                errors.append(f"verify seed {seed}: report lacks {sorted(missing)}")
        return errors


def make_workloads(workdir: Path) -> dict:
    """The benchmark's workloads; unit_seconds is one unit's time at the
    seed commit on a 2-core host, which sizes a run to about --seconds."""
    return {
        w.name: w
        for w in (
            TableWorkload("table-1a", "1a", 0.55, stream_weight=0.5),  # 4 MB per array
            TableWorkload("table-2a", "2a", 0.23),
            VerifyWorkload("verify", 0.50),
            InspectWorkload("inspect", 0.032, workdir),
        )
    }


def units_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.unit_seconds))


def run_units(workload, inputs, tracer: Tracer | None = None) -> RunResult:
    """Run and time each unit after gauging the host's slowness; hash the
    unit's outputs outside its timed interval."""
    times, slow, foreign, outcomes = [], [], [], []
    run_hash = hashlib.sha256()
    reps = kernel_reps(workload.unit_seconds)

    def gauge():
        factor, share = slowness(reps, workload.stream_weight)
        slow.append(factor)
        foreign.append(share)

    gauge()
    for inp in inputs:
        t0 = time.perf_counter()
        if tracer is None:
            outcome = workload.run(inp)
        else:
            outcome = tracer.call("bench.unit", workload.run, inp, new_trace=True)
        times.append(time.perf_counter() - t0)
        gauge()
        outcome.digest = sha256(workload.collect(inp, outcome))
        run_hash.update(bytes.fromhex(outcome.digest))
        outcomes.append(outcome)
    return RunResult(times, slow, foreign, outcomes, run_hash.hexdigest())
