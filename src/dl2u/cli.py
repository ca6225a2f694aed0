"""Command line front end.

Subcommands: simulate (path CSV + metadata sidecar), estimate (JSON),
table (CSV rows), hist (histogram JSON), verify (oracle report JSON).
Exit codes: 0 ok, 2 usage, 3 domain error, 4 numeric overflow,
5 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import stat
import sys
from itertools import repeat

import numpy as np

from . import montecarlo, oracles
from .dgp import RngSeed, SimulatedPath, simulate_path
from .errors import DomainError, NumericOverflowError, VerificationError
from .estimator import ols_rho, pivot_S, pivot_T, score_rho_error, target_law
from .sequences import ModelParams, Regime, SequenceSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_OVERFLOW = 4
EXIT_VERIFY = 5

_FLOAT_FMT = "%.17g"
_COMMENT = re.compile("#[^\n]*")
_CSV_ROWS = 64  # per `%`: one `%` over all rows grew inspect's peak RSS by 0.7 MB


# ModelParams' fields in record order, each with its CLI parser and printer:
# the rate sequences and the regime have a notation, the rest pass as they are
_SPEC = (SequenceSpec.parse, SequenceSpec.label)
_AS_IS = (lambda v: v, lambda v: v)
_NOTATIONS = {"kn": _SPEC, "rn": _SPEC, "regime": (Regime, lambda r: r.value)}
_FIELDS = [(f.name, *_NOTATIONS.get(f.name, _AS_IS)) for f in dataclasses.fields(ModelParams)]


def _params_from(args) -> ModelParams:
    return ModelParams(**{name: parse(getattr(args, name)) for name, parse, _ in _FIELDS})


def _params_meta(params: ModelParams) -> dict:
    return {name: show(getattr(params, name)) for name, _, show in _FIELDS}


def _is_std_stream(st: os.stat_result) -> bool:
    """Whether `st` is the file open on fd 1 or fd 2; a closed descriptor is no file."""
    for fd in (1, 2):
        with contextlib.suppress(OSError):
            if os.path.samestat(st, os.fstat(fd)):
                return True
    return False


def _write(text: str, path: str | None = None, stream: str = "stdout") -> os.stat_result | None:
    """Write `text` over `path`, or flush it to sys.`stream`; `path`'s fstat iff a regular file."""
    out, regular = getattr(sys, stream), None
    try:
        if path is None:
            out.write(text)
            out.flush()
        else:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # open(path, "w") less O_TRUNC
            try:
                with open(fd, "w", closefd=False) as fh:
                    fh.write(text)
            finally:  # cut where the writes ended; a truncation to 0 makes ext4 flush at close
                try:
                    st = os.fstat(fd)
                    if stat.S_ISREG(st.st_mode):  # not a device, FIFO or pipe
                        os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
                        regular = st
                finally:
                    os.close(fd)
    except OSError as exc:  # exits 3
        if path is None:  # close it: what a failed flush left buffered would fail again at exit
            with contextlib.suppress(OSError):
                out.close()
        raise DomainError(f"cannot write {stream if path is None else path}: {exc}") from exc
    return regular


def _csv_text(path: SimulatedPath) -> str:
    """The header, the t = 0 row, then rows 1..n: one `%` per _CSV_ROWS rows, over flat tuples."""
    y, sigma2, u = path.y.tolist(), path.sigma2.tolist(), path.u.tolist()
    cells = [None] * (4 * len(u))
    cells[::4], cells[1::4], cells[2::4], cells[3::4] = range(1, len(y)), y[1:], sigma2[1:], u
    row, step = f"%d,{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT}\n", 4 * _CSV_ROWS
    chunks = (tuple(cells[i : i + step]) for i in range(0, len(cells), step))
    rows = "".join([row * (len(chunk) // 4) % chunk for chunk in chunks])
    return f"t,y,sigma2,u\n0,{_FLOAT_FMT % y[0]},{_FLOAT_FMT % sigma2[0]},\n" + rows


def _read_path_csv(path: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """y and u of a path CSV of n + 1 rows, as the column views of np.loadtxt's (n + 1, 2) array.

    One substitution drops every `#` comment, and of the lines, split at line
    feeds only, the blank ones are dropped.  The first left is the header;
    every row has one cell per header name, and only the y and u cells are
    read, but for the empty u cell of the t = 0 row.  BLAS sums a strided
    vector in one order at any stride, and a contiguous one in another, so
    these strided views keep the last bits `estimate` had with the columns
    of `np.genfromtxt(path, delimiter=",", names=True)`.
    """
    try:
        with open(path) as fh:
            lines = list(filter(str.strip, _COMMENT.sub("", fh.read()).split("\n")))
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DomainError(f"cannot read {path}: the file is empty")
    names = [name.strip() for name in lines[0].split(",")]
    if not {"y", "u"} <= set(names):
        raise DomainError(f"{path} has no y and u columns")
    if len(lines) - 1 != n + 1:
        raise DomainError(f"{path} has {len(lines) - 1} rows; --n {n} needs {n + 1}")
    k, iy, iu = len(names), names.index("y"), names.index("u")
    if set(map(str.count, lines, repeat(","))) != {k - 1}:
        raise DomainError(f"{path} has a row whose length is not the header's {k}")
    not_finite = DomainError(f"{path} has a y or u value that is not a finite number")
    row0 = lines[1].split(",")
    lines[1] = ",".join(row0[:iu] + ["nan"] + row0[iu + 1 :])  # t = 0 has no u
    try:
        rows = np.loadtxt(lines[1:], delimiter=",", usecols=(iy, iu), ndmin=2)
    except ValueError:
        raise not_finite from None
    y, u = rows[:, 0], rows[1:, 1]
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(u))):
        raise not_finite
    return y, u


def cmd_simulate(args) -> int:
    params = _params_from(args)
    seed = RngSeed(args.seed, args.rep)
    path = simulate_path(params, seed)
    meta = {"command": "simulate", "params": _params_meta(params),
            "seed": {"base": seed.base, "stream": seed.stream}}
    st = _write(_csv_text(path), args.out)
    if st and not _is_std_stream(st):  # stdout, its file, a device, FIFO or pipe gets none
        _write(json.dumps(meta, indent=2), args.out + ".meta.json")  # no final newline
    return EXIT_OK


def cmd_estimate(args) -> int:
    params = _params_from(args)
    target = target_law(params)  # and the pivot's scale: a model error exits before the read
    y, u = _read_path_csv(args.path, params.n)
    pivot = pivot_T if params.regime is Regime.NEAR_STATIONARY else pivot_S
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite results exit 4 below
        ols = ols_rho(y)
        rho_err = score_rho_error(SimulatedPath(y=y, sigma2=np.ones_like(y), u=u))
        piv = pivot(ols, params, rho_error=rho_err)
    if not (math.isfinite(ols.rho_hat) and math.isfinite(piv.value)):
        raise NumericOverflowError(f"the sums over {args.path} overflow: rho_hat = {ols.rho_hat}")
    report = {
        "rho_hat": ols.rho_hat,
        "pivot": {"kind": piv.kind, "value": piv.value},
        "target": target.label(),
        "params": _params_meta(params),
    }
    _write(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = montecarlo.run_table(args.id, n_nearstat=args.n, n_explosive=args.n,
                                replications=args.reps, paths_per_test=args.paths, seed=args.seed)
    lines = [f"{row.kn_label},{_FLOAT_FMT % row.mean_ks},{_FLOAT_FMT % row.acceptance}\n"
             for row in rows]
    _write("kn,mean_ks,acceptance\n" + "".join(lines), args.out)
    return EXIT_OK


# hist panel -> (table, default k_n); n defaults to the table's size
_PANELS = {"left": ("2b", "pow:0.25"), "right": ("2a", "pow:0.5")}


def cmd_hist(args) -> int:
    table_id, kn = _PANELS[args.panel]
    kn = SequenceSpec.parse(kn if args.kn is None else args.kn)
    params = montecarlo.table_params(table_id, kn, args.n)
    spec = montecarlo.ExperimentSpec(params, paths_per_test=args.paths, replications=1,
                                     seed=args.seed)
    record = montecarlo.emit_histogram(spec, bins=args.bins)
    record["params"] = _params_meta(params)
    record["seed"] = args.seed
    _write(json.dumps(record, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = oracles.verify(args.seed)
    _write(json.dumps(report, indent=2) + "\n")  # delivered before a failed check exits 5
    if not report["passed"]:
        raise VerificationError("one or more oracle checks failed")
    return EXIT_OK


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dl2u",
        description="Simulation and inference for AR(1) with near-unit root and "
        "nearly nonstationary stochastic volatility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag shared by two or more subcommands is declared once, in a parent
    model, run, rows = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    model.add_argument("--n", type=int, default=montecarlo.N_NEARSTAT)
    model.add_argument("--c", type=float, default=1.0)
    model.add_argument("--d", type=float, default=1.0)
    model.add_argument("--alpha", type=float, default=0.0)
    model.add_argument("--kn", default="pow:0.25", help="const:V | log | pow:A | lin")
    model.add_argument("--rn", default="log", help="const:V | log | pow:A | lin")
    model.add_argument("--regime", choices=[r.value for r in Regime], default="stat")
    model.add_argument("--y0", type=float, default=0.0)
    model.add_argument("--z0", type=float, default=0.0)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None)
    rows.add_argument("--paths", type=int, default=montecarlo.PATHS_PER_TEST)
    rows.add_argument("--n", type=int, default=None)

    p = sub.add_parser("simulate", parents=[model, run], help="simulate one path to CSV")
    p.add_argument("--rep", type=int, default=0)

    p = sub.add_parser("estimate", parents=[model],
                       help="estimate rho and the pivot from a path CSV")
    p.add_argument("path")

    p = sub.add_parser("table", parents=[rows, run], help="reproduce a KS acceptance table")
    p.add_argument("--id", required=True, choices=list(montecarlo.TABLE_IDS))
    p.add_argument("--reps", type=int, default=montecarlo.REPLICATIONS)

    p = sub.add_parser("hist", parents=[rows, run],
                       help="emit a pivot histogram with target overlay")
    p.add_argument("--panel", choices=list(_PANELS), default="left")
    p.add_argument("--kn", default=None)
    p.add_argument("--bins", type=int, default=50)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--seed", type=int, default=707)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # cmd_<command> is looked up per call, so a wrapped cmd_* (as the
    # benchmark's tracer installs) runs even after the parser is cached.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (DomainError, MemoryError) as exc:  # MemoryError: a size the host cannot hold
        code, line = EXIT_DOMAIN, f"domain error: {str(exc) or 'out of memory'}"
    except NumericOverflowError as exc:
        code, line = EXIT_OVERFLOW, f"numeric overflow: {exc}"
    except VerificationError as exc:
        code, line = EXIT_VERIFY, f"verification failure: {exc}"
    with contextlib.suppress(DomainError):  # an unwritable stderr loses the line, not the code
        _write(line + "\n", stream="stderr")
    return code


if __name__ == "__main__":
    sys.exit(main())
