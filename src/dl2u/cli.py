"""Command line front end.

Subcommands: simulate (path CSV + metadata sidecar), estimate (JSON),
table (CSV rows), hist (histogram JSON), verify (oracle report JSON).
Exit codes: 0 ok, 2 usage, 3 domain error, 4 numeric overflow,
5 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import montecarlo, oracles
from .dgp import RngSeed, SimulatedPath, simulate_path
from .errors import DomainError, NumericOverflowError, VerificationError
from .estimator import ols_rho, pivot_S, pivot_T, score_rho_error
from .sequences import ModelParams, Regime, SequenceSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_OVERFLOW = 4
EXIT_VERIFY = 5

_FLOAT_FMT = "%.17g"


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=montecarlo.N_NEARSTAT)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--kn", default="pow:0.25", help="const:V | log | pow:A | lin")
    p.add_argument("--rn", default="log", help="const:V | log | pow:A | lin")
    p.add_argument("--regime", choices=[r.value for r in Regime], default="stat")
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--z0", type=float, default=0.0)


def _params_from(args) -> ModelParams:
    return ModelParams(
        c=args.c,
        d=args.d,
        alpha=args.alpha,
        n=args.n,
        kn=SequenceSpec.parse(args.kn),
        rn=SequenceSpec.parse(args.rn),
        regime=Regime(args.regime),
        y0=args.y0,
        z0=args.z0,
    )


def _params_meta(params: ModelParams) -> dict:
    return {
        "c": params.c,
        "d": params.d,
        "alpha": params.alpha,
        "n": params.n,
        "kn": params.kn.label(),
        "rn": params.rn.label(),
        "regime": params.regime.value,
        "y0": params.y0,
        "z0": params.z0,
    }


@contextlib.contextmanager
def _output(path):
    """Yield `path` opened for writing, or stdout when no path is given."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
    with fh:
        yield fh


def _write_path_csv(path: SimulatedPath, out):
    out.write("t,y,sigma2,u\n")
    for t in range(len(path.y)):
        u = _FLOAT_FMT % path.u[t - 1] if t >= 1 else ""
        out.write(f"{t},{_FLOAT_FMT % path.y[t]},{_FLOAT_FMT % path.sigma2[t]},{u}\n")


def cmd_simulate(args) -> int:
    params = _params_from(args)
    seed = RngSeed(args.seed, args.rep)
    path = simulate_path(params, seed)
    meta = {
        "command": "simulate",
        "params": _params_meta(params),
        "seed": {"base": seed.base, "stream": seed.stream},
    }
    with _output(args.out) as out:
        _write_path_csv(path, out)
    if args.out is not None:
        with _output(args.out + ".meta.json") as fh:
            json.dump(meta, fh, indent=2)
    return EXIT_OK


def cmd_estimate(args) -> int:
    params = _params_from(args)
    try:
        with warnings.catch_warnings():  # an empty file is reported below, once
            warnings.filterwarnings("ignore", "genfromtxt: Empty input file", UserWarning)
            data = np.genfromtxt(args.path, delimiter=",", names=True)
    except OSError as exc:
        raise DomainError(f"cannot read {args.path}: {exc}") from exc
    except IndexError:  # genfromtxt's failure on an empty file
        raise DomainError(f"cannot read {args.path}: the file is empty") from None
    if not {"y", "u"} <= set(data.dtype.names):
        raise DomainError(f"{args.path} has no y and u columns")
    if data.size != params.n + 1:
        raise DomainError(f"{args.path} has {data.size} rows; --n {params.n} needs {params.n + 1}")
    y, u = data["y"], data["u"][1:]  # u column is empty at t=0
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(u))):  # genfromtxt reads "abc" as NaN
        raise DomainError(f"{args.path} has a y or u value that is not a finite number")
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
        "target": piv.target.label(),
        "params": _params_meta(params),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_table(args) -> int:
    rows = montecarlo.run_table(
        args.id,
        n_nearstat=args.n_nearstat,
        n_explosive=args.n_explosive,
        replications=args.reps,
        paths_per_test=args.paths,
        seed=args.seed,
    )
    with _output(args.out) as out:
        out.write("kn,mean_ks,acceptance\n")
        for row in rows:
            out.write(f"{row.kn_label},{_FLOAT_FMT % row.mean_ks},{_FLOAT_FMT % row.acceptance}\n")
    return EXIT_OK


# hist panel -> (table, default k_n); n defaults to the table's size
_PANELS = {"left": ("2b", "pow:0.25"), "right": ("2a", "pow:0.5")}


def cmd_hist(args) -> int:
    table_id, kn = _PANELS[args.panel]
    sizes = {} if args.n is None else {"n_nearstat": args.n, "n_explosive": args.n}
    kn = SequenceSpec.parse(kn if args.kn is None else args.kn)
    params = montecarlo.table_params(table_id, kn, **sizes)
    spec = montecarlo.ExperimentSpec(
        params=params, paths_per_test=args.paths, replications=1, seed=args.seed
    )
    record = montecarlo.emit_histogram(spec, bins=args.bins)
    record["params"] = _params_meta(params)
    record["seed"] = args.seed
    with _output(args.out) as out:
        json.dump(record, out, indent=2)
        out.write("\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 0 <= args.seed < 2**64 - 2:  # seed + 2 is the wn_vn DGP base below
        raise DomainError(f"verify needs --seed in [0, 2^64 - 2), got {args.seed}")
    checks = oracles.run_moment_suite(draws=args.draws, seed=args.seed)
    reports = [c.as_dict() for c in checks]

    grid = [montecarlo.table_params("1a", SequenceSpec.power_of_n(0.25), n)
            for n in (montecarlo.N_NEARSTAT, 10000)]
    eq6 = oracles.check_eq6_convergence(grid, seed=args.seed + 1)
    wnvn_params = montecarlo.table_params("2a", SequenceSpec.power_of_n(0.5))
    wnvn = oracles.check_wnvn(wnvn_params, seed=args.seed + 2)
    all_passed = all(r["passed"] for r in reports) and eq6["passed"] and wnvn["passed"]
    report = {"moment_checks": reports, "eq6": eq6, "wn_vn": wnvn, "passed": all_passed}
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    if not all_passed:
        raise VerificationError("one or more oracle checks failed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dl2u",
        description="Simulation and inference for AR(1) with near-unit root and "
        "nearly nonstationary stochastic volatility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A string default goes through type=int only for the subcommand parsed,
    # so a malformed DL2U_SEED is a usage error there and nowhere else.
    seed_default = os.environ.get("DL2U_SEED", "0")
    seed_help = "base seed (default: $DL2U_SEED, else 0)"

    p = sub.add_parser("simulate", help="simulate one path to CSV")
    _add_model_args(p)
    p.add_argument("--seed", type=int, default=seed_default, help=seed_help)
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate rho and the pivot from a path CSV")
    p.add_argument("path")
    _add_model_args(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("table", help="reproduce a KS acceptance table")
    p.add_argument("--id", required=True, choices=list(montecarlo.TABLE_IDS))
    p.add_argument("--reps", type=int, default=montecarlo.REPLICATIONS)
    p.add_argument("--paths", type=int, default=montecarlo.PATHS_PER_TEST)
    p.add_argument("--n-nearstat", type=int, default=montecarlo.N_NEARSTAT)
    p.add_argument("--n-explosive", type=int, default=montecarlo.N_EXPLOSIVE)
    p.add_argument("--seed", type=int, default=seed_default, help=seed_help)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("hist", help="emit a pivot histogram with target overlay")
    p.add_argument("--panel", choices=list(_PANELS), default="left")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--kn", default=None)
    p.add_argument("--paths", type=int, default=montecarlo.PATHS_PER_TEST)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--seed", type=int, default=seed_default, help=seed_help)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--draws", type=int, default=oracles.MIN_DRAWS)
    p.add_argument("--seed", type=int, default=707)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericOverflowError as exc:
        print(f"numeric overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
