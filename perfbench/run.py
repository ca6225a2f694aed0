"""dl2u benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload table-1a --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.  With
--trace 0 the run measures set-up time in fresh processes, runs the timed
units with tracing off and reports the end-to-end metrics.  With --trace 1
it runs the same units untraced and then traced, and reports the per-layer
metrics with the tracing overhead.  Every run checks the outputs, compares
the gate hashes with perfbench/pinned.json, writes a run record and prints
one JSON result as its last line.  Exit status is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("table-1a", "table-2a", "verify", "inspect")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def single_thread_blas() -> dict:
    """Run BLAS/OpenMP pools with one thread (well within nproc).

    Set before numpy is imported.  dl2u's BLAS calls are small, and after a
    threaded call (the 2000x300 product in `verify`) the idle worker spins
    on the second CPU, which doubles the timings that follow at random.  A
    fixed count also keeps reduction orders, and so the hashes, fixed.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dl2u" / "__init__.py").is_file():
        print(f"perfbench: no dl2u sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads_env = single_thread_blas()
    sys.path.insert(0, str(SRC))
    import dl2u

    if Path(dl2u.__file__).resolve().parent != (SRC / "dl2u").resolve():
        print(f"perfbench: imported dl2u from {dl2u.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench

    RESULTS.mkdir(exist_ok=True)
    workload = bench.make_workloads(RESULTS)[args.workload]
    if args.setup_probe:
        bench.setup_probe(workload, args.seed, args.seconds)
        return 0
    return bench.run(workload, args, nproc, threads_env)


if __name__ == "__main__":
    sys.exit(main())
