"""The benchmark's inspect check, run on a few units.

`InspectWorkload.check` replays each `dl2u simulate --out` / `dl2u estimate`
round trip through the library's scalar path (`simulate_path`,
`score_rho_error`, `pivot_T`/`pivot_S`), and only `perfbench/run.py` runs it
otherwise.  perfbench's modules are imported as `perfbench/conftest.py`
sets them up: from its own directory, with dl2u from the checkout's sources.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "perfbench", ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import workloads as wl


def test_two_inspect_units_pass_the_check(tmp_path):
    w = wl.make_workloads(tmp_path)["inspect"]
    inputs = w.inputs(wl.DEFAULT_SEED, 2)
    result = wl.run_units(w, inputs)
    assert result.total("failed") == 0
    assert w.check(inputs, result) == []
