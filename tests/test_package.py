import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dl2u
from dl2u import dgp, ks, montecarlo, oracles
from dl2u.errors import DomainError
from dl2u.sequences import SequenceSpec, dispersion, eval_sequence

MODULES = sorted(info.name for info in pkgutil.iter_modules(dl2u.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"dl2u.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_no_command_imports_scipy(tmp_path):
    # Every CLI call is a fresh process that pays its imports. `import dl2u.cli`
    # takes about 0.28 s and 29 MB peak RSS; `import numpy, scipy.special` takes
    # 0.59 s and 53 MB (2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17; medians of
    # 10 fresh processes). dl2u computes the normal CDF, the KS p-value and
    # log m_n in numpy and math, so no command loads any of scipy; scipy is a
    # test-only oracle. scipy.signal.lfilter would run the recurrences bit for
    # bit, but its import alone takes 1.6 s and 104 MB.
    # A plain `import dl2u` loads no module and no numpy: the modules are the API.
    code = f"""
import contextlib, io, sys
import dl2u
print(sorted(m for m in sys.modules if m.startswith(("dl2u.", "numpy"))))
from dl2u import cli
out = {str(tmp_path / "path.csv")!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", "--n", "50", "--out", out]) == 0
    assert cli.main(["estimate", out, "--n", "50"]) == 0
    assert cli.main(["hist", "--n", "50", "--paths", "20", "--bins", "10"]) == 0
    assert cli.main(["table", "--id", "2a", "--reps", "1", "--paths", "20",
                     "--n", "50"]) == 0
    assert cli.main(["table", "--id", "1a", "--reps", "1", "--paths", "20",
                     "--n", "50"]) == 0
    assert cli.main(["verify"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(dl2u.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    # -W error: a warning on any command's fresh-process path fails here
    result = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.splitlines() == ["[]", "[]"]


def test_every_integer_message_is_constant_text():
    # sequences.integer and sequences.real render the value only when their check fails; a
    # caller that formats the value itself does so on every call, and an int of 4,301 digits
    # fails to print
    calls = {"integer": [], "real": []}
    for path in sorted(Path(dl2u.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in calls:
                calls[node.func.id].append(node)
    assert len(calls["integer"]) >= 17 and len(calls["real"]) >= 7
    for call in calls["integer"] + calls["real"]:
        need = call.args[3] if len(call.args) > 3 else next(k.value for k in call.keywords
                                                            if k.arg == "need")
        assert not [node for node in ast.walk(need)
                    if isinstance(node, (ast.FormattedValue, ast.Call))], ast.unparse(call)


HUGE = 10**5000  # past Python's 4,300-digit int-to-str limit
PARAMS = montecarlo.table_params("2a", SequenceSpec.parse("pow:0.5"), 50)


@pytest.mark.parametrize("call", [
    lambda: dgp.RngSeed(HUGE),
    lambda: dgp.draw_innovations(PARAMS, 0, [HUGE]),
    lambda: eval_sequence(SequenceSpec.parse("log"), HUGE),
    lambda: replace(PARAMS, n=HUGE),
    lambda: dispersion(0.5, HUGE),
    lambda: ks.ks_pvalue(0.3, HUGE),
    lambda: montecarlo.replication_pivots(montecarlo.ExperimentSpec(PARAMS), HUGE),
    lambda: montecarlo.run_table("2a", seed=HUGE),
    lambda: oracles.check_cross_moment(0.5, 0.9, 1, 3, HUGE),
    lambda: oracles.check_conditional_mean(0.5, 0.9, HUGE),
    lambda: oracles.check_cross_moment(0.5, 0.9, 1, HUGE, 5),
    lambda: oracles.run_moment_suite(HUGE),
    lambda: oracles.verify(HUGE),
], ids=["rng-seed-base", "draw-stream", "eval-sequence-n", "model-n", "dispersion-t", "ks-m",
        "rep", "run-table-seed", "cross-seed", "conditional-seed", "cross-t", "suite-seed",
        "verify-seed"])
def test_a_huge_integer_input_is_a_domain_error(call):
    with pytest.raises(DomainError, match="got an int of 16610 bits$"):
        call()


def test_a_huge_batch_size_is_a_domain_error_naming_its_bits():
    bits = (HUGE * (PARAMS.n + 1)).bit_length()
    error = f"paths_per_test * (n + 1) must be below 2^60, got an int of {bits} bits"
    with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
        montecarlo.ExperimentSpec(PARAMS, paths_per_test=HUGE)
