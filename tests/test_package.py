import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dl2u

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
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.splitlines() == ["[]", "[]"]
