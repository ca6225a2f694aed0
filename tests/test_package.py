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


def test_inspect_commands_leave_scipy_signal_and_special_out(tmp_path):
    # Every CLI call is a fresh process that pays its imports. `import dl2u.cli`
    # alone takes about 0.17 s and 29 MB peak RSS (2 vCPUs, Python 3.11, scipy
    # 1.17). scipy.special takes that to 0.5 s and 54 MB, so only table, verify
    # and the oracles import it, on first use. scipy.signal.lfilter runs the
    # recurrences bit for bit, but its import takes it to 1.5 s and 103 MB.
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
print(sorted(m for m in ("scipy.signal", "scipy.special") if m in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(dl2u.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.splitlines() == ["[]", "[]"]
