import ast
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


def test_package_imports_resolve():
    tree = ast.parse(Path(dl2u.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(f"dl2u.{module}"), name)
        assert hasattr(dl2u, name)


def test_cli_import_leaves_scipy_signal_out():
    # scipy.signal.lfilter runs the recurrences bit for bit, but importing it
    # takes `import dl2u.cli` from 0.31 s to 0.9-1.3 s and its peak RSS from
    # 53 to 103 MB (2 vCPUs, Python 3.11, scipy 1.17), and every CLI call pays that.
    code = "import sys, dl2u.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(dl2u.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "False"
