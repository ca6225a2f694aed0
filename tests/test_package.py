import ast
import importlib
import pkgutil
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
