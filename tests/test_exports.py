"""Every public name the package advertises resolves: each module's __all__
entries and each name the package root imports from its modules."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import akcy

MODULES = sorted(m.name for m in pkgutil.iter_modules(akcy.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_entries_resolve(name):
    module = importlib.import_module(f"akcy.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_package_root_imports_resolve():
    tree = ast.parse(Path(akcy.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        assert hasattr(importlib.import_module(f"akcy.{module}"), attr), (module, attr)
        assert hasattr(akcy, attr), attr
