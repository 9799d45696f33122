"""Every public name the package advertises resolves: each module's __all__
entries and each name the package root imports from its modules.  Importing
the package and its command line leaves scipy's sparse solvers unloaded."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_import_defers_sparse_solvers():
    # scipy.sparse.linalg is about half of `import akcy`; only a solve loads it.
    code = "import sys, akcy.cli; print('scipy.sparse.linalg' in sys.modules)"
    src = str(Path(akcy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
