"""Every public name the package advertises resolves: each module's __all__
entries and each name the package root imports from its modules.  Importing
the package and its command line leaves scipy's sparse solvers unloaded, and
a Newton solve never loads scipy at all."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
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


def _run_python(code):
    src = str(Path(akcy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_import_defers_sparse_solvers():
    # Importing scipy.sparse.linalg would double the time of `import akcy`.
    code = "import sys, akcy.cli; print('scipy.sparse.linalg' in sys.modules)"
    assert _run_python(code) == "False"


def test_newton_solve_never_imports_scipy():
    """akcy's GMRES is its own: a whole manufactured Newton solve at 8^4
    runs without scipy."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from akcy import cy_operator as cy, solver, structure as st
        chart = st.build_grid(2, [8] * 4)
        s = st.twisted_structure(chart, st.StructureRecipe(
            kind="twisted", generator=st.default_generator(2), amplitude=0.12,
            profile="sin_x1_cos_y2"))
        X = chart.grid_points()
        phi = 0.01 * np.sin(2 * np.pi * X[..., 2]) * np.cos(2 * np.pi * X[..., 1])
        f = cy.F_total(s, cy.project_zero_mean(s, phi).values)
        _, rep = solver.newton_solve(s, f, tol=1e-9)
        print(rep.converged, rep.iters > 0, 'scipy' in sys.modules)
    """)
    assert _run_python(code) == "True True False"
