"""Every public name the package advertises resolves: each module's __all__
entries and each name the package root imports from its modules, and each
has a caller outside the tests.  Importing the package and its command line
leaves scipy's sparse solvers unloaded, and a Newton solve never loads scipy
at all."""
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


SRC = Path(akcy.__file__).resolve().parent
REPO = SRC.parents[1]
# Public names kept though only the tests use them, as references:
# kernel_check is the dense audit of the linearized operator.
TEST_REFERENCES = {"kernel_check"}


def _public_names():
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                names.update(ast.literal_eval(node.value))
    return names


def _used_names(node, strings, enclosing=()):
    """Names node uses: loaded identifiers, attributes, imported names and,
    with strings, string literals; a use inside the definition of the same
    name does not count."""
    used = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        used.add(node.id)
    elif isinstance(node, ast.Attribute):
        used.add(node.attr)
    elif isinstance(node, ast.alias):
        used.add(node.name)
    elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        used.add(node.value)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing += (node.name,)
    for child in ast.iter_child_nodes(node):
        used |= _used_names(child, strings, enclosing)
    return used - set(enclosing)


def test_public_names_have_a_caller():
    """Every __all__ name of akcy is used by akcy itself, a demo or the
    benchmark, whose tracer patches functions by name (so its string
    literals count); an __all__ list is not a use, and neither is the
    package root's re-export."""
    used = set()
    for folder, strings in (("src", False), ("demos", False), ("bench", True)):
        for path in (REPO / folder).rglob("*.py"):
            if path != SRC / "__init__.py":
                used |= _used_names(ast.parse(path.read_text()), strings)
    assert sorted(_public_names() - used) == sorted(TEST_REFERENCES)


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


def test_import_starts_no_thread():
    """The row-group pool is made at the first sweep that fans out: import
    starts no thread and does not load concurrent.futures."""
    code = ("import sys, threading, akcy.cli; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules, "
            "akcy.cy_operator._POOL)")
    assert _run_python(code) == "1 False None"


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
