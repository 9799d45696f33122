"""Smoke tests of the scripts that sit next to the package: the demos and
the per-layer tracer of the benchmark.  Each runs in a fresh interpreter,
since the tracer rewires module attributes process-wide."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


TRACED_RUN = """
import json, sys
import numpy as np
sys.path.insert(0, "bench")
from tracer import Tracer

tracer = Tracer()
tracer.install()
from akcy import boundary, cy_operator as cy, frame, potentials, solver, structure as st

recipe = st.StructureRecipe("twisted", st.default_generator(2), 0.12, "sin_x1_cos_y2")
chart = st.build_grid(2, [8] * 4)
s = st.twisted_structure(chart, recipe)
pot = {c.name: c for c in potentials.default_candidates(2)}["prod_x2_y1"]
phi = cy.project_zero_mean(s, 0.01 * pot.sample(chart)).values
cy.analyze_potential(s, phi)
frame.LocalGeometry(s, np.random.default_rng(2).uniform(size=(5, 4)))
solver.newton_solve(s, cy.F_total(s, phi), tol=1e-9)
boundary.select_seed(st.twisted_structure(st.build_grid(2, [10] * 4), recipe))
print(json.dumps(tracer.metrics()))
"""


def test_bench_tracer_installs_and_counts():
    """Each traced layer the run reaches counts; select_seed reaches the
    lattice frame through the build_frame the tracer patches."""
    proc = _run(["-c", TRACED_RUN])
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    for key in (
        "structure.J_at.points",
        "frame.LocalGeometry.points",
        "forms.j_conjugate_comps.s",
        "cy_operator.F_total.calls",
        "cy_operator.min_eigenvalue_field.points",
        "cy_operator.analyze_potential.peak_mb",
        "solver.newton_solve.iters",
        "solver.LinearOperatorHandle.apply.calls",
        "solver.gmres.calls",
        "solver.fft.calls",
        "frame.build_frame.s",
        "boundary.select_seed.s",
    ):
        assert metrics[key] > 0, key
    # LocalGeometry reads J_at once per point and nothing else reads it.
    assert metrics["structure.J_at.points"] == metrics["frame.LocalGeometry.points"]
