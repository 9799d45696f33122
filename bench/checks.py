"""Correctness checks of one workload operation's outputs.

Each check returns a list of (name, message) failures; an empty list means
the outputs are correct.  They run after timing, against `reference.py`
(computed without akcy) or against properties the method guarantees, and
never against stored earlier output.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref

NEWTON_PHI_TOL = 1e-6
F_REL_TOL = 1e-10
MASS_TOL = 1e-12
AMPLITUDE_STEP = 1e-7       # relative distance of "just below/above" the amplitude
SCAN_MARGIN_TOL = 1e-8
ENDPOINT_TOL = 1e-6


def _report(path):
    return json.loads(path.read_text())


def _gap_modulo_constants(a, b):
    return float(np.abs((a - a.mean()) - (b - b.mean())).max())


def check_newton(out, potential, N):
    """`akcy solve` converged to the manufactured phi*, modulo constants."""
    failures = []
    report = _report(out / "solve_report.json")
    if report["converged"] is not True:
        failures.append(("converged", f"solve did not converge: {report}"))
    phi = ref.read_field(out / "phi_solution.bin")
    err = _gap_modulo_constants(phi, potential.on_grid(N))
    if not err <= NEWTON_PHI_TOL:
        failures.append(("solution", f"|phi - phi*|_inf = {err:.3e} > {NEWTON_PHI_TOL}"))
    return failures


def check_analyze(out, potential, N):
    """F_field.bin is Pf(omega + d(J^T dphi)) with unit mass, and the reported
    amplitude is where the reference h(s phi) stops being positive."""
    failures = []
    F = ref.read_field(out / "F_field.bin")
    J = ref.j_field(N)
    D = ref.deformation(potential.on_grid(N), J, N)
    F_ref = ref.pfaffian_density(D)
    rel = float(np.abs(F - F_ref).max() / np.abs(F_ref).max())
    if not rel <= F_REL_TOL:
        failures.append(("F_field", f"F differs from the reference Pfaffian by {rel:.3e} relative"))
    mass = float(F.mean())
    if not abs(mass - 1.0) <= MASS_TOL:
        failures.append(("mass", f"int F = {mass!r} != 1"))
    amplitude = _report(out / "potential_report.json")["amplitude"]
    if amplitude is None:
        failures.append(("amplitude", "no amplitude reported"))
        return failures
    g, delta = ref.taming_pencil(D, J)
    below = ref.min_taming_eigenvalue(g, delta, amplitude * (1.0 - AMPLITUDE_STEP))
    above = ref.min_taming_eigenvalue(g, delta, amplitude * (1.0 + AMPLITUDE_STEP))
    if not (below > 0.0 and above < 0.0):
        failures.append((
            "amplitude",
            f"reference min eigenvalue of h(s phi) is {below:.3e} just below and "
            f"{above:.3e} just above the reported amplitude {amplitude!r}",
        ))
    return failures


def check_shadow(out):
    """The boundary potential is certified on the cone boundary, and the
    continuity method reaches it."""
    failures = []
    b = _report(out / "boundary_report.json")
    if not abs(b["margin"]) <= SCAN_MARGIN_TOL:
        failures.append(("scan_margin", f"|scan margin| = {abs(b['margin']):.3e} > {SCAN_MARGIN_TOL}"))
    if not 0.0 < b["amplitude"] <= 1.0:
        failures.append(("amplitude", f"bump amplitude {b['amplitude']!r} outside (0, 1]"))
    if not b["minF"] > 0.0:
        failures.append(("minF", f"min F = {b['minF']!r} is not positive"))
    if b["min_eig_in_disk"] is not True:
        failures.append(("min_eig_in_disk", "the degenerate point lies outside the polydisk"))
    solve = _report(out / "solve_report.json")
    if not (solve["converged"] is True and solve["t_reached"] == 1.0):
        failures.append(("t_reached", f"continuity stopped at t = {solve['t_reached']!r}"))
    gap = _gap_modulo_constants(
        ref.read_field(out / "phi_solution.bin"), ref.read_field(out / "phi0_field.bin")
    )
    if not gap <= ENDPOINT_TOL:
        failures.append(("endpoint", f"continuity endpoint is {gap:.3e} from phi0"))
    return failures
