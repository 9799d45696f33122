"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (criterion 12 is report-only by
design) so the suite output doubles as a checklist.  Criterion 12 writes
its trace and report under pytest's tmp_path.  The heavier runs
(boundary search at 32^4, the 64^4 conservation probe) sit toward the end.
"""

import time

import numpy as np
import pytest

from akcy import boundary as bd
from akcy import cy_operator as cy
from akcy import forms
from akcy import frame as fr
from akcy import potentials
from akcy import serialize
from akcy import solver as sv

import grid_frame as gf
from conftest import make_standard, make_twisted

def _line(num, name, ok):
    status = {True: "PASS", False: "FAIL", None: "REPORTED"}[ok]
    print(f"criterion {num:02d} {name}: {status}")


@pytest.fixture(scope="module")
def s_tw32():
    return make_twisted([32] * 4)


def _random_phis(s, rng, count, amp=0.01):
    return [
        amp * potentials.random_potential(s.half_dim, rng).sample(s.chart)
        for _ in range(count)
    ]


def test_criterion_01_identity_baseline(s_tw32):
    structures = [
        make_standard([32] * 4),
        s_tw32,
        make_standard([12] * 6),
        make_twisted([12] * 6, profile="sin_x1"),
    ]
    dev = max(
        float(np.abs(cy.F_total(s, np.zeros(s.chart.shape)) - 1.0).max())
        for s in structures
    )
    ok = dev <= 1e-12
    _line(1, "identity-baseline", ok)
    print(f"  max |F(0) - 1| over 4 structures: {dev:.3e}")
    assert ok


def test_criterion_02_decomposition_identity(s_std12, s_tw12, rng):
    worst = 0.0
    for s in (s_std12, s_tw12):
        for phi in _random_phis(s, rng, 20):
            direct, comps = cy._F_total(s, cy.deformation_form(s, phi), True)
            rel = float(
                np.abs(sum(comps) - direct).max() / max(np.abs(direct).max(), 1.0)
            )
            worst = max(worst, rel)
    ok = worst <= 1e-10
    _line(2, "decomposition-identity", ok)
    print(f"  worst relative decomposition defect (40 potentials): {worst:.3e}")
    assert ok


def test_criterion_03_positivity(s_tw12, rng):
    min_F0 = np.inf
    min_Fj = np.inf
    for raw in _random_phis(s_tw12, rng, 20, amp=1.0):
        a = cy.positivity_amplitude(s_tw12, raw)
        comps = cy.F_components(s_tw12, 0.9 * a * raw)
        min_F0 = min(min_F0, float(comps[0].min()))
        min_Fj = min(min_Fj, float(min(c.min() for c in comps)))
    ok = min_F0 > 0.0 and min_Fj >= -1e-10
    _line(3, "positivity-inside-cone", ok)
    print(f"  min F_0 = {min_F0:.6e}, min over all F_j = {min_Fj:.6e}")
    assert ok


def test_criterion_04_conservation(rng):
    """The mass defect is machine-exact (discrete Stokes), so the 10 h^2
    envelope holds with 13 orders to spare and no visible decay remains."""
    devs = []
    for res in (16, 32, 64):
        s = make_twisted([res] * 4)
        n_phi = 3 if res < 64 else 1
        worst = 0.0
        for phi in _random_phis(s, rng, n_phi):
            worst = max(worst, abs(forms.integrate(s, cy.F_total(s, phi)) - 1.0))
        devs.append((res, worst))
        del s
    ok = all(dev <= 10.0 / res**2 for res, dev in devs)
    _line(4, "conservation", ok)
    for res, dev in devs:
        print(f"  {res}^4: |int F - 1| = {dev:.3e}  (bound {10.0 / res**2:.3e})")
    assert ok


def test_criterion_05_frame_coordinate_crossval():
    errs_tau, errs_H, hs = [], [], []
    for res in (16, 24, 32):
        s = make_twisted([res] * 4)
        X = s.chart.grid_points()
        phi = 0.03 * np.sin(2 * np.pi * X[..., 1]) * np.cos(2 * np.pi * X[..., 2])
        f = fr.build_frame(s)
        c = gf.connection_forms(s, f)
        t = gf.torsion(s, f, c)
        h = gf.covariant_hessian(s, f, c, phi)
        B = cy.deformation_form(s, phi).comps
        tau_frame = gf.tau_coefficients(h.phi_a, t.N)
        tau_coord = 0.5 * fr.tau_at(B, f.e)
        errs_tau.append(float(np.abs(tau_frame - tau_coord).max()))
        M_frame = gf.hermitian_coefficients(h.phi_abar)
        M_coord = fr.hermitian_at(B, f.e)
        errs_H.append(float(np.abs(M_frame - M_coord).max()))
        hs.append(1.0 / res)
    slope_tau = float(np.polyfit(np.log(hs), np.log(errs_tau), 1)[0])
    slope_H = float(np.polyfit(np.log(hs), np.log(errs_H), 1)[0])
    ok = abs(slope_tau - 2.0) <= 0.3 and abs(slope_H - 2.0) <= 0.3
    _line(5, "frame-coordinate-crossval", ok)
    print(f"  tau slope {slope_tau:.3f}, H slope {slope_H:.3f} (target 2 +/- 0.3)")
    assert ok


def test_criterion_06_integrable_degeneration(s_std12, rng):
    max_N = fr.nijenhuis_max_norm(s_std12)
    e = fr.build_frame(s_std12).e
    max_tau = max(
        float(np.abs(fr.tau_at(cy.deformation_form(s_std12, phi).comps, e)).max())
        for phi in _random_phis(s_std12, rng, 5)
    )
    # discrete d(J dphi) vs the analytic two-form H J0 - (H J0)^T
    pot = potentials.default_candidates(2)[5]
    errs = []
    for res in (12, 24):
        s = make_standard([res] * 4)
        phi = 0.02 * pot.sample(s.chart)
        B_disc = gf.pair_matrix(cy.deformation_form(s, phi).comps, 4)
        H = 0.02 * pot.hess(s.chart.grid_points())
        J0 = np.asarray(s.J).reshape(4, 4, *([1] * 4))[:, :, 0, 0, 0, 0]
        HJ = np.einsum("km...,ml->kl...", H, J0)
        B = HJ - np.swapaxes(HJ, 0, 1)
        errs.append(float(np.abs(B_disc - B).max()))
    ok = max_N <= 1e-12 and max_tau <= 1e-10 and errs[1] <= errs[0] / 3.0
    _line(6, "integrable-degeneration", ok)
    print(
        f"  max N = {max_N:.3e}, max tau = {max_tau:.3e}, "
        f"analytic-match errors {errs[0]:.3e} -> {errs[1]:.3e}"
    )
    assert ok


def test_criterion_07_torsion_structure():
    maxes = []
    for res in (12, 24):
        s = make_twisted([res] * 4)
        f = fr.build_frame(s)
        c = gf.connection_forms(s, f)
        t = gf.torsion(s, f, c)
        maxes.append((t.max_T(), t.max_mixed()))
        cyc = (
            t.N
            + np.transpose(t.N, (1, 2, 0) + tuple(range(3, t.N.ndim)))
            + np.transpose(t.N, (2, 0, 1) + tuple(range(3, t.N.ndim)))
        )
        cyc_defect = float(np.abs(cyc).max())
    ratio_T = maxes[0][0] / maxes[1][0]
    ratio_mixed = maxes[0][1] / maxes[1][1]
    ok = ratio_T >= 2.5 and ratio_mixed >= 2.5 and cyc_defect <= 1e-12
    _line(7, "torsion-structure", ok)
    print(
        f"  (2,0)-torsion decay x{ratio_T:.2f}, (1,1)-torsion decay "
        f"x{ratio_mixed:.2f} under h -> h/2; cyclic defect {cyc_defect:.3e}"
    )
    assert ok


def test_criterion_08_bump_scaling():
    frame = np.array([[1.0, 1j, 0, 0], [0, 0, 1.0, 1j]], dtype=complex) / np.sqrt(2)
    lam = np.array([0.8, 1.1])
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((32, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t = np.linspace(0.0, 1.0, 1500)[:, None, None]
    sups = []
    Rs = (4.0, 8.0, 16.0)
    for R in Rs:
        spec = bd.BumpSpec(R, np.array([0.3, 0.4, 0.5, 0.6]), frame, lam, 0.05)
        bump = bd.BumpField(spec)
        w = (t * dirs[None] / R).reshape(-1, 4)
        _, grad, _ = bump.chart_eval(w, order=1)
        sups.append(float(np.abs(grad).max()))
    slopes = np.diff(np.log(sups)) / np.diff(np.log(Rs))
    spec = bd.BumpSpec(4.0, np.array([0.3, 0.4, 0.5, 0.6]), frame, lam, 0.05)
    bump = bd.BumpField(spec)
    _, grad0, hess0 = bump.chart_eval(np.zeros((1, 4)), order=2)
    hess_dev = max(
        abs(0.25 * (hess0[2 * a, 2 * a, 0] + hess0[2 * a + 1, 2 * a + 1, 0]) - lam[a] / 2)
        for a in range(2)
    )
    ok = bool(np.all(np.abs(slopes + 2.0) <= 0.2)) and hess_dev <= 1e-10
    _line(8, "bump-scaling", ok)
    print(f"  gradient slopes {slopes}, center Hessian deviation {hess_dev:.3e}")
    assert ok


def test_criterion_09_boundary_witness(s_tw32):
    t0 = time.time()
    seed = bd.select_seed(s_tw32)
    R0, phi0, report = bd.search_R(s_tw32, seed, [4.0, 8.0, 12.0, 16.0])
    elapsed = time.time() - t0
    ok = (
        0.0 < report.amplitude <= 1.0 + 1e-8
        and abs(report.margin) <= 1e-8
        and report.min_eig_in_disk
        and report.tau12_bound >= seed.epsilon1 / 2.0
        and report.minF > 0.0
        and elapsed <= 1800.0
    )
    _line(9, "boundary-witness", ok)
    print(
        f"  R0={R0}  a={report.amplitude:.6e}  margin={report.margin:.3e}  "
        f"minF={report.minF:.6f}  tau12>={report.tau12_bound:.4f} "
        f"(need {seed.epsilon1 / 2.0:.4f})  {elapsed:.0f}s"
    )
    assert ok


def test_criterion_10_linearization(s_tw12, rng):
    handle0 = sv.make_handle(s_tw12, 0.0)
    const_defect = float(np.abs(handle0.apply(np.ones(s_tw12.chart.shape))).max())
    slopes = []
    eps_list = (1e-3, 5e-4, 2.5e-4)
    for _ in range(5):
        raw = potentials.random_potential(2, rng).sample(s_tw12.chart)
        # scale each base well inside its own taming cone
        phi = 0.3 * cy.positivity_amplitude(s_tw12, raw) * raw
        u = potentials.random_potential(2, rng).sample(s_tw12.chart)
        handle = sv.make_handle(s_tw12, phi)
        Lu = handle.apply(u)
        F0 = cy.F_total(s_tw12, phi)
        errs = [
            float(np.abs(cy.F_total(s_tw12, phi + eps * u) - F0 - eps * Lu).max())
            for eps in eps_list
        ]
        slopes.append(float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]))
    ok = const_defect <= 1e-12 and all(abs(sl - 2.0) <= 0.2 for sl in slopes)
    _line(10, "linearization", ok)
    print(f"  L(phi)1 defect {const_defect:.3e}, Richardson slopes {np.round(slopes, 3)}")
    assert ok


def test_criterion_11_manufactured_solve(s_tw16, rng):
    pot = potentials.default_candidates(2)[9]  # prod_x2_y1
    phi_star = cy.project_zero_mean(s_tw16, 0.01 * pot.sample(s_tw16.chart)).values
    f = cy.F_total(s_tw16, phi_star)
    sol_a, rep_a = sv.newton_solve(s_tw16, f, tol=1e-9)
    init = 1e-3 * potentials.random_potential(2, rng).sample(s_tw16.chart)
    sol_b, rep_b = sv.newton_solve(s_tw16, f, phi_init=init, tol=1e-9)
    err = float(np.abs(sol_a.values - phi_star).max())
    gap = float(np.abs(sol_a.values - sol_b.values).max())
    ok = (
        rep_a.converged
        and rep_b.converged
        and rep_a.iters <= 12
        and err <= 1e-6
        and gap <= 1e-6
    )
    _line(11, "manufactured-solve", ok)
    print(f"  {rep_a.iters} iterations, |phi - phi*| = {err:.3e}, init gap {gap:.3e}")
    assert ok


def test_criterion_12_non_surjectivity_shadow(s_tw16, tmp_path):
    """Report-only: drive the continuity method toward the boundary witness
    density and archive how the path degenerates.

    The witness sits on the taming-cone boundary only in the certified
    (analytic scan) sense: its degeneracy is concentrated at the 1/R^2 bump
    core, below the grid scale, so the grid-sampled margin along the
    continuity path stays bounded away from zero and the discrete solve
    terminates on (a grid regularization of) the cone boundary instead of
    collapsing.  Both margins are archived so the gap is visible.
    """
    seed = bd.select_seed(s_tw16)
    phi0, breport = bd.boundary_potential(s_tw16, seed, 8.0)
    f = cy.F_total(s_tw16, phi0.values)
    pot, rep = sv.continuity_solve(s_tw16, f, steps=5, tol=1e-8, max_iter=8)
    grid_margin = cy.taming_margin(s_tw16, phi0.values)
    gap = float(np.abs(pot.values - phi0.values).max())
    serialize.write_trace_csv(
        tmp_path / "continuity_shadow_trace.csv",
        ["t", "residual", "margin"],
        rep.trace,
    )
    serialize.write_report(
        tmp_path / "continuity_shadow_report.json",
        {
            "witness_scan_margin": breport.margin,
            "witness_grid_margin": grid_margin,
            "endpoint_gap_to_witness": gap,
            **rep.as_dict(),
        },
    )
    _line(12, "non-surjectivity-shadow", None)
    print(
        f"  witness margin: {breport.margin:.3e} certified on the scan set "
        f"vs {grid_margin:.3e} sampled on the grid; continuity reached "
        f"t={rep.t_reached:.4f} (converged={rep.converged}, "
        f"reason={rep.reason or 'none'}), endpoint within {gap:.3e} of the "
        f"witness; trace written to {tmp_path.name}/"
    )
    assert (tmp_path / "continuity_shadow_trace.csv").exists()
