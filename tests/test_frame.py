import tracemalloc

import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import forms
from akcy import frame as fr
from akcy.errors import FrameError
from akcy.potentials import default_candidates

import grid_frame as gf
from conftest import assert_same_bytes, make_twisted, slab_structure


def _pipeline(s):
    f = fr.build_frame(s)
    c = gf.connection_forms(s, f)
    t = gf.torsion(s, f, c)
    return f, c, t


def test_frame_is_unitary(s_tw12):
    f = fr.build_frame(s_tw12)
    d = fr._frame_defects(f.J, f.g, f.e)
    assert d["unitarity"] < 1e-13
    assert d["J_alignment"] < 1e-13
    assert d["duality"] < 1e-13


def test_degenerate_seeds_raise():
    s = make_twisted([12] * 4)
    with pytest.raises(FrameError):
        fr._gram_schmidt(s.J, s.g, [0, 0])


def test_connection_annihilates_g_and_J():
    coarse = make_twisted([12] * 4)
    fine = make_twisted([24] * 4)
    defects = []
    for s in (coarse, fine):
        f = fr.build_frame(s)
        c = gf.connection_forms(s, f)
        defects.append(max(c.nabla_g_defect, c.nabla_J_defect))
    # second-order convergence: halving h divides the defect by about 4
    assert defects[1] < defects[0] / 2.5
    assert defects[1] < 0.05


def test_standard_structure_has_no_torsion(s_std12):
    f, c, t = _pipeline(s_std12)
    assert t.max_T() < 1e-12
    assert t.max_N() < 1e-12
    assert t.max_mixed() < 1e-12
    assert fr.nijenhuis_max_norm(s_std12) < 1e-12


def test_twisted_structure_has_nonzero_nijenhuis(s_tw12):
    assert fr.nijenhuis_max_norm(s_tw12) > 1e-3


def test_torsion_nijenhuis_ratio():
    """Frozen constant 1/8 relating frame N-components to the coordinate
    bracket formula, with O(h^2) residual."""
    errs = []
    for res in (12, 24):
        s = make_twisted([res] * 4)
        f, c, t = _pipeline(s)
        Nc = gf.nijenhuis_coordinate(s)
        ebar = np.conj(f.e)
        pairing = np.einsum(
            "kij...,ak...,bi...,cj...->abc...", Nc, gf.coframe(f), ebar, ebar
        )
        errs.append(
            float(np.abs(t.N - gf.TORSION_NIJENHUIS_RATIO * pairing).max())
        )
    assert errs[1] < errs[0] / 2.5
    assert errs[1] < 1e-3


def test_grid_nijenhuis_converges_to_the_closed_form():
    """The grid bracket (grid_frame) approaches the library's closed form at
    O(h^2): halving h cuts the gap by about 4 (3.9 measured, 0.038 at
    12^4)."""
    gaps = []
    for res in (12, 24):
        s = make_twisted([res] * 4)
        gaps.append(float(np.abs(gf.nijenhuis_coordinate(s) - fr.nijenhuis_coordinate(s)).max()))
    assert gaps[0] < 0.05 and 3.5 < gaps[0] / gaps[1] < 4.5, gaps


def test_nijenhuis_cyclic_identity(s_tw12):
    """The cyclic sum vanishes identically for the discrete N as well."""
    f, c, t = _pipeline(s_tw12)
    cyc = t.N + np.transpose(t.N, (1, 2, 0) + tuple(range(3, t.N.ndim))) \
        + np.transpose(t.N, (2, 0, 1) + tuple(range(3, t.N.ndim)))
    assert float(np.abs(cyc).max()) < 1e-12


def test_covariant_hessian_of_zero_is_zero(s_tw12):
    f, c, t = _pipeline(s_tw12)
    h = gf.covariant_hessian(s_tw12, f, c, np.zeros(s_tw12.chart.shape))
    assert np.abs(h.phi_a).max() == 0.0
    assert np.abs(h.phi_abar).max() == 0.0


def test_hermitian_frame_path_at_zero_is_identity(s_tw12):
    f, c, t = _pipeline(s_tw12)
    h = gf.covariant_hessian(s_tw12, f, c, np.zeros(s_tw12.chart.shape))
    M = gf.hermitian_coefficients(h.phi_abar)
    eye = np.eye(2).reshape(2, 2, 1, 1, 1, 1)
    assert np.abs(M - eye).max() == 0.0


def test_covariant_hessian_is_nearly_hermitian(s_tw16, rng):
    f, c, t = _pipeline(s_tw16)
    X = s_tw16.chart.grid_points()
    phi = 0.05 * np.sin(2 * np.pi * (X[..., 0] + X[..., 3]))
    h = gf.covariant_hessian(s_tw16, f, c, phi)
    assert h.hermitian_defect() < 0.05


def test_frame_paths_match_coordinate_paths(s_tw16):
    """tau and H from the grid frame formulas vs tau_at and hermitian_at."""
    X = s_tw16.chart.grid_points()
    phi = 0.03 * np.sin(2 * np.pi * X[..., 1]) * np.cos(2 * np.pi * X[..., 2])
    f, c, t = _pipeline(s_tw16)
    h = gf.covariant_hessian(s_tw16, f, c, phi)

    B = cy.deformation_form(s_tw16, phi).comps
    tau_frame = gf.tau_coefficients(h.phi_a, t.N)
    tau_check = 0.5 * fr.tau_at(B, f.e)
    assert np.abs(tau_frame - tau_check).max() < 5e-3

    M_coord = fr.hermitian_at(B, f.e)
    M_frame = gf.hermitian_coefficients(h.phi_abar)
    assert np.abs(M_frame - M_coord).max() < 5e-3


@pytest.mark.parametrize("grid", ["tw12", "tw13", "tw8_n3"])
def test_tau_at_and_hermitian_at_are_the_bidegree_projection(grid):
    """On build_frame's e, 0.5 tau_at and hermitian_at of d(J dphi) are the
    (2,0) and (1,1) parts of omega + d(J dphi) from one bidegree projection
    (grid_frame.projected_tau_and_hermitian), read on the frame, to 64 eps
    of their largest entry, for every default candidate."""
    s = make_twisted([13] * 4) if grid == "tw13" else slab_structure(grid)
    e = fr.build_frame(s).e
    eps = 64 * np.finfo(float).eps
    for cand in default_candidates(s.half_dim):
        B = cy.deformation_form(s, 0.05 * cand.value(s.chart.grid_points())).comps
        tau_ref, M_ref = gf.projected_tau_and_hermitian(s, B, e)
        assert np.abs(0.5 * fr.tau_at(B, e) - tau_ref).max() <= eps * np.abs(tau_ref).max()
        assert np.abs(fr.hermitian_at(B, e) - M_ref).max() <= eps * np.abs(M_ref).max()


@pytest.mark.parametrize("grid", ["tw12", "tw13", "tw8_n3"])
def test_pair_contraction_is_the_dense_frame_values(grid):
    """tau_at and hermitian_at contract the pair components with
    coefficients on the frame's points; they equal the dense pair matrix
    and three-operand einsum (grid_frame.frame_values), on the lattice frame
    and at scan-like points, to 16 eps of the products' scale
    max|B| max|e|^2 (measured: at most 3.1 eps for tau, 5.5 eps for H).
    tau is antisymmetric bitwise, with a zero diagonal."""
    s = make_twisted([13] * 4) if grid == "tw13" else slab_structure(grid)
    n = s.half_dim
    eps = 16 * np.finfo(float).eps
    pts = np.random.default_rng(29).uniform(size=(500, s.chart.dim))
    lg = fr.LocalGeometry(s, pts)
    omega = forms.omega_form(s).comps
    for cand in default_candidates(n)[::3]:
        B = cy.deformation_form(s, 0.05 * cand.value(s.chart.grid_points())).comps
        Bp = fr.deformation_at(lg.J, lg.dJ, 0.05 * cand.grad(pts), 0.05 * cand.hess(pts))
        for comps, e in ((B, fr.build_frame(s).e), (Bp, lg.e)):
            tau = fr.tau_at(comps, e)
            scale = np.abs(e).max() ** 2
            want = gf.frame_values(comps, e, e)
            assert np.abs(tau - want).max() <= eps * scale * np.abs(comps).max()
            for a in range(n):
                assert not np.any(tau[a, a])
                for b in range(a + 1, n):
                    assert_same_bytes(tau[b, a], -tau[a, b])
            w = comps + omega.reshape(omega.shape[:1] + (1,) * (comps.ndim - 1))
            want = -1j * gf.frame_values(w, e, np.conj(e))
            M = fr.hermitian_at(comps, e)
            assert np.abs(M - want).max() <= eps * scale * np.abs(w).max()


def test_local_geometry_matches_grid_frame(s_tw12):
    chart = s_tw12.chart
    f = fr.build_frame(s_tw12)
    idx = (3, 5, 7, 2)
    p = chart.index_to_point(idx)
    lg = fr.LocalGeometry(s_tw12, p[None, :])
    e_full = np.broadcast_to(f.e, (2, 4) + chart.shape)
    e_grid = e_full[(slice(None), slice(None)) + idx]
    assert np.abs(lg.e[..., 0] - e_grid).max() < 1e-9


@pytest.mark.parametrize("resolution", [[12] * 4, [8] * 6])
def test_local_geometry_rotated_when_built(resolution, rng):
    """With U, LocalGeometry's frame is bitwise e'_a = sum_b U[b,a] e_b of
    the unrotated one, and J, g and dJ do not depend on U."""
    s = make_twisted(resolution)
    n = s.half_dim
    pts = rng.uniform(0, 1, size=(64, 2 * n))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    plain = fr.LocalGeometry(s, pts)
    got = fr.LocalGeometry(s, pts, U)
    assert_same_bytes(got.e, np.einsum("ba,bk...->ak...", U, plain.e))
    for key in ("J", "g", "dJ"):
        assert_same_bytes(getattr(got, key), getattr(plain, key))


@pytest.mark.parametrize("resolution", [[12] * 4, [8] * 6])
def test_local_geometry_holds_only_J_g_e_and_dJ(resolution, rng):
    """After the build LocalGeometry holds (tracemalloc) no more than its
    four arrays: J and g, 4n^2 reals each, the frame e, 2n^2 complex, and
    dJ, 8n^3 reals, per point (896 B at n = 2, 2,592 B at n = 3), plus
    4 KiB of object overhead."""
    s = make_twisted(resolution)
    n = s.half_dim
    m = 2000
    pts = rng.uniform(0, 1, size=(m, 2 * n))
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    fr.LocalGeometry(s, pts[:10], U)
    per_point = 8 * (4 * n**2 + 4 * n**2 + 8 * n**3) + 16 * 2 * n**2
    tracemalloc.start()
    try:
        lg = fr.LocalGeometry(s, pts, U)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(v.nbytes for v in (lg.J, lg.g, lg.e, lg.dJ)) == per_point * m
    assert held <= per_point * m + 4096


def test_local_geometry_peak_is_under_twice_what_it_holds(s_tw12, rng):
    """The rotated geometry on 2,000 points peaks (tracemalloc) under 1.9
    times the arrays it keeps (1.21 measured): J_at runs once, and dJ is
    one product of the closed form."""
    pts = rng.uniform(0, 1, size=(2000, 4))
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    fr.LocalGeometry(s_tw12, pts[:10], U)
    tracemalloc.start()
    try:
        lg = fr.LocalGeometry(s_tw12, pts, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(v.nbytes for v in vars(lg).values() if isinstance(v, np.ndarray))
    assert peak < 1.9 * held



def _pointwise_vs_grid(res):
    """Largest differences at the grid points of twisted res^4 between the
    pointwise path (deformation_at, tau_12 = tau_at[0, 1], hermitian_at) of
    an analytic candidate and its grid references: cy.deformation_form of
    the sampled potential, and the frame path's 2 tau_coefficients[0, 1]
    and hermitian_coefficients."""
    s = make_twisted([res] * 4)
    cand = next(c for c in default_candidates(2) if c.name == "prod_x1_y2")
    chart = s.chart
    pts = chart.grid_points().reshape(-1, 4)
    lg = fr.LocalGeometry(s, pts)
    c = 0.05
    B = fr.deformation_at(lg.J, lg.dJ, c * cand.grad(pts), c * cand.hess(pts))
    phi = c * cand.value(chart.grid_points())
    f, conn, t = _pipeline(s)
    h = gf.covariant_hessian(s, f, conn, phi)
    grid_B = cy.deformation_form(s, phi).comps.reshape(6, -1)
    grid_tau = np.broadcast_to(2.0 * gf.tau_coefficients(h.phi_a, t.N)[0, 1], chart.shape)
    grid_M = np.broadcast_to(gf.hermitian_coefficients(h.phi_abar), (2, 2) + chart.shape)
    return (
        float(np.abs(B - grid_B).max()),
        float(np.abs(fr.tau_at(B, lg.e)[0, 1] - grid_tau.ravel()).max()),
        float(np.abs(fr.hermitian_at(B, lg.e) - grid_M.reshape(2, 2, -1)).max()),
    )


def test_pointwise_path_converges_to_the_grid_path():
    """d(J dphi), tau_12 and M of the pointwise path at grid points agree
    with the grid's at second order: halving h cuts each difference by at
    least 2.5."""
    coarse, fine = _pointwise_vs_grid(12), _pointwise_vs_grid(24)
    for e12, e24 in zip(coarse, fine):
        assert 0.0 < e24 and e12 / e24 >= 2.5, (coarse, fine)
