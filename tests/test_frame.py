import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import forms
from akcy import frame as fr
from akcy.errors import FrameError

from conftest import make_twisted


def _pipeline(s):
    f = fr.build_frame(s)
    c = fr.connection_forms(s, f)
    t = fr.torsion(s, f, c)
    return f, c, t


def test_frame_is_unitary(s_tw12):
    f = fr.build_frame(s_tw12)
    d = f.defects(s_tw12.g, s_tw12.J)
    assert d["unitarity"] < 1e-13
    assert d["J_alignment"] < 1e-13
    assert d["duality"] < 1e-13


def test_frame_rotation_preserves_defects(s_tw12, rng):
    f = fr.build_frame(s_tw12)
    # random unitary via QR
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(A)
    g = f.rotate(U)
    d = g.defects(s_tw12.g, s_tw12.J)
    assert d["unitarity"] < 1e-12
    assert d["duality"] < 1e-12


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
        c = fr.connection_forms(s, f)
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
        Nc = fr.nijenhuis_coordinate(s)
        ebar = np.conj(f.e)
        pairing = np.einsum(
            "kij...,ak...,bi...,cj...->abc...", Nc, f.theta, ebar, ebar
        )
        errs.append(
            float(np.abs(t.N - fr.TORSION_NIJENHUIS_RATIO * pairing).max())
        )
    assert errs[1] < errs[0] / 2.5
    assert errs[1] < 1e-3


def test_nijenhuis_cyclic_identity(s_tw12):
    """The cyclic sum vanishes identically for the discrete N as well."""
    f, c, t = _pipeline(s_tw12)
    cyc = t.N + np.transpose(t.N, (1, 2, 0) + tuple(range(3, t.N.ndim))) \
        + np.transpose(t.N, (2, 0, 1) + tuple(range(3, t.N.ndim)))
    assert float(np.abs(cyc).max()) < 1e-12


def test_covariant_hessian_of_zero_is_zero(s_tw12):
    f, c, t = _pipeline(s_tw12)
    h = fr.covariant_hessian(s_tw12, f, c, np.zeros(s_tw12.chart.shape))
    assert np.abs(h.phi_a).max() == 0.0
    assert np.abs(h.phi_abar).max() == 0.0


def test_hermitian_frame_path_at_zero_is_identity(s_tw12):
    f, c, t = _pipeline(s_tw12)
    h = fr.covariant_hessian(s_tw12, f, c, np.zeros(s_tw12.chart.shape))
    M = fr.hermitian_frame_path(h)
    eye = np.eye(2).reshape(2, 2, 1, 1, 1, 1)
    assert np.abs(M - eye).max() == 0.0


def test_covariant_hessian_is_nearly_hermitian(s_tw16, rng):
    f, c, t = _pipeline(s_tw16)
    X = s_tw16.chart.grid_points()
    phi = 0.05 * np.sin(2 * np.pi * (X[..., 0] + X[..., 3]))
    h = fr.covariant_hessian(s_tw16, f, c, phi)
    assert h.hermitian_defect() < 0.05


def test_frame_paths_match_coordinate_paths(s_tw16):
    """tau and H from the frame formulas vs coordinate bidegree projection."""
    X = s_tw16.chart.grid_points()
    phi = 0.03 * np.sin(2 * np.pi * X[..., 1]) * np.cos(2 * np.pi * X[..., 2])
    f, c, t = _pipeline(s_tw16)
    h = fr.covariant_hessian(s_tw16, f, c, phi)

    tau_coord = cy.tau(s_tw16, phi)
    tau_frame = fr.tau_frame_path(s_tw16, t, h)
    tau_check = fr.frame_tau_components(f, tau_coord)
    assert np.abs(tau_frame - tau_check).max() < 5e-3

    M_coord = cy.H_part(s_tw16, phi, f=f)
    M_frame = fr.hermitian_frame_path(h)
    assert np.abs(M_frame - M_coord).max() < 5e-3


def test_local_geometry_matches_grid_frame(s_tw12):
    chart = s_tw12.chart
    f = fr.build_frame(s_tw12)
    idx = (3, 5, 7, 2)
    p = chart.index_to_point(idx)
    lg = fr.LocalGeometry(s_tw12, p[None, :])
    e_full = np.broadcast_to(f.e, (2, 4) + chart.shape)
    e_grid = e_full[(slice(None), slice(None)) + idx]
    assert np.abs(lg.e[..., 0] - e_grid).max() < 1e-9


def test_local_geometry_mixed_torsion_defect(s_tw12, rng):
    pts = rng.uniform(0, 1, size=(64, 4))
    lg = fr.LocalGeometry(s_tw12, pts)
    assert float(np.abs(lg.mixed).max()) < 1e-7
