import dataclasses

import numpy as np
import pytest

from akcy import boundary as bd
from akcy import cy_operator as cy
from akcy import forms
from akcy import frame as fr
from akcy.errors import ConfigurationError, NoSeedError
from akcy.potentials import default_candidates
from conftest import make_standard, make_twisted


def test_cutoff_plateau_and_tail():
    assert bd.cutoff_eta(0.25) == 1.0
    assert bd.cutoff_eta(0.5) == 1.0
    assert bd.cutoff_eta(1.0) == 0.0
    assert bd.cutoff_eta(1.5) == 0.0
    assert bd.cutoff_eta(0.75) == pytest.approx(0.5, abs=1e-14)


def test_cutoff_is_C2_at_junctions():
    eps = 1e-6
    for r0 in (0.5, 1.0):
        v = [bd.cutoff_eta(r0 - eps), bd.cutoff_eta(r0 + eps)]
        d1 = [bd.cutoff_eta_d1(r0 - eps), bd.cutoff_eta_d1(r0 + eps)]
        d2 = [bd.cutoff_eta_d2(r0 - eps), bd.cutoff_eta_d2(r0 + eps)]
        assert abs(v[0] - v[1]) < 1e-5
        assert abs(d1[0] - d1[1]) < 1e-4
        assert abs(d2[0] - d2[1]) < 1e-3


def test_cutoff_derivatives_match_finite_differences():
    rs = np.linspace(0.55, 0.95, 17)
    eps = 1e-6
    for r in rs:
        fd1 = (bd.cutoff_eta(r + eps) - bd.cutoff_eta(r - eps)) / (2 * eps)
        assert bd.cutoff_eta_d1(r) == pytest.approx(fd1, abs=1e-6)
        fd2 = (bd.cutoff_eta_d1(r + eps) - bd.cutoff_eta_d1(r - eps)) / (2 * eps)
        assert bd.cutoff_eta_d2(r) == pytest.approx(fd2, abs=1e-5)


def test_bump_spec_rejects_small_R():
    frame = np.array([[1.0, 1j, 0, 0], [0, 0, 1.0, 1j]]) / np.sqrt(2)
    with pytest.raises(ConfigurationError):
        bd.BumpSpec(2.0, np.zeros(4), frame, np.ones(2), 0.1)


def _toy_bump(R=4.0, lam=(0.8, 1.1), scale=0.05):
    frame = np.array([[1.0, 1j, 0, 0], [0, 0, 1.0, 1j]], dtype=complex) / np.sqrt(2)
    spec = bd.BumpSpec(R, np.array([0.3, 0.4, 0.5, 0.6]), frame, np.array(lam), scale)
    return bd.bump_psi(spec)


def test_bump_center_hessian_is_half_lambda():
    bump = _toy_bump()
    w0 = np.zeros((1, 4))
    psi, grad, hess = bump.chart_eval(w0, order=2)
    lam = bump.spec.lam
    # complex Hessian (psi)_{a abar} = (d_uu + d_vv)/4 on the diagonal
    for a in range(2):
        cplx = 0.25 * (hess[2 * a, 2 * a, 0] + hess[2 * a + 1, 2 * a + 1, 0])
        assert cplx == pytest.approx(lam[a] / 2.0, abs=1e-12)
    assert np.abs(grad[:, 0]).max() < 1e-14


def test_bump_vanishes_outside_polydisk():
    bump = _toy_bump(R=4.0)
    # points with some |zeta| in (1/R, well inside the unit polydisk), and one
    # inside the 1/R polydisk but outside both 1/R^2 inner cores: witness
    # density takes F(phi) unchanged wherever the bump support ends
    w = np.array(
        [[0.5, 0.0, 0.5, 0.0], [0.3, 0.3, -0.4, 0.2], [0.26, 0.0, 0.0, 0.0],
         [0.1, 0.0, 0.1, 0.0]]
    )
    psi, grad, hess = bump.chart_eval(w, order=2)
    assert np.abs(psi).max() == 0.0
    assert np.abs(grad).max() == 0.0
    assert np.abs(hess).max() == 0.0


def test_bump_gradient_scaling_slope():
    sups = []
    Rs = (4.0, 8.0, 16.0)
    rng = np.random.default_rng(2)
    dirs = rng.standard_normal((32, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t = np.linspace(0.0, 1.0, 1500)[:, None, None]
    for R in Rs:
        bump = _toy_bump(R=R)
        # dense radial scan: the sup lives on a thin shell near the support edge
        w = (t * dirs[None] / R).reshape(-1, 4)
        psi, grad, _ = bump.chart_eval(w, order=1)
        sups.append(np.abs(grad).max())
    slopes = np.diff(np.log(sups)) / np.diff(np.log(Rs))
    assert np.all(np.abs(slopes + 2.0) < 0.2)


def test_bump_torus_chart_roundtrip():
    bump = _toy_bump()
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.2, 0.2, size=(50, 4))
    back = bump.torus_to_chart(bump.chart_to_torus(w))
    assert np.abs(back - w).max() < 1e-12


@pytest.mark.parametrize("chunk", [None, 1000])
def test_grid_near_matches_brute_force_mask(monkeypatch, s_tw12, chunk):
    """The chunked near-set pass finds exactly the grid points whose chart
    image lies in the 1.5/R polydisk, also when chunks split the grid."""
    if chunk is not None:
        monkeypatch.setattr(bd, "GRID_CHUNK", chunk)
    bump = _toy_bump(R=4.0, scale=0.25)
    pts = s_tw12.chart.grid_points().reshape(-1, 4)
    w_all = bump.torus_to_chart(pts)
    expected = np.flatnonzero(np.hypot(w_all[:, 0::2], w_all[:, 1::2]).max(axis=1) <= 1.5 / 4.0)
    idx, near_pts, w_near = bd._grid_near(s_tw12, bump)
    assert 10 < len(expected) < len(pts) // 10
    np.testing.assert_array_equal(idx, expected)
    np.testing.assert_array_equal(near_pts, pts[expected])
    np.testing.assert_allclose(w_near, w_all[expected], rtol=0, atol=1e-15)


def test_pseudo_holomorphic_coordinate_standard(s_std12):
    """f = x1 + i y1 is holomorphic for the flat structure away from the
    periodic seam of the sawtooth coordinates; the conjugate has defect
    2|df| everywhere."""
    X = s_std12.chart.grid_points()
    f = X[..., 0] + 1j * X[..., 1]
    defect = bd.pseudo_holomorphic_defect(s_std12, f)
    interior = (slice(1, -1), slice(1, -1), slice(None), slice(None))
    assert defect[interior].max() < 1e-12
    d_conj = bd.pseudo_holomorphic_defect(s_std12, np.conj(f))
    # |df| = sqrt(2) on the interior, so the anti-holomorphic defect is 2*sqrt(2)
    assert d_conj[interior].max() == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    assert d_conj[interior].min() == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_nijenhuis_pairing_vanishes_on_integrable(s_std12):
    X = s_std12.chart.grid_points()
    f = np.sin(2 * np.pi * X[..., 0]) + 1j * np.cos(2 * np.pi * X[..., 1])
    assert bd.nijenhuis_pairing(s_std12, f).max() < 1e-12


def test_nijenhuis_pairing_nonzero_on_twisted(s_tw12):
    X = s_tw12.chart.grid_points()
    f = np.sin(2 * np.pi * X[..., 0]).astype(complex)
    assert bd.nijenhuis_pairing(s_tw12, f).max() > 1e-3


def test_select_seed_rejects_integrable(s_std12):
    with pytest.raises(NoSeedError):
        bd.select_seed(s_std12)


def test_select_seed_certifies_only_the_winner(monkeypatch, s_tw12):
    """Candidates are ranked by the closed-form amplitude; the one certified
    amplitude sweep is the winner's, and it sets the seed's scale."""
    certify = cy.pencil_amplitude
    calls = []

    def counting(base, delta):
        calls.append(1)
        return certify(base, delta)

    monkeypatch.setattr(cy, "pencil_amplitude", counting)
    seed = bd.select_seed(s_tw12)
    assert len(calls) == 1
    monkeypatch.undo()
    raw = seed.candidate.value(s_tw12.chart.grid_points())
    assert seed.scale_c == 0.9 * cy.positivity_amplitude(s_tw12, raw)
    assert np.array_equal(seed.potential.values, seed.scale_c * raw)


def test_epsilon0_floor_formula():
    class Seed:
        epsilon1 = 0.04
        lam = [0.9, 1.1]

    floor = bd.epsilon0_floor(Seed(), 2)
    assert floor == pytest.approx(0.5 * 0.02**2 * 1.0 * 0.25)


def test_boundary_potential_sits_on_cone_boundary():
    """Criterion 09's report conditions for one R on a small grid."""
    s = make_twisted([14, 14, 14, 14])
    seed = bd.select_seed(s)
    _, report = bd.boundary_potential(s, seed, 8.0)
    assert abs(report.margin) <= 1e-8
    assert 0.0 < report.amplitude <= 1.0
    assert report.amplitude_in_range
    assert report.min_eig_in_disk
    assert report.minF > 0.0


def _flat_seed(s):
    """A hand-built seed for the integrable flat structure, where
    select_seed has nothing to find; U is a generic unitary."""
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    p0_idx = (3, 3, 3, 3)
    return bd.SeedPotential(
        potential=None,
        epsilon1=0.0,
        basepoint=p0_idx,
        lam=np.array([0.9, 1.1]),
        candidate=default_candidates(2)[4],
        scale_c=0.05,
        p0=s.chart.index_to_point(p0_idx),
        U=U,
        chart_scale=0.05,
    )


@pytest.mark.parametrize(
    "case, lattice_points",
    [("sin_x1_cos_y2", 100), ("sin_x1", 10), ("standard", 1)],
)
def test_lattice_geometry_matches_per_point_geometry(case, lattice_points):
    """_seed_grid_F and witness_density gather LocalGeometry from the
    broadcast-reduced lattice; both match a LocalGeometry evaluated at every
    grid point."""
    if case == "standard":
        s = make_standard([10] * 4)
        seed = _flat_seed(s)
    else:
        s = make_twisted([10] * 4, profile=case)
        seed = bd.select_seed(s)
    lattice, _ = bd._lattice_geometry(s)
    assert lattice.points.shape[0] == lattice_points

    R, amplitude = 8.0, 0.6
    pts = s.chart.grid_points().reshape(-1, 4)
    lg = fr.LocalGeometry(s, pts)
    pa, _, pabar = lg.covariant_of(seed.analytic_grad(pts), seed.analytic_hess(pts))
    grid_F = bd.frame_F(lg.hermitian_of(pabar), 2.0 * lg.tau_of(pa)[0, 1])
    geo = bd._ScanGeometry(s, seed, bd._seed_bump(s, seed, R), pts)
    density = geo.F(amplitude).reshape(s.chart.shape)
    density = density / forms.integrate(s, density)

    assert np.abs(bd._seed_grid_F(s, seed) - grid_F).max() < 1e-10
    assert np.abs(bd.witness_density(s, seed, R, amplitude) - density).max() < 1e-10


def test_seed_grid_F_follows_each_new_seed():
    """Seeds built and dropped one after another, so that a new seed can
    reuse a freed one's id, each get the grid F of their own scale."""
    s = make_twisted([10] * 4)
    pts = s.chart.grid_points().reshape(-1, 4)
    lg = fr.LocalGeometry(s, pts)
    base = _flat_seed(s)
    for scale in np.linspace(0.01, 0.1, 20):
        seed = dataclasses.replace(base, scale_c=scale)
        pa, _, pabar = lg.covariant_of(seed.analytic_grad(pts), seed.analytic_hess(pts))
        grid_F = bd.frame_F(lg.hermitian_of(pabar), 2.0 * lg.tau_of(pa)[0, 1])
        assert np.abs(bd._seed_grid_F(s, seed) - grid_F).max() < 1e-10
        del seed
