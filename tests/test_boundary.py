import numpy as np
import pytest

from akcy import boundary as bd
from akcy.errors import ConfigurationError, NoSeedError, ResolutionError
from conftest import make_twisted


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
    # points with every |zeta| in (1/R, well inside the unit polydisk)
    w = np.array(
        [[0.5, 0.0, 0.5, 0.0], [0.3, 0.3, -0.4, 0.2], [0.26, 0.0, 0.0, 0.0]]
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


def test_sample_on_grid_enforces_resolution(s_tw12):
    bump = _toy_bump(R=4.0, scale=0.05)
    with pytest.raises(ResolutionError):
        bump.sample_on_grid(s_tw12.chart)


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
