import dataclasses
import json

import numpy as np
import pytest

from akcy import boundary as bd
from akcy import cy_operator as cy
from akcy import forms
from akcy import frame as fr
from akcy.errors import ConfigurationError, NoSeedError, PreconditionError, SeedSearchError
from akcy.potentials import default_candidates
from conftest import assert_same_bytes, make_standard, make_twisted, slab_structure


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
    return bd.BumpField(spec)


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
    """The batched near-set pass finds exactly the grid points whose chart
    image lies in the 1.5/R polydisk, also when batches split the grid."""
    if chunk is not None:
        monkeypatch.setattr(bd, "SCAN_CHUNK", chunk)
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
    """f = x1 + i y1 is J0-holomorphic, df o J0 = i df, away from the
    periodic seam of the sawtooth coordinates; its conjugate has
    df o J0 = -i df there, with |df| = sqrt(2)."""
    X = s_std12.chart.grid_points()
    f = X[..., 0] + 1j * X[..., 1]
    interior = (slice(None), slice(1, -1), slice(1, -1), slice(None), slice(None))
    for g, eigenvalue in ((f, 1j), (np.conj(f), -1j)):
        df = forms.d_scalar(s_std12.chart, g)
        dfJ = forms.apply_J_oneform(s_std12, df)
        assert np.abs(dfJ.comps - eigenvalue * df.comps)[interior].max() < 1e-12
        norm = np.sqrt(np.sum(np.abs(df.comps) ** 2, axis=0))[interior[1:]]
        np.testing.assert_allclose(norm, np.sqrt(2), rtol=0, atol=1e-12)


def test_select_seed_rejects_integrable(s_std12):
    with pytest.raises(NoSeedError):
        bd.select_seed(s_std12)


def test_search_R_rejects_an_empty_R_list(s_tw12):
    """The list is checked before the seed is read."""
    with pytest.raises(ConfigurationError):
        bd.search_R(s_tw12, None, [])


def test_boundary_potential_requires_n2():
    """n = 3 is rejected before the seed is read."""
    with pytest.raises(PreconditionError):
        bd.boundary_potential(make_standard([8] * 6), None, 8.0)


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
    assert seed.margin == cy.taming_margin(s_tw12, seed.potential.values)


def test_select_seed_skips_directions_unbounded_by_the_closed_form(monkeypatch, s_tw12):
    """A candidate whose closed-form amplitude exceeds AMPLITUDE_MAX is
    skipped, not given a fallback scale: with every one unbounded no seed
    is found."""
    monkeypatch.setattr(cy, "_pencil_critical_scale", lambda g, h: np.inf)
    with pytest.raises(SeedSearchError):
        bd.select_seed(s_tw12)


def test_constant_axes_cut_keeps_exactly_the_constant_axes():
    """Only axes along which every value is exactly equal are cut, and the
    cut broadcasts back to the same bytes; one ulp along an axis keeps it."""
    rng = np.random.default_rng(29)
    v = np.ascontiguousarray(np.broadcast_to(rng.standard_normal((6, 1, 5, 1)), (6, 4, 5, 3)))
    cut = bd._constant_axes_cut(v)
    assert cut.shape == (6, 1, 5, 1)
    assert_same_bytes(np.ascontiguousarray(np.broadcast_to(cut, v.shape)), v)
    v[2, 1, 3, 2] = np.nextafter(v[2, 1, 3, 2], np.inf)
    assert bd._constant_axes_cut(v).shape == v.shape


@pytest.mark.parametrize("res", [12, 13])
def test_select_seed_on_the_cut_is_bitwise_the_whole_grid_search(monkeypatch, res):
    """Ranking each candidate on its constant-axes cut gives the seed of the
    search over the whole grid, field by field and bit by bit, and some
    candidates of the twisted structure do run on fewer points."""
    s = make_twisted([res] * 4)
    form = cy.deformation_form
    points = []

    def counted(s_, phi):
        points.append(np.size(phi))
        return form(s_, phi)

    monkeypatch.setattr(cy, "deformation_form", counted)
    seed = bd.select_seed(s)
    assert min(points) < np.prod(s.chart.shape)
    monkeypatch.setattr(bd, "_constant_axes_cut", lambda v: v)
    whole = bd.select_seed(s)
    for field in ("epsilon1", "scale_c", "chart_scale", "margin", "lam", "U", "p0"):
        assert_same_bytes(np.asarray(getattr(seed, field)), np.asarray(getattr(whole, field)))
    for field in ("basepoint", "pair"):
        assert getattr(seed, field) == getattr(whole, field)
    assert seed.candidate.name == whole.candidate.name
    assert_same_bytes(seed.potential.values, whole.potential.values)


def _tau_peaks(s, seed):
    """|tau_ab| on the seed's pair of its unscaled candidate, read on
    build_frame's lattice frame, and the flat indices of the grid points
    within a relative 64 eps of its maximum."""
    B = cy.deformation_form(s, seed.candidate.value(s.chart.grid_points())).comps
    tau = fr.tau_at(B, fr.build_frame(s).e)[seed.pair]
    mag = np.abs(np.broadcast_to(tau, s.chart.shape))
    return mag, np.flatnonzero(mag >= mag.max() * (1.0 - 64 * np.finfo(float).eps))


def test_select_seed_takes_the_lower_index_twin():
    """At twisted 13^4 |tau_12| peaks at two symmetric twins, equal up to
    rounding; the basepoint is the one of lower flat index, (0, 3, 10, 11),
    not the argmax of the rounded values, (0, 10, 3, 11)."""
    s = make_twisted([13] * 4)
    seed = bd.select_seed(s)
    assert seed.basepoint == (0, 3, 10, 11)
    mag, near = _tau_peaks(s, seed)
    twins = [np.ravel_multi_index(p, s.chart.shape) for p in ((0, 3, 10, 11), (0, 10, 3, 11))]
    assert sorted(twins) == sorted(near)


def test_select_seed_at_n3():
    """At n = 3 (twisted 8^6) the seed is a strictly taming multiple of a
    candidate with H(phi)(p0) positive; its basepoint is the lowest flat
    index where |tau_ab| of its pair peaks, and epsilon1, the least |tau_ab|
    of the seed over a box around p0, lies below the peak."""
    s = slab_structure("tw8_n3")
    seed = bd.select_seed(s)
    assert seed.pair in ((0, 1), (0, 2), (1, 2))
    assert seed.margin > cy.TAMING_THRESHOLD and seed.lam.min() > 0.0
    mag, near = _tau_peaks(s, seed)
    assert seed.basepoint == np.unravel_index(near[0], s.chart.shape)
    assert 0.0 < seed.epsilon1 < seed.scale_c * mag[seed.basepoint]


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


@pytest.fixture(scope="module")
def tw12_seed(s_tw12):
    return bd.select_seed(s_tw12)


def _witness(s, seed, R=8.0):
    """(report JSON, phi_R, witness density) of one boundary run, on a copy of
    the seed so that its grid F is rebuilt too."""
    seed = dataclasses.replace(seed)
    phi_R, report = bd.boundary_potential(s, seed, R)
    density = bd.witness_density(s, report)
    return json.dumps(report.as_dict()), phi_R.values, density


@pytest.mark.parametrize("chunk", [1000, 4096, 10**6])
def test_boundary_witness_is_bitwise_the_same_in_any_batches(monkeypatch, s_tw12, tw12_seed, chunk):
    """Scan geometry, seed grid F and witness density built in batches of
    1,000, of 4,096 (a ragged last batch) or of all the points give the
    report, phi_R and the density of the default batches byte for byte."""
    want = _witness(s_tw12, tw12_seed)
    monkeypatch.setattr(bd, "SCAN_CHUNK", chunk)
    got = _witness(s_tw12, tw12_seed)
    assert got[0] == want[0]
    assert_same_bytes(got[1], want[1])
    assert_same_bytes(got[2], want[2])


def test_scan_geometry_holds_no_geometry_and_under_1kb_per_point(monkeypatch, s_tw12, tw12_seed):
    """The scan geometry keeps only per-point arrays, 384 bytes per point at
    n = 2 (tau_12 of phi and psi, complex; B_phi and B_psi, 6 reals each;
    base and delta, 16 reals each), and no LocalGeometry, also across
    batches."""
    bump = bd._seed_bump(s_tw12, tw12_seed, 8.0)
    w = bd._scan_lattice(bump, 8.0, np.random.default_rng(7))[:2500]
    monkeypatch.setattr(bd, "SCAN_CHUNK", 1000)
    geo = bd._ScanGeometry(s_tw12, tw12_seed, bump, bump.chart_to_torus(w))
    held = [v for v in vars(geo).values() if isinstance(v, np.ndarray)]
    assert not any(isinstance(v, fr.LocalGeometry) for v in vars(geo).values())
    assert held and all(v.shape[-1] == len(w) for v in held)
    assert sum(v.nbytes for v in held) == 384 * len(w)


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


def test_scan_geometry_reads_tau_on_the_seed_pair():
    """At n = 3 the scan geometry's tau of the seed and of the bump is
    tau_at in the seed-rotated frame on the seed's pair, here (1, 2)."""
    s = slab_structure("tw8_n3")
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    p0_idx = (3,) * 6
    seed = bd.SeedPotential(
        potential=None,
        epsilon1=0.0,
        basepoint=p0_idx,
        lam=np.array([0.9, 1.0, 1.1]),
        candidate=default_candidates(3)[0],
        scale_c=0.05,
        pair=(1, 2),
        p0=s.chart.index_to_point(p0_idx),
        U=U,
        chart_scale=0.05,
    )
    bump = bd._seed_bump(s, seed, 8.0)
    pts = bump.chart_to_torus(rng.uniform(-1.0, 1.0, size=(300, 6)) / 64)
    geo = bd._ScanGeometry(s, seed, bump, pts)
    lg = fr.LocalGeometry(s, pts, U)
    Bphi = fr.deformation_at(lg.J, lg.dJ, seed.analytic_grad(pts), seed.analytic_hess(pts))
    _, gpsi, hpsi = bump.torus_eval(pts)
    Bpsi = fr.deformation_at(lg.J, lg.dJ, gpsi, hpsi)
    assert_same_bytes(geo.tau_phi, fr.tau_at(Bphi, lg.e)[1, 2])
    assert_same_bytes(geo.tau_psi, fr.tau_at(Bpsi, lg.e)[1, 2])
    assert np.abs(geo.tau_psi).max() > 0.0


@pytest.mark.parametrize(
    "case, lattice_points",
    [("sin_x1_cos_y2", 100), ("sin_x1", 10), ("standard", 1)],
)
def test_lattice_geometry_matches_per_point_geometry(case, lattice_points):
    """_seed_grid_F broadcasts J and dJ of build_frame's broadcast-reduced
    lattice geometry against the grid; it matches a LocalGeometry evaluated
    at every grid point."""
    if case == "standard":
        s = make_standard([10] * 4)
        seed = _flat_seed(s)
    else:
        s = make_twisted([10] * 4, profile=case)
        seed = bd.select_seed(s)
    F = bd._seed_grid_F(s, seed)
    lattice = fr.build_frame(s)
    assert lattice.points.shape[:-1] == s.bshape
    assert np.prod(s.bshape) == lattice_points

    pts = s.chart.grid_points().reshape(-1, 4)
    lg = fr.LocalGeometry(s, pts)
    B = fr.deformation_at(lg.J, lg.dJ, seed.analytic_grad(pts), seed.analytic_hess(pts))
    assert np.abs(F - cy._F_of(s, B)).max() < 1e-10


def test_lattice_J_is_evaluated_once_per_structure(monkeypatch):
    """select_seed, boundary_potential and nijenhuis_max_norm on one
    twisted 10^4 structure run J_at on J's lattice once, and the seed's
    grid F reads J and dJ of the geometry build_frame returns."""
    s = make_twisted([10] * 4)
    lattice_shape = s.bshape + (s.chart.dim,)
    J_at, lattice_calls = s._J_at, []

    def counted(points):
        if points.shape == lattice_shape:
            lattice_calls.append(points)
        return J_at(points)

    s._J_at = counted
    seed = bd.select_seed(s)
    bd.boundary_potential(s, seed, 8.0)
    fr.nijenhuis_max_norm(s)
    assert len(lattice_calls) == 1

    lattice = fr.build_frame(s)
    reads = []

    def spy(J, dJ, grad, hess):
        reads.append(np.shares_memory(J, lattice.J) and np.shares_memory(dJ, lattice.dJ))
        return fr.deformation_at(J, dJ, grad, hess)

    monkeypatch.setattr(bd, "deformation_at", spy)
    bd._seed_grid_F(s, dataclasses.replace(seed, scale_c=0.5 * seed.scale_c))
    assert reads and all(reads)
    assert len(lattice_calls) == 1


@pytest.mark.parametrize("profile", ["sin_x1_cos_y2", "sin_x1"])
def test_witness_density_is_the_scan_geometry_F(profile):
    """The report's F(phi_R), the seed's grid F with the near set's scan
    values written in, is F(phi + a psi_R) of the seed-rotated geometry at
    every grid point, at the report's amplitude."""
    s = make_twisted([10] * 4, profile=profile)
    seed = bd.select_seed(s)
    R = 8.0
    _, report = bd.boundary_potential(s, seed, R)
    pts = s.chart.grid_points().reshape(-1, 4)
    geo = bd._ScanGeometry(s, seed, bd._seed_bump(s, seed, R), pts)
    density = geo.F(report.amplitude).reshape(s.chart.shape)
    density = density / forms.integrate(s, density)
    assert np.abs(bd.witness_density(s, report) - density).max() < 1e-10


def test_seed_grid_F_follows_each_new_seed():
    """Seeds built and dropped one after another, so that a new seed can
    reuse a freed one's id, each get the grid F of their own scale."""
    s = make_twisted([10] * 4)
    pts = s.chart.grid_points().reshape(-1, 4)
    lg = fr.LocalGeometry(s, pts)
    base = _flat_seed(s)
    for scale in np.linspace(0.01, 0.1, 20):
        seed = dataclasses.replace(base, scale_c=scale)
        B = fr.deformation_at(lg.J, lg.dJ, seed.analytic_grad(pts), seed.analytic_hess(pts))
        assert np.abs(bd._seed_grid_F(s, seed) - cy._F_of(s, B)).max() < 1e-10
        del seed
