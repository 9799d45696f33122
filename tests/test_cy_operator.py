import collections
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akcy import boundary as bd
from akcy import cy_operator as cy
from akcy import forms
from akcy import potentials
from akcy.errors import AmplitudeError, ConsistencyError, NumericalError, PreconditionError
from akcy.frame import LocalGeometry, build_frame, deformation_at, hermitian_at, tau_at

import grid_frame as gf
from conftest import (REDUCTION_GRIDS, REDUCTION_ROWS, SLAB_GRIDS, SLAB_ROWS, assert_same_bytes,
                      grouped_slabs, make_standard, make_twisted, set_slab_rows,
                      slab_structure, unblocked_deformation_form)

# CPU counts the slab-structure checks run under: the serial loop and two
# row groups.
CPU_COUNTS = (1, 2)


def sample_potential(s, rng, amp=0.01):
    pot = potentials.random_potential(s.half_dim, rng)
    return amp * pot.sample(s.chart)


def _count_calls(monkeypatch, name, record=lambda *args: None):
    """Wrap a function of cy_operator; returns the list of record(*args)."""
    calls = []
    fn = getattr(cy, name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return fn(*args, **kwargs)

    monkeypatch.setattr(cy, name, counted)
    return calls


def test_F_of_zero_is_one(s_std12, s_tw12):
    for s in (s_std12, s_tw12):
        F = cy.F_total(s, np.zeros(s.chart.shape))
        assert np.abs(F - 1.0).max() < 1e-12


def test_margin_of_zero_standard_is_one(s_std12):
    assert cy.taming_margin(s_std12, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_h_of_zero_equals_metric(s_tw12):
    h = cy.h_matrix(s_tw12.J, (forms.omega_form(s_tw12)
                               + cy.deformation_form(s_tw12, np.zeros(s_tw12.chart.shape))).comps)
    g = np.broadcast_to(s_tw12.g, h.shape)
    assert np.array_equal(h, g)


@pytest.mark.parametrize("rows", SLAB_ROWS)
@pytest.mark.parametrize("grid", SLAB_GRIDS)
def test_deformation_form_slabs_are_bitwise_the_unblocked_composition(monkeypatch, grid, rows):
    """d(J dphi) slab by slab equals d_scalar -> apply_J_oneform ->
    exterior_derivative on the whole grid byte for byte, also for inputs
    with size-1 axes (0.0, a field constant along some axes)."""
    s = slab_structure(grid)
    shape = s.chart.shape
    set_slab_rows(monkeypatch, shape, rows)
    phi = 0.01 * np.random.default_rng(7).standard_normal(shape)
    for u in (phi, 0.0, phi[(slice(None), slice(0, 1)) * (len(shape) // 2)],
              phi[:1]):
        assert_same_bytes(cy.deformation_form(s, u).comps,
                          unblocked_deformation_form(s, u).comps)


@pytest.mark.parametrize("rows", REDUCTION_ROWS)
@pytest.mark.parametrize("grid", REDUCTION_GRIDS)
def test_slab_margin_and_F_are_bitwise_the_whole_grid_composition(monkeypatch, grid, rows):
    """taming_margin and F_total with its F_j, reduced slab by slab, equal
    the whole-grid h, its eigenvalue sweep, the top power and the component
    path on the unblocked d(J dphi) byte for byte; the eigenvalue sweeps
    still see every grid point once, one sweep per slab, on one CPU and in
    two row groups."""
    s = slab_structure(grid)
    shape = s.chart.shape
    set_slab_rows(monkeypatch, shape, rows)
    phi = 1e-3 * np.random.default_rng(3).standard_normal(shape)
    B = unblocked_deformation_form(s, phi)
    margin, _ = cy.min_eigenvalue_field(cy.h_matrix(s.J, B.comps) + s.g)
    direct = cy._F_of(s, B.comps)
    comps = cy._F_components(s, s.J, B.comps)

    points = []
    sweep = cy.min_eigenvalue_field

    def counted(M, **kwargs):
        points.append(int(np.prod(M.shape[2:])))
        return sweep(M, **kwargs)

    monkeypatch.setattr(cy, "min_eigenvalue_field", counted)
    for workers in CPU_COUNTS:
        monkeypatch.setattr(cy, "_cpus", lambda: workers)
        points.clear()
        assert cy.taming_margin(s, phi) == margin
        assert sum(points) == int(np.prod(shape))
        slabs = grouped_slabs(shape, workers)
        assert len(points) == len(slabs)
        assert sorted(points) == sorted((b - a) * int(np.prod(shape[1:])) for a, b in slabs)
        if workers == 1:
            assert len(slabs) == -(-shape[0] // min(rows, shape[0]))
        F, Fj = cy.F_total(s, phi, return_components=True)
        assert_same_bytes(F, direct)
        assert len(Fj) == len(comps)
        for got, want in zip(Fj, comps):
            assert_same_bytes(got, want)
        report = cy.analyze_potential(s, phi, compute_amplitude=False)
        assert report.margin == margin
        assert_same_bytes(report.F, direct)


@pytest.mark.parametrize("rows", REDUCTION_ROWS)
@pytest.mark.parametrize("grid", REDUCTION_GRIDS)
def test_running_minimum_margin_needs_no_more_eigvalsh_calls(monkeypatch, grid, rows):
    """The taming margin, each slab's sweep limited by the slabs before it
    in its row group, equals the whole-grid sweep bitwise and makes no more
    eigvalsh calls than independent sweeps of the same slabs, on one CPU
    and in two row groups; the noise whose size grows along axis 0 puts
    the least margins in the later slabs."""
    s = slab_structure(grid)
    shape = s.chart.shape
    set_slab_rows(monkeypatch, shape, rows)
    noise = 1e-3 * np.random.default_rng(3).standard_normal(shape)
    ramp = np.linspace(1.0, 3.0, shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
    smooth = 0.02 * potentials.default_candidates(s.half_dim)[0].value(s.chart.grid_points())
    for workers in CPU_COUNTS:
        monkeypatch.setattr(cy, "_cpus", lambda: workers)
        for phi in (noise, ramp * noise, smooth):
            B = unblocked_deformation_form(s, phi)
            whole, _ = cy.min_eigenvalue_field(cy.h_matrix(s.J, B.comps) + s.g)
            calls = []
            eigvalsh = np.linalg.eigvalsh
            monkeypatch.setattr(np.linalg, "eigvalsh",
                                lambda M: calls.append(len(M)) or eigvalsh(M))
            independent = min(
                cy.min_eigenvalue_field(cy.h_matrix(cy._rows(s.J, 2, a, b), B.comps[:, a:b])
                                        + cy._rows(s.g, 2, a, b))[0]
                for a, b in grouped_slabs(shape, workers)
            )
            before = len(calls)
            calls.clear()
            margin = cy._margin_of(s, B)
            monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
            assert margin == whole == independent
            assert len(calls) <= before


def test_one_slabs_component_defect_raises(monkeypatch):
    """A defect in the component path of one slab only, far from the first,
    fails the grid-wide consistency check."""
    s = slab_structure("tw8")
    set_slab_rows(monkeypatch, s.chart.shape, 1)
    phi = 1e-3 * np.random.default_rng(3).standard_normal(s.chart.shape)
    cy.F_total(s, phi)
    components = cy._F_components
    calls = []

    def perturbed(s, J, B):
        out = components(s, J, B)
        calls.append(1)
        if len(calls) == 6:
            out[0].flat[17] += 1e-8
        return out

    monkeypatch.setattr(cy, "_F_components", perturbed)
    with pytest.raises(ConsistencyError, match="disagree by 1.000e-08"):
        cy.F_total(s, phi)
    assert len(calls) == 8


def test_deformed_form_is_closed(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    w = cy.deformation_form(s_tw12, phi)
    assert forms.exterior_derivative(w).max_abs() < 1e-11


def test_decomposition_sums_to_top_ratio(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    direct, comps = cy.F_total(s_tw12, phi, return_components=True)
    total = sum(comps)
    scale = np.abs(direct).max()
    assert np.abs(total - direct).max() <= 1e-10 * max(scale, 1.0)


def _pointwise_deformation(s, rng, m=200, amp=1e-3):
    """(LocalGeometry at m random points, pair components of d(J dphi) of a
    random potential there)."""
    pts = rng.uniform(size=(m, s.chart.dim))
    pot = potentials.random_potential(s.half_dim, rng)
    lg = LocalGeometry(s, pts)
    return lg, deformation_at(lg.J, lg.dJ, amp * pot.grad(pts), amp * pot.hess(pts))


def test_top_power_F_at_points_is_the_n2_frame_identity(s_tw12, rng):
    """At n = 2 the top power of omega + B at off-grid points equals
    det(M) + |tau_12|^2, M the Hermitian frame matrix of the (1,1) part.
    A batch of another shape gives F of that shape, bitwise the same."""
    lg, B = _pointwise_deformation(s_tw12, rng)
    M = hermitian_at(B, lg.e)
    tau12 = tau_at(B, lg.e)[0, 1]
    expected = (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]).real + np.abs(tau12) ** 2
    F = cy._F_of(s_tw12, B)
    assert F.shape == (200,)
    assert np.abs(F - expected).max() < 1e-12
    assert_same_bytes(cy._F_of(s_tw12, B.reshape(6, 8, 25)), F.reshape(8, 25))


def test_top_power_F_at_points_is_the_pfaffian_at_n3(rng):
    """At n = 3 the top power of omega + B at off-grid points equals the
    Pfaffian of the matrix Omega + B, here sqrt(det) since F > 0."""
    s = make_twisted([8] * 6)
    _, B = _pointwise_deformation(s, rng, amp=2e-4)
    A = np.zeros((6, 6) + B.shape[1:])
    for p, (i, j) in enumerate(forms.multi_indices(6, 2)):
        A[i, j], A[j, i] = B[p], -B[p]
    for a in range(3):
        A[2 * a, 2 * a + 1] += 1.0
        A[2 * a + 1, 2 * a] -= 1.0
    F = cy._F_of(s, B)
    assert F.shape == (200,) and F.min() > 0.5
    assert np.abs(F - np.sqrt(np.linalg.det(np.moveaxis(A, -1, 0)))).max() < 1e-12


def test_F1_is_nonnegative_at_n2(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    comps = cy.F_components(s_tw12, phi)
    assert comps[1].min() >= 0.0


def _two_form(s, comps):
    return forms.FormField(s.chart, 2, comps)


@pytest.mark.parametrize("grid", ["tw12", "tw8_n3"])
def test_each_F_j_is_the_tau_taubar_identity(grid):
    """Each F_j, read off the anti-invariant part Bm alone, equals
    c_j (tau^taubar)^j ^ H^(n-2j) / omega^n with tau^taubar =
    (Bm^Bm + mixed^mixed)/4, mixed = (J^T Bm + Bm J)/2 the J-rotated
    partner of Bm (grid_frame's reference loops), for every default
    candidate, to 0.1 eps of max |F| (at most 0.006 eps measured at n = 2,
    0.004 at n = 3).  Each candidate is cut along its exactly constant axes,
    as select_seed does, so the n = 3 case runs on at most 8^3 points."""
    s = slab_structure(grid)
    n, chart = s.half_dim, s.chart
    eps = np.finfo(float).eps
    X = chart.grid_points()
    for cand in potentials.default_candidates(n):
        B = cy.deformation_form(s, 0.05 * bd._constant_axes_cut(cand.value(X))).comps
        parts = cy._F_components(s, s.J, B)
        scale = np.abs(cy._F_of(s, B)).max()
        P11, Bm = forms.bidegree_parts(s.J, B, chart.dim)
        mixed = _two_form(s, 0.5 * gf.reference_j_anticommutator(s.J, Bm, chart.dim))
        ttbar = 0.25 * (forms.wedge(_two_form(s, Bm), _two_form(s, Bm))
                        + forms.wedge(mixed, mixed))
        H = _two_form(s, P11 + forms.omega_form(s).comps)
        assert len(parts) == n // 2 + 1
        for j, Fj in enumerate(parts):
            cj = math.factorial(n) / (math.factorial(j) ** 2 * math.factorial(n - 2 * j))
            top = None
            if j > 0:
                top = cy._wedge_power(ttbar, j)
            if n - 2 * j > 0:
                Hp = cy._wedge_power(H, n - 2 * j)
                top = Hp if top is None else forms.wedge(top, Hp)
            want = cj * forms.top_ratio(s, top)
            assert np.abs(Fj - want).max() <= 0.1 * eps * scale, (cand.name, j)


def test_conservation_integral(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    F = cy.F_total(s_tw12, phi)
    assert abs(forms.integrate(s_tw12, F) - 1.0) < 1e-12


def test_amplitude_scaling_covariance(s_tw12, rng):
    """The positivity pencil is affine, so amplitude(c phi) = amplitude(phi)/c."""
    phi = sample_potential(s_tw12, rng, amp=0.05)
    a1 = cy.positivity_amplitude(s_tw12, phi)
    a2 = cy.positivity_amplitude(s_tw12, 2.0 * phi)
    assert a1 / a2 == pytest.approx(2.0, rel=1e-8)


def test_margin_vanishes_at_amplitude(s_tw12, rng):
    phi = sample_potential(s_tw12, rng, amp=0.05)
    a = cy.positivity_amplitude(s_tw12, phi)
    assert abs(cy.taming_margin(s_tw12, a * phi)) < 1e-7
    assert cy.taming_margin(s_tw12, 0.9 * a * phi) > 0.0


def test_tau_vanishes_on_J_invariant_pairs(s_tw12, rng):
    """tau is a (2,0)-form: tau(X, JX) = i tau(X, X) = 0."""
    phi = sample_potential(s_tw12, rng)
    tau = gf.bidegree_projections(s_tw12, cy.deformation_form(s_tw12, phi).comps)[0]
    T = gf.pair_matrix(tau, s_tw12.chart.dim)
    X = rng.standard_normal(4)
    JX = np.einsum("kl...,l->k...", s_tw12.J, X)
    val = np.einsum("k,kl...,l...->...", X, T, JX) - 1j * np.einsum(
        "k,kl...,l->...", X, T, X
    )
    assert np.abs(val).max() < 1e-12


def test_H_part_at_zero_is_identity(s_tw12):
    M = hermitian_at(np.zeros((6, 1, 1, 1, 1)), build_frame(s_tw12).e)
    eye = np.eye(2).reshape(2, 2, 1, 1, 1, 1)
    assert np.abs(M - eye).max() < 1e-12


def test_project_zero_mean(s_tw12, rng):
    phi = sample_potential(s_tw12, rng) + 0.37
    pot = cy.project_zero_mean(s_tw12, phi)
    assert abs(forms.integrate(s_tw12, pot.values)) < 1e-13


def test_analyze_potential_report_schema(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    report = cy.analyze_potential(s_tw12, phi)
    d = report.as_dict()
    assert set(d) == {"F_min", "F_max", "F_integral", "margin", "amplitude", "components"}
    assert d["F_integral"] == pytest.approx(1.0, abs=1e-12)
    assert [c["j"] for c in d["components"]] == [0, 1]


AMPLITUDE_STRUCTURES = {
    "tw12": lambda: make_twisted([12] * 4),
    "tw13": lambda: make_twisted([13] * 4),
    "std12": lambda: make_standard([12] * 4),
    "tw8_n3": lambda: make_twisted([8] * 6),
}


@pytest.mark.parametrize("kind", ["candidate", "noise"])
@pytest.mark.parametrize("name", list(AMPLITUDE_STRUCTURES))
def test_analyze_amplitude_is_bitwise_the_standalone_functions(monkeypatch, name, kind):
    """With the amplitude, analyze_potential reads the margin off the one
    Delta it builds, and margin and amplitude are bitwise those of
    taming_margin and positivity_amplitude; h is contracted once on the
    grid and the slab margin never runs."""
    s = AMPLITUDE_STRUCTURES[name]()
    if kind == "candidate":
        phi = 0.5 * potentials.default_candidates(s.half_dim)[0].value(s.chart.grid_points())
    else:
        phi = 1e-2 * np.random.default_rng(11).standard_normal(s.chart.shape)
    margin, amplitude = cy.taming_margin(s, phi), cy.positivity_amplitude(s, phi)
    contractions = _count_calls(monkeypatch, "h_matrix")
    slab_margins = _count_calls(monkeypatch, "_margin_of")
    report = cy.analyze_potential(s, phi)
    assert report.margin == margin
    assert report.amplitude == amplitude
    assert len(contractions) == 1 and slab_margins == []


@pytest.mark.parametrize("value", [0.0, 0.37])
def test_analyze_constant_potential_takes_the_slab_margin(monkeypatch, s_tw12, value):
    """A constant potential has no amplitude: analyze_potential checks that
    first and takes the slab margin, never building a grid-size h, on one
    CPU (three slabs) and in two row groups."""
    shape = s_tw12.chart.shape
    phi = np.full(shape, value)
    for workers in CPU_COUNTS:
        set_slab_rows(monkeypatch, shape, 5)
        monkeypatch.setattr(cy, "_cpus", lambda: workers)
        shapes = _count_calls(monkeypatch, "h_matrix", lambda J, comps: comps.shape[1:])
        report = cy.analyze_potential(s_tw12, phi)
        slabs = grouped_slabs(shape, workers)
        monkeypatch.undo()
        assert report.amplitude is None
        assert report.margin == cy.taming_margin(s_tw12, phi)
        assert len(shapes) == len(slabs) and shape not in shapes
        assert len(slabs) == (3 if workers == 1 else 6)


def test_amplitude_rejects_constant_direction(s_tw12):
    with pytest.raises(PreconditionError):
        cy.positivity_amplitude(s_tw12, np.zeros(s_tw12.chart.shape))


def _diagonal_pencil(npts=64):
    """base = diag(b) > 0 and delta = diag(d) per point, matrix axes first."""
    rng = np.random.default_rng(5)
    b = rng.uniform(0.5, 2.0, size=(4, npts))
    d = rng.uniform(-1.0, 1.0, size=(4, npts))
    eye = np.eye(4)[:, :, None]
    return b, d, eye * b[None], eye * d[None]


def test_pencil_amplitude_diagonal_closed_form():
    b, d, base, delta = _diagonal_pencil()
    neg = d < 0.0
    expected = float((b[neg] / -d[neg]).min())
    assert cy.pencil_amplitude(base, delta) == pytest.approx(expected, rel=1e-14)


def test_pencil_amplitude_rejects_semidefinite_direction():
    _, d, base, _ = _diagonal_pencil()
    delta = np.eye(4)[:, :, None] * np.maximum(d, 0.0)[None]
    with pytest.raises(AmplitudeError):
        cy.pencil_amplitude(base, delta)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_pencil_amplitude_certificate_catches_wrong_scale(monkeypatch, factor):
    _, _, base, delta = _diagonal_pencil()
    exact = cy._pencil_critical_scale
    monkeypatch.setattr(cy, "_pencil_critical_scale", lambda g, D: factor * exact(g, D))
    with pytest.raises(ConsistencyError):
        cy.pencil_amplitude(base, delta)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_failed_certificate_reports_both_sweep_minima(monkeypatch, factor):
    """A wrong scale fails the certificate only after the full sweep above
    has run, so the message gives the minima of the full sweeps on both
    sides, not the value at the one point read first."""
    _, _, base, delta = _diagonal_pencil()
    a = factor * cy._pencil_critical_scale(base, delta)
    t_below, t_above = a * (1.0 - cy.AMPLITUDE_RTOL), a * (1.0 + cy.AMPLITUDE_RTOL)
    below = cy.min_eigenvalue_field(delta, t_below, base)[0]
    above = cy.min_eigenvalue_field(delta, t_above, base)[0]
    monkeypatch.setattr(cy, "_pencil_critical_scale", lambda g, D: a)
    sweeps = _count_calls(monkeypatch, "min_eigenvalue_field", lambda M, t, base: t)
    with pytest.raises(ConsistencyError, match=f"{below:.3e} just below, {above:.3e} just above"):
        cy.pencil_amplitude(base, delta)
    assert sweeps == [t_below, t_above]


def test_pencil_amplitude_certifies_above_at_one_point(monkeypatch):
    """On an ordinary pencil the only full sweep is the one just below the
    critical scale; the one just above is read at that sweep's argmin."""
    _, _, base, delta = _diagonal_pencil()
    expected = cy.pencil_amplitude(base, delta)
    sweeps = _count_calls(monkeypatch, "min_eigenvalue_field")
    assert cy.pencil_amplitude(base, delta) == expected
    assert len(sweeps) == 1


def test_pencil_amplitude_falls_back_to_the_full_sweep(monkeypatch):
    """Two points whose critical scales differ by 2e-9: p (b = 1, d = -1)
    sets the amplitude 1, but q, with the least margin just below it, is
    still positive just above it.  The point read does not decide, so the
    full sweep above runs and finds p."""
    b = np.array([1.0, 0.1])
    d = np.array([-1.0, -0.1 / (1.0 + 2e-9)])
    eye = np.eye(2)[:, :, None]
    base, delta = eye * b, eye * d
    t_below, t_above = 1.0 - cy.AMPLITUDE_RTOL, 1.0 + cy.AMPLITUDE_RTOL
    assert cy.min_eigenvalue_field(delta, t_below, base)[1] == 1
    assert (b + t_above * d)[1] > 0.0
    sweeps = _count_calls(monkeypatch, "min_eigenvalue_field", lambda M, t, base: t)
    assert cy.pencil_amplitude(base, delta) == 1.0
    assert sweeps == [t_below, t_above]


def _pencil_scale_full_copy(g, delta, chunk):
    """Reference pencil scale with the metric copied to the full grid and
    flat chunks of `chunk` points: per point W = L^-1 of g = L L^T, the
    symmetrised W delta W^T and its least eigenvalue by eigvalsh."""
    k = delta.shape[0]
    gflat = np.broadcast_to(g, delta.shape).reshape(k, k, -1)
    dflat = delta.reshape(k, k, -1)
    best = np.inf
    for start in range(0, dflat.shape[-1], chunk):
        G = np.ascontiguousarray(np.moveaxis(gflat[..., start : start + chunk], -1, 0))
        D = np.ascontiguousarray(np.moveaxis(dflat[..., start : start + chunk], -1, 0))
        W = np.linalg.inv(np.linalg.cholesky(G))
        K = W @ D @ np.swapaxes(W, -1, -2)
        lam = np.linalg.eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2)))[:, 0]
        if np.any(lam < 0.0):
            best = min(best, float((-1.0 / lam[lam < 0.0]).min()))
    return best


def _pencil_scale_cholesky_solve(g, delta):
    """Independent reference: per point the Cholesky factor L of g, two
    triangular-by-LU solves for L^-1 delta L^-T, and eigvalsh."""
    k = delta.shape[0]
    G = np.moveaxis(np.broadcast_to(g, delta.shape).reshape(k, k, -1), -1, 0)
    D = np.moveaxis(delta.reshape(k, k, -1), -1, 0)
    L = np.linalg.cholesky(G)
    A = np.linalg.solve(L, D)
    K = np.linalg.solve(L, np.swapaxes(A, -1, -2))
    lam = np.linalg.eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2)))[:, 0]
    return float(-1.0 / lam.min()) if lam.min() < 0.0 else np.inf


@pytest.mark.parametrize("chunk", [1 << 18, 1000])
def test_pencil_scale_of_broadcast_metric_is_bitwise_unchanged(monkeypatch, s_tw12, rng, chunk):
    """Chunking along the leading grid axis (one 12^3 slab per chunk when the
    chunk is small) leaves every per-point reduction and the minimum as they
    were with the metric copied to grid size."""
    assert s_tw12.g.shape[2:] == (12, 1, 1, 12)
    delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, sample_potential(s_tw12, rng)).comps)
    expected = _pencil_scale_full_copy(s_tw12.g, delta, chunk)
    monkeypatch.setattr(cy, "SLAB_POINTS", chunk)
    assert cy._pencil_critical_scale(s_tw12.g, delta) == expected
    assert np.isfinite(expected)


def test_pencil_bound_reads_the_lattice_metric_exactly(monkeypatch, s_tw12, rng):
    """With the metric on J's lattice the pencil bound's denominator is g's
    exact smallest eigenvalue, so fewer points reach the whitened kernel
    than with the same metric copied to grid size, where the Gershgorin
    bound of g is kept; the critical scale is the same."""
    delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, sample_potential(s_tw12, rng)).comps)
    points = []
    kernel = cy._whitened_min_eigenvalue

    def counted(G, W, D):
        points.append(D.shape[0])
        return kernel(G, W, D)

    monkeypatch.setattr(cy, "_whitened_min_eigenvalue", counted)
    lattice = cy._pencil_critical_scale(s_tw12.g, delta)
    on_lattice, points[:] = sum(points), []
    full = cy._pencil_critical_scale(np.broadcast_to(s_tw12.g, delta.shape).copy(), delta)
    assert lattice == full
    assert 0 < on_lattice < sum(points)


# Measured drift of the whitened kernel from the Cholesky-solve reference:
# at most 3.7 eps relative over random and candidate potentials at twisted
# 12^4, 13^4 and 14^4, and 6.1 eps over random 4x4 and 6x6 fields with a
# per-point base.  The bound leaves a factor of ten.
WHITENED_DRIFT_RTOL = 64 * np.finfo(float).eps


def test_pencil_scale_agrees_with_the_cholesky_solve_reference(s_tw12):
    """The whitener formed once on g's points and the matrix-product kernel
    give the critical scale of per-point Cholesky factors and solves, for
    the lattice metric, a per-point base as on the scan set, and random
    4x4 and 6x6 fields."""
    rng = np.random.default_rng(29)
    cases = []
    for amp in (0.01, 0.05):
        phi = sample_potential(s_tw12, rng, amp=amp)
        delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, phi).comps)
        half = 0.5 * _pencil_scale_cholesky_solve(s_tw12.g, delta)
        cases += [(s_tw12.g, delta), (s_tw12.g + half * delta, delta[:, :, ::-1])]
    for k in (4, 6):
        cases.append((_symmetric_field(rng, k, (3, 200), diag=2.0 * k),
                      _symmetric_field(rng, k, (3, 200), diag=0.0)))
    for g, delta in cases:
        want = _pencil_scale_cholesky_solve(g, delta)
        assert np.isfinite(want)
        assert abs(cy._pencil_critical_scale(g, delta) - want) <= WHITENED_DRIFT_RTOL * want


def test_pencil_whitens_on_the_metric_lattice_and_prunes_eigvalsh(monkeypatch, s_tw12, rng):
    """At twisted 12^4 the Cholesky factors only g's own points (J's 12x1x1x12
    lattice), and the whitened Gershgorin bound keeps eigvalsh off some of
    the points that reach the kernel."""
    delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, sample_potential(s_tw12, rng)).comps)
    factored = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factored.append(int(np.prod(np.shape(a)[:-2])))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    kernel = _count_calls(monkeypatch, "_whitened_min_eigenvalue", lambda G, W, D: len(D))
    eigvalsh = _count_calls(monkeypatch, "_min_eigenvalue", len)
    assert np.isfinite(cy._pencil_critical_scale(s_tw12.g, delta))
    assert 0 < sum(factored) <= s_tw12.g[0, 0].size == 144
    assert 0 < sum(eigvalsh) < sum(kernel)


@pytest.mark.parametrize("chunk", [1000, 7])
def test_min_eigenvalue_blocks_leave_min_and_argmin_unchanged(monkeypatch, s_tw12, rng, chunk):
    """Small point blocks give the minimum and flat argmin of one unblocked
    eigvalsh, on a grid field, a non-contiguous slice of it and a point list."""
    phi = sample_potential(s_tw12, rng, amp=1.0)
    h = cy.h_matrix(s_tw12.J, (forms.omega_form(s_tw12) + cy.deformation_form(s_tw12, phi)).comps)
    scan = h.reshape(4, 4, -1)[:, :, ::3]
    monkeypatch.setattr(cy, "SLAB_POINTS", chunk)
    for M in (h, h[:, :, :, ::2], scan):
        assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)


@pytest.mark.parametrize("chunk", [1 << 16, 1000, 7])
def test_pencil_sweep_is_bitwise_the_materialised_pencil(monkeypatch, s_tw12, rng, chunk):
    """min_eigenvalue_field(M, t, base, limit), which forms t*M + base block
    by block, gives the value and first argmin of one unblocked sweep of the
    materialised t*M + base, for the broadcast metric, a full base and a
    point list, at scales on both sides of the critical one."""
    phi = sample_potential(s_tw12, rng, amp=0.05)
    delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, phi).comps)
    full = s_tw12.g + 0.5 * delta[:, :, ::-1]
    a = cy.pencil_amplitude(s_tw12.g, delta)
    monkeypatch.setattr(cy, "SLAB_POINTS", chunk)
    for M, base in ((delta, s_tw12.g), (delta, full),
                    (delta.reshape(4, 4, -1)[:, :, ::5], full.reshape(4, 4, -1)[:, :, ::5])):
        for t in (0.0, 0.5 * a, a * (1.0 - 1e-9), a, 2.0 * a):
            want = _min_eigenvalue_reference(t * M + base)
            assert cy.min_eigenvalue_field(M, t, base) == want
            assert cy.min_eigenvalue_field(M, t, base, limit=want[0]) == want
            assert cy.min_eigenvalue_field(M, t, base, limit=want[0] - 1e-6)[0] > want[0] - 1e-6


def test_pencil_amplitude_builds_no_pencil_size_temporary(monkeypatch, s_tw12, rng):
    """The certifying sweeps of pencil_amplitude form base + t*delta block by
    block: on a grid of twelve slabs its allocation peak stays below half
    the size of delta (about a quarter), where one materialised pencil
    alone is all of it."""
    shape = s_tw12.chart.shape
    set_slab_rows(monkeypatch, shape, 1)
    phi = sample_potential(s_tw12, rng, amp=0.05)
    delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, phi).comps)
    assert len(cy._row_slabs(shape)) == 12 and delta.shape[2:] == shape
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        cy.pencil_amplitude(s_tw12.g, delta)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * delta.nbytes


def test_h_matrix_allocates_its_output_and_one_product():
    """At twisted 16^4, h_matrix holds at most its output, one grid-size
    product buffer and small change: lattice-size coefficients (J's lattice
    is 16*1*1*16 points) and numpy's 64 KiB ufunc buffer for the broadcast
    products.  A second h-size array or grid-size product does not fit."""
    s = make_twisted([16] * 4)
    comps = cy.deformation_form(s, sample_potential(s, np.random.default_rng(5))).comps
    grid_bytes = comps[0].nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        h = cy.h_matrix(s.J, comps)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert h.nbytes == 16 * grid_bytes
    assert peak <= h.nbytes + grid_bytes + 128 * 1024


def _min_eigenvalue_reference(M):
    """(min, first flat argmin) of one eigvalsh over every point."""
    k = M.shape[0]
    ev = np.linalg.eigvalsh(np.moveaxis(M.reshape(k, k, -1), -1, 0))[:, 0]
    return float(ev.min()), int(np.argmin(ev))


def _symmetric_field(rng, k, grid, diag=3.0):
    """Random symmetric matrices with matrix axes first on a grid."""
    A = rng.standard_normal((k, k) + grid)
    return 0.5 * (A + np.swapaxes(A, 0, 1)) + diag * np.eye(k).reshape((k, k) + (1,) * len(grid))


def test_min_eigenvalue_of_constant_field_ties_at_index_zero(monkeypatch):
    """Every point ties, so every point stays a candidate and the first wins."""
    monkeypatch.setattr(cy, "SLAB_POINTS", 7)
    M = np.broadcast_to(_symmetric_field(np.random.default_rng(1), 4, (1, 1)), (4, 4, 3, 100))
    M = np.ascontiguousarray(M)
    assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
    assert cy.min_eigenvalue_field(M)[1] == 0


def test_min_eigenvalue_equal_minima_in_two_blocks_first_wins(monkeypatch):
    monkeypatch.setattr(cy, "SLAB_POINTS", 7)
    M = _symmetric_field(np.random.default_rng(2), 4, (5, 100))
    low = np.diag([-5.0, 2.0, 3.0, 4.0])
    M[:, :, 1, 30] = low
    M[:, :, 4, 70] = low
    value, idx = cy.min_eigenvalue_field(M)
    assert (value, idx) == _min_eigenvalue_reference(M)
    assert idx == 1 * 100 + 30


def test_min_eigenvalue_dense_off_diagonals_prune_nothing(monkeypatch):
    """(1 - c) I + c ones has lambda_min = 1 - c >= 0.7 but Gershgorin bound
    1 - 3c <= 0.4, below every point's value, so every point reaches eigvalsh."""
    monkeypatch.setattr(cy, "SLAB_POINTS", 7)
    c = np.random.default_rng(3).uniform(0.2, 0.3, size=(3, 100))
    M = (1.0 - c) * np.eye(4)[:, :, None, None] + c * np.ones((4, 4, 1, 1))
    seen = _count_calls(monkeypatch, "_min_eigenvalue", len)
    assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
    assert sum(seen) >= M[0, 0].size


def test_min_eigenvalue_limit_is_exact_at_or_above_the_minimum(monkeypatch):
    """On diagonal matrices, whose Gershgorin bound is the value itself, a
    limit at or above the minimum leaves min and argmin exact, and a limit
    below it lets no point reach eigvalsh."""
    monkeypatch.setattr(cy, "SLAB_POINTS", 100)
    d = np.random.default_rng(5).uniform(1.0, 2.0, size=(4, 3, 100))
    M = d[:, None] * np.eye(4)[:, :, None, None]
    want = _min_eigenvalue_reference(M)
    for limit in (np.inf, want[0] + 0.01, want[0]):
        assert cy.min_eigenvalue_field(M, limit=limit) == want
    seen = _count_calls(monkeypatch, "_min_eigenvalue", len)
    assert cy.min_eigenvalue_field(M, limit=want[0] - 1e-6) == (np.inf, 0)
    assert sum(seen) == 0


def test_min_eigenvalue_six_by_six_field(monkeypatch):
    monkeypatch.setattr(cy, "SLAB_POINTS", 200)
    M = _symmetric_field(np.random.default_rng(4), 6, (4, 6, 50), diag=6.0)
    seen = _count_calls(monkeypatch, "_min_eigenvalue", len)
    assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
    assert sum(seen) < M[0, 0].size


def test_pencil_scale_non_broadcast_base(monkeypatch):
    """A per-point base, as on the boundary scan set."""
    monkeypatch.setattr(cy, "SLAB_POINTS", 7)
    rng = np.random.default_rng(5)
    base = _symmetric_field(rng, 4, (3, 200), diag=4.0)
    delta = _symmetric_field(rng, 4, (3, 200), diag=0.0)
    expected = _pencil_scale_full_copy(base, delta, 7)
    assert cy._pencil_critical_scale(base, delta) == expected
    assert np.isfinite(expected)


def test_pencil_scale_metric_with_nonpositive_gershgorin_bound(monkeypatch):
    """(1 - c) I + c ones is positive definite for c < 1 but its Gershgorin
    bound 1 - 3c is <= 0 for c >= 1/3; those points are never pruned."""
    monkeypatch.setattr(cy, "SLAB_POINTS", 7)
    rng = np.random.default_rng(6)
    c = np.where(rng.uniform(size=(3, 100)) < 0.3, 0.5, 0.05)
    g = (1.0 - c) * np.eye(4)[:, :, None, None] + c * np.ones((4, 4, 1, 1))
    delta = _symmetric_field(rng, 4, (3, 100), diag=0.0)
    expected = _pencil_scale_full_copy(g, delta, 7)
    assert cy._pencil_critical_scale(g, delta) == expected
    assert np.isfinite(expected)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_nonfinite_entry_at_one_point_raises(monkeypatch, value, entry):
    """eigvalsh returns NaN (or finite values) for such a matrix instead of
    raising, so the sweeps check the entries themselves."""
    monkeypatch.setattr(cy, "SLAB_POINTS", 7)
    rng = np.random.default_rng(7)
    M = _symmetric_field(rng, 4, (3, 100), diag=8.0)
    M[entry + (2, 99)] = value
    with pytest.raises(NumericalError):
        cy.min_eigenvalue_field(M)
    with pytest.raises(NumericalError):
        cy._pencil_critical_scale(np.eye(4)[:, :, None, None], M)
    with pytest.raises(NumericalError):
        cy._pencil_critical_scale(M, _symmetric_field(rng, 4, (3, 100)))


def test_pencil_scale_metric_failing_cholesky_at_one_point_raises(monkeypatch):
    monkeypatch.setattr(cy, "SLAB_POINTS", 7)
    rng = np.random.default_rng(8)
    g = np.broadcast_to(np.eye(4)[:, :, None, None], (4, 4, 3, 100)).copy()
    g[:, :, 2, 99] = np.diag([1.0, 1.0, -1e-3, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        cy._pencil_critical_scale(g, _symmetric_field(rng, 4, (3, 100), diag=0.0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([4, 6]),
    rows=st.integers(1, 5),
    cols=st.integers(1, 150),
    pool=st.integers(1, 20),
    chunk=st.integers(1, 400),
)
def test_pruned_sweeps_equal_brute_force(seed, k, rows, cols, pool, chunk):
    """Fields drawn from a small pool of matrices (so minima tie across
    points and blocks) give the brute-force min, argmin and pencil scale.
    A drawn base need not be positive definite (seed 66583, k = 4, pool
    19 has a least eigenvalue of -1.39); then both raise LinAlgError."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(pool, size=(rows, cols))
    M = _symmetric_field(rng, k, (pool,), diag=rng.uniform(0.0, 4.0))[:, :, pick]
    base = _symmetric_field(rng, k, (pool,), diag=k + 1.0)[:, :, pick]
    old = cy.SLAB_POINTS
    cy.SLAB_POINTS = chunk
    try:
        assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
        try:
            want = _pencil_scale_full_copy(base, M, chunk)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                cy._pencil_critical_scale(base, M)
        else:
            assert cy._pencil_critical_scale(base, M) == want
            G = np.moveaxis(base.reshape(k, k, -1), -1, 0)
            D = np.moveaxis(M.reshape(k, k, -1), -1, 0)
            W = np.linalg.inv(np.linalg.cholesky(G))
            K = W @ D @ np.swapaxes(W, -1, -2)
            lam = np.linalg.eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2)))[:, 0]
            want = np.full(lam.shape, np.inf)
            want[np.argmin(lam)] = lam.min()
            assert np.array_equal(cy._whitened_min_eigenvalue(G, W, D), want)
    finally:
        cy.SLAB_POINTS = old


def _record_kernel_points(monkeypatch):
    """Per thread, in call order, (rank of the swept grid, grid flat indices
    of the call's points) for each kernel call of _pruned_min.  A call reads
    its points from its block's views through _take, one read per field;
    the read from a block's first view is recorded, at the first flat index
    _point_blocks gives that block (the view is held, so its id is not
    reused)."""
    log = collections.defaultdict(list)
    first_of = {}
    blocks, take = cy._point_blocks, cy._take

    def point_blocks(fields, lo, hi):
        for first, shape, views in blocks(fields, lo, hi):
            first_of[id(views[0])] = (views[0], first)
            yield first, shape, views

    def recorded(M, idx, shape):
        if id(M) in first_of:
            flat = first_of[id(M)][1] + np.ravel_multi_index(idx, shape)
            log[threading.get_ident()].append((len(shape), flat))
        return take(M, idx, shape)

    monkeypatch.setattr(cy, "_point_blocks", point_blocks)
    monkeypatch.setattr(cy, "_take", recorded)
    return log


@pytest.mark.parametrize("workers", CPU_COUNTS)
def test_no_point_reaches_a_kernel_twice_in_one_sweep(monkeypatch, workers):
    """The kernel calls of one sweep see each flat index at most once, probe
    points included: the plain and the pencil min_eigenvalue_field, and
    _pencil_critical_scale on its grid and in the nested sweep of each
    whitened kernel call over that call's stack, on one CPU and in two row
    groups of 400-point blocks.  Each group's first call is a probe.  The
    metric (1 - c) I + c ones, c >= 0.4, whose Gershgorin bound is
    negative, sends whole blocks to the whitened kernel, and the dense
    ones part of delta loosens the bound of the whitened matrices, so that
    some nested sweep runs its kernel on probe points and on kept ones."""
    monkeypatch.setattr(cy, "_cpus", lambda: workers)
    monkeypatch.setattr(cy, "SLAB_POINTS", 800)
    rng = np.random.default_rng(30)
    grid = (6, 10, 40)
    M = _symmetric_field(rng, 4, grid, diag=3.0)
    c = rng.uniform(0.4, 0.6, size=grid)
    g = (1.0 - c) * np.eye(4).reshape(4, 4, 1, 1, 1) + c * np.ones((4, 4, 1, 1, 1))
    delta = _symmetric_field(rng, 4, grid, diag=0.0) + 4.0 * np.ones((4, 4, 1, 1, 1))
    for sweep in (lambda: cy.min_eigenvalue_field(M),
                  lambda: cy.min_eigenvalue_field(delta, 0.5, g),
                  lambda: cy._pencil_critical_scale(g, delta)):
        log = _record_kernel_points(monkeypatch)
        sweep()
        calls, nested = [], []
        for reads in log.values():
            assert reads[0][0] == len(grid) and len(reads[0][1]) == cy.PROBE
            for rank, flat in reads:
                if rank == len(grid):
                    calls.append(flat)
                    nested.append([])
                else:
                    nested[-1].append(flat)
        points = np.concatenate(calls)
        assert len(np.unique(points)) == len(points)
        for inner in nested:
            points = np.concatenate(inner or [np.empty(0, dtype=int)])
            assert len(np.unique(points)) == len(points)
    assert all(nested) and max(map(len, nested)) > 1
