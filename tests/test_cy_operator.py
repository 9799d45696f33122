import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akcy import cy_operator as cy
from akcy import forms
from akcy import potentials
from akcy.errors import AmplitudeError, ConsistencyError, NumericalError, PreconditionError


def sample_potential(s, rng, amp=0.01):
    pot = potentials.random_potential(s.half_dim, rng)
    return amp * pot.sample(s.chart)


def test_F_of_zero_is_one(s_std12, s_tw12):
    for s in (s_std12, s_tw12):
        F = cy.F_total(s, np.zeros(s.chart.shape))
        assert np.abs(F - 1.0).max() < 1e-12


def test_margin_of_zero_standard_is_one(s_std12):
    assert cy.taming_margin(s_std12, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_h_of_zero_equals_metric(s_tw12):
    h = cy.h_form(s_tw12, np.zeros(s_tw12.chart.shape))
    g = np.broadcast_to(s_tw12.g, h.shape)
    assert np.array_equal(h, g)


def test_deformed_form_is_closed(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    w = cy.deformed_form(s_tw12, phi)
    assert forms.exterior_derivative(w).max_abs() < 1e-11


def test_decomposition_sums_to_top_ratio(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    direct, comps = cy.F_total(s_tw12, phi, return_components=True)
    total = sum(comps)
    scale = np.abs(direct).max()
    assert np.abs(total - direct).max() <= 1e-10 * max(scale, 1.0)


def test_F1_is_nonnegative_at_n2(s_tw12, rng):
    phi = sample_potential(s_tw12, rng)
    comps = cy.F_components(s_tw12, phi)
    assert comps[1].min() >= 0.0


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
    t = cy.tau(s_tw12, phi)
    T = forms.form_to_matrix(t)
    X = rng.standard_normal(4)
    JX = np.einsum("kl...,l->k...", s_tw12.J, X)
    val = np.einsum("k,kl...,l...->...", X, T, JX) - 1j * np.einsum(
        "k,kl...,l->...", X, T, X
    )
    assert np.abs(val).max() < 1e-12


def test_H_part_at_zero_is_identity(s_tw12):
    M = cy.H_part(s_tw12, np.zeros(s_tw12.chart.shape))
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


def _pencil_scale_full_copy(g, delta, chunk):
    """Reference pencil scale with the metric copied to the full grid and
    flat chunks of `chunk` points."""
    k = delta.shape[0]
    gflat = np.broadcast_to(g, delta.shape).reshape(k, k, -1)
    dflat = delta.reshape(k, k, -1)
    best = np.inf
    for start in range(0, dflat.shape[-1], chunk):
        G = np.ascontiguousarray(np.moveaxis(gflat[..., start : start + chunk], -1, 0))
        D = np.ascontiguousarray(np.moveaxis(dflat[..., start : start + chunk], -1, 0))
        L = np.linalg.cholesky(G)
        A = np.linalg.solve(L, D)
        K = np.linalg.solve(L, np.swapaxes(A, -1, -2))
        lam = np.linalg.eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2)))[:, 0]
        if np.any(lam < 0.0):
            best = min(best, float((-1.0 / lam[lam < 0.0]).min()))
    return best


@pytest.mark.parametrize("chunk", [cy.POINT_CHUNK, 1000])
def test_pencil_scale_of_broadcast_metric_is_bitwise_unchanged(monkeypatch, s_tw12, rng, chunk):
    """Chunking along the leading grid axis (one 12^3 slab per chunk when the
    chunk is small) leaves every per-point reduction and the minimum as they
    were with the metric copied to grid size."""
    assert s_tw12.g.shape[2:] == (12, 1, 1, 12)
    delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, sample_potential(s_tw12, rng)).comps)
    expected = _pencil_scale_full_copy(s_tw12.g, delta, chunk)
    monkeypatch.setattr(cy, "POINT_CHUNK", chunk)
    assert cy._pencil_critical_scale(s_tw12.g, delta) == expected
    assert np.isfinite(expected)


@pytest.mark.parametrize("chunk", [1000, 7])
def test_min_eigenvalue_blocks_leave_min_and_argmin_unchanged(monkeypatch, s_tw12, rng, chunk):
    """Small point blocks give the minimum and flat argmin of one unblocked
    eigvalsh, on a grid field, a non-contiguous slice of it and a point list."""
    h = cy.h_form(s_tw12, sample_potential(s_tw12, rng, amp=1.0))
    scan = h.reshape(4, 4, -1)[:, :, ::3]
    monkeypatch.setattr(cy, "POINT_CHUNK", chunk)
    for M in (h, h[:, :, :, ::2], scan):
        assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)


def _min_eigenvalue_reference(M):
    """(min, first flat argmin) of one eigvalsh over every point."""
    k = M.shape[0]
    ev = np.linalg.eigvalsh(np.moveaxis(M.reshape(k, k, -1), -1, 0))[:, 0]
    return float(ev.min()), int(np.argmin(ev))


def _symmetric_field(rng, k, grid, diag=3.0):
    """Random symmetric matrices with matrix axes first on a grid."""
    A = rng.standard_normal((k, k) + grid)
    return 0.5 * (A + np.swapaxes(A, 0, 1)) + diag * np.eye(k).reshape((k, k) + (1,) * len(grid))


def _count_kernel_points(monkeypatch, name):
    """Wrap a per-matrix kernel of cy_operator; returns the running count."""
    seen = [0]
    kernel = getattr(cy, name)

    def counted(*blocks):
        seen[0] += blocks[0].shape[0]
        return kernel(*blocks)

    monkeypatch.setattr(cy, name, counted)
    return seen


def test_min_eigenvalue_of_constant_field_ties_at_index_zero(monkeypatch):
    """Every point ties, so every point stays a candidate and the first wins."""
    monkeypatch.setattr(cy, "POINT_CHUNK", 7)
    M = np.broadcast_to(_symmetric_field(np.random.default_rng(1), 4, (1, 1)), (4, 4, 3, 100))
    M = np.ascontiguousarray(M)
    assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
    assert cy.min_eigenvalue_field(M)[1] == 0


def test_min_eigenvalue_equal_minima_in_two_blocks_first_wins(monkeypatch):
    monkeypatch.setattr(cy, "POINT_CHUNK", 7)
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
    monkeypatch.setattr(cy, "POINT_CHUNK", 7)
    c = np.random.default_rng(3).uniform(0.2, 0.3, size=(3, 100))
    M = (1.0 - c) * np.eye(4)[:, :, None, None] + c * np.ones((4, 4, 1, 1))
    seen = _count_kernel_points(monkeypatch, "_min_eigenvalue")
    assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
    assert seen[0] >= M[0, 0].size


def test_min_eigenvalue_six_by_six_field(monkeypatch):
    monkeypatch.setattr(cy, "POINT_CHUNK", 200)
    M = _symmetric_field(np.random.default_rng(4), 6, (4, 6, 50), diag=6.0)
    seen = _count_kernel_points(monkeypatch, "_min_eigenvalue")
    assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
    assert seen[0] < M[0, 0].size


def test_pencil_scale_non_broadcast_base(monkeypatch):
    """A per-point base, as on the boundary scan set."""
    monkeypatch.setattr(cy, "POINT_CHUNK", 7)
    rng = np.random.default_rng(5)
    base = _symmetric_field(rng, 4, (3, 200), diag=4.0)
    delta = _symmetric_field(rng, 4, (3, 200), diag=0.0)
    expected = _pencil_scale_full_copy(base, delta, 7)
    assert cy._pencil_critical_scale(base, delta) == expected
    assert np.isfinite(expected)


def test_pencil_scale_metric_with_nonpositive_gershgorin_bound(monkeypatch):
    """(1 - c) I + c ones is positive definite for c < 1 but its Gershgorin
    bound 1 - 3c is <= 0 for c >= 1/3; those points are never pruned."""
    monkeypatch.setattr(cy, "POINT_CHUNK", 7)
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
    monkeypatch.setattr(cy, "POINT_CHUNK", 7)
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
    monkeypatch.setattr(cy, "POINT_CHUNK", 7)
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
    points and blocks) give the brute-force min, argmin and pencil scale."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(pool, size=(rows, cols))
    M = _symmetric_field(rng, k, (pool,), diag=rng.uniform(0.0, 4.0))[:, :, pick]
    base = _symmetric_field(rng, k, (pool,), diag=k + 1.0)[:, :, pick]
    old = cy.POINT_CHUNK
    cy.POINT_CHUNK = chunk
    try:
        assert cy.min_eigenvalue_field(M) == _min_eigenvalue_reference(M)
        assert cy._pencil_critical_scale(base, M) == _pencil_scale_full_copy(base, M, chunk)
    finally:
        cy.POINT_CHUNK = old
