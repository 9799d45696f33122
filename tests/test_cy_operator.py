import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import forms
from akcy import potentials
from akcy.errors import AmplitudeError, ConsistencyError, PreconditionError


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
    assert np.abs(h - g).max() < 1e-14


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


@pytest.mark.parametrize("chunk", [cy.PENCIL_CHUNK, 1000])
def test_pencil_scale_of_broadcast_metric_is_bitwise_unchanged(monkeypatch, s_tw12, rng, chunk):
    """Chunking along the leading grid axis (one 12^3 slab per chunk when the
    chunk is small) leaves every per-point reduction and the minimum as they
    were with the metric copied to grid size."""
    assert s_tw12.g.shape[2:] == (12, 1, 1, 12)
    delta = cy.h_matrix(s_tw12.J, cy.deformation_form(s_tw12, sample_potential(s_tw12, rng)).comps)
    expected = _pencil_scale_full_copy(s_tw12.g, delta, chunk)
    monkeypatch.setattr(cy, "PENCIL_CHUNK", chunk)
    assert cy._pencil_critical_scale(s_tw12.g, delta) == expected
    assert np.isfinite(expected)
