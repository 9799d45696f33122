import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import forms
from akcy import potentials
from akcy import solver as sv
from akcy.errors import ConsistencyError, PreconditionError, SolverFailure

from conftest import make_standard, make_twisted


def manufactured_target(s, phi):
    return sv.make_handle(s, 0.0, check_taming=False), cy.F_total(s, phi)


def test_L_annihilates_constants(s_tw12):
    handle = sv.make_handle(s_tw12, 0.0)
    out = handle.apply(np.ones(s_tw12.chart.shape))
    assert np.abs(out).max() == 0.0


def test_flat_plane_wave_eigenvalue():
    """On the standard structure L(0) acts diagonally on plane waves with
    the centered-difference symbol (sin(2 pi k h)/h)^2 summed over axes."""
    s = make_standard([12] * 4)
    h = 1.0 / 12.0
    X = s.chart.grid_points()
    u = np.sin(2 * np.pi * X[..., 0])
    L = sv.make_handle(s, 0.0)
    Lu = L.apply(u)
    lam = (np.sin(2 * np.pi * h) / h) ** 2
    assert np.abs(Lu - lam * u).max() < 1e-12 * lam

    v = np.sin(2 * np.pi * (X[..., 1] + 2 * X[..., 2]))
    lam2 = (np.sin(2 * np.pi * h) / h) ** 2 + (np.sin(4 * np.pi * h) / h) ** 2
    Lv = L.apply(v)
    assert np.abs(Lv - lam2 * v).max() < 1e-11 * lam2


def test_linearization_is_frechet_derivative(s_tw12, rng):
    """One-sided difference of F along u matches L(phi)u with O(eps^2) error
    (F is quadratic in phi at n=2, so the error constant is clean)."""
    X = s_tw12.chart.grid_points()
    phi = 0.005 * np.sin(2 * np.pi * (X[..., 0] + X[..., 3]))
    u = potentials.random_potential(2, rng).sample(s_tw12.chart)
    handle = sv.make_handle(s_tw12, phi)
    Lu = handle.apply(u)
    F0 = cy.F_total(s_tw12, phi)
    errs = []
    eps_list = (1e-3, 5e-4, 2.5e-4)
    for eps in eps_list:
        F1 = cy.F_total(s_tw12, phi + eps * u)
        errs.append(np.abs(F1 - F0 - eps * Lu).max())
    slopes = np.diff(np.log(errs)) / np.diff(np.log(eps_list))
    assert np.all(np.abs(slopes - 2.0) < 0.1)


def test_target_mass_is_enforced(s_tw12):
    with pytest.raises(PreconditionError):
        sv.newton_solve(s_tw12, 1.1 * np.ones(s_tw12.chart.shape))


def test_target_positivity_is_enforced(s_tw12):
    X = s_tw12.chart.grid_points()
    f = 1.0 + 1.5 * np.sin(2 * np.pi * X[..., 0])
    f = f / forms.integrate(s_tw12, f)
    with pytest.raises(PreconditionError):
        sv.newton_solve(s_tw12, f)


def test_handle_rejects_non_taming_base(s_tw12, rng):
    phi = potentials.random_potential(2, rng).sample(s_tw12.chart)
    a = cy.positivity_amplitude(s_tw12, phi)
    with pytest.raises(PreconditionError):
        sv.make_handle(s_tw12, 1.5 * a * phi)


def test_newton_trivial_target(s_tw12):
    pot, rep = sv.newton_solve(s_tw12, np.ones(s_tw12.chart.shape))
    assert rep.converged
    assert rep.iters == 0
    assert np.abs(pot.values).max() == 0.0


def test_newton_manufactured_solution(s_tw12):
    X = s_tw12.chart.grid_points()
    phi_star = 0.01 * np.sin(2 * np.pi * X[..., 2]) * np.cos(2 * np.pi * X[..., 1])
    phi_star = cy.project_zero_mean(s_tw12, phi_star).values
    f = cy.F_total(s_tw12, phi_star)
    pot, rep = sv.newton_solve(s_tw12, f, tol=1e-10)
    assert rep.converged
    assert rep.iters <= 8
    assert np.abs(pot.values - phi_star).max() < 1e-8


def test_newton_init_independence(s_tw12, rng):
    X = s_tw12.chart.grid_points()
    phi_star = 0.01 * np.sin(2 * np.pi * (X[..., 0] - X[..., 3]))
    f = cy.F_total(s_tw12, phi_star)
    pot_a, _ = sv.newton_solve(s_tw12, f, tol=1e-10)
    init = 1e-3 * potentials.random_potential(2, rng).sample(s_tw12.chart)
    pot_b, _ = sv.newton_solve(s_tw12, f, phi_init=init, tol=1e-10)
    assert np.abs(pot_a.values - pot_b.values).max() < 1e-8


def test_continuity_trivial_target(s_tw12):
    pot, rep = sv.continuity_solve(s_tw12, np.ones(s_tw12.chart.shape), steps=4)
    assert rep.converged
    assert rep.t_reached == 1.0
    assert np.abs(pot.values).max() < 1e-10


def test_continuity_manufactured(s_tw12):
    X = s_tw12.chart.grid_points()
    phi_star = 0.008 * np.sin(2 * np.pi * X[..., 1]) * np.sin(2 * np.pi * X[..., 2])
    phi_star = cy.project_zero_mean(s_tw12, phi_star).values
    f = cy.F_total(s_tw12, phi_star)
    # at 12^4 the blend targets carry a few 1e-6 of flat-kernel content, so
    # the tolerance has to sit above that aliasing floor
    pot, rep = sv.continuity_solve(s_tw12, f, steps=4, tol=1e-5)
    assert rep.converged
    assert np.abs(pot.values - phi_star).max() < 1e-6
    # trace rows are (t, residual, margin) with increasing t
    ts = [row[0] for row in rep.trace]
    assert ts == sorted(ts)
    assert ts[-1] == 1.0


def test_aliasing_floor_reported(s_tw12):
    """A target with content in the flat-kernel modes below tol cannot be
    matched; the solver reports the floor instead of looping."""
    X = s_tw12.chart.grid_points()
    kb = np.cos(12 * np.pi * X[..., 0]) * np.cos(12 * np.pi * X[..., 1])
    f = 1.0 + 1e-6 * kb
    f = f / forms.integrate(s_tw12, f)
    with pytest.raises(SolverFailure) as exc:
        sv.newton_solve(s_tw12, f, tol=1e-8)
    assert exc.value.report.reason == "aliasing_floor"
    pot, rep = sv.continuity_solve(s_tw12, f, steps=2, tol=1e-8)
    assert rep.reason == "aliasing_floor"
    assert not rep.converged


def test_kernel_check_small_grid():
    s = make_twisted([8] * 4, epsilon=0.1)
    out = sv.kernel_check(s, np.zeros(s.chart.shape))
    assert out["const_defect"] < 1e-12
    assert out["kernel_dim"] == 2**4
    # every raw singular value in the kernel block is numerically zero
    assert out["smallest_singular_values"][-1] < 1e-10
    # spectral gap on the working subspace: about the smallest nonzero
    # value of the flat symbol, (sin(2 pi / N) * N)^2 at N = 8
    gap = (np.sin(2 * np.pi / 8) * 8) ** 2
    assert 0.5 * gap < out["subspace_smallest"] < 1.5 * gap


def test_kernel_check_rejects_large_grids(s_tw12):
    with pytest.raises(PreconditionError):
        sv.kernel_check(s_tw12, np.zeros(s_tw12.chart.shape))


@pytest.mark.parametrize("error", [PreconditionError, ConsistencyError])
def test_continuity_reports_errors_raised_mid_path(monkeypatch, s_tw12, error):
    """An error from the second Newton solve ends the path with a failed
    report that keeps the first step's trace instead of escaping."""
    newton = sv.newton_solve
    calls = []

    def failing_second_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise error("injected on the second step")
        return newton(*args, **kwargs)

    monkeypatch.setattr(sv, "newton_solve", failing_second_step)
    pot, rep = sv.continuity_solve(s_tw12, np.ones(s_tw12.chart.shape), steps=4)
    assert len(calls) == 2
    assert not rep.converged
    assert rep.t_reached == 0.25
    assert rep.reason == f"{error.__name__}: injected on the second step"
    assert [row[0] for row in rep.trace] == [0.25]
    assert np.abs(pot.values).max() < 1e-10


def test_continuity_dt_grows_back_after_a_halving(monkeypatch, s_tw12):
    """A max_iter failure at t = 0.4 halves dt once; the next accepted step
    doubles it back to 1/steps instead of crawling at the halved step."""
    newton = sv.newton_solve
    calls = []

    def failing_second_step(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:        # the step from t = 0.2 to t = 0.4
            report = sv.SolveReport(False, 8, 1e-3, 0.5, reason="max_iter")
            raise SolverFailure("injected max_iter", report=report)
        return newton(*args, **kwargs)

    monkeypatch.setattr(sv, "newton_solve", failing_second_step)
    pot, rep = sv.continuity_solve(s_tw12, np.ones(s_tw12.chart.shape), steps=5)
    assert rep.converged
    assert [row[0] for row in rep.trace] == pytest.approx([0.2, 0.3, 0.5, 0.7, 0.9, 1.0])
    assert len(calls) == 7
