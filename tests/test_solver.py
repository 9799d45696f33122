import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import forms
from akcy import potentials
from akcy import solver as sv
from akcy import structure as st
from akcy.errors import ConsistencyError, PreconditionError, SolverFailure

from conftest import make_standard, make_twisted


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


def _beyond_amplitude(s, rng):
    """A potential at 1.5 times its taming amplitude: h(phi) is indefinite."""
    phi = potentials.random_potential(2, rng).sample(s.chart)
    return 1.5 * cy.positivity_amplitude(s, phi) * phi


def test_newton_rejects_non_taming_start(s_tw12, rng):
    with pytest.raises(PreconditionError, match="linearization base is not taming"):
        sv.newton_solve(s_tw12, np.ones(s_tw12.chart.shape),
                        phi_init=_beyond_amplitude(s_tw12, rng))


def test_kernel_check_rejects_non_taming_base(rng):
    s = make_twisted([8] * 4, epsilon=0.1)
    with pytest.raises(PreconditionError, match="linearization base is not taming"):
        sv.kernel_check(s, _beyond_amplitude(s, rng))


def test_report_margins_are_the_iterates_taming_margins(monkeypatch, s_tw12):
    """The margin of each trace row and of the report is the taming margin
    of the accepted iterate, carried over from its line-search trial."""
    X = s_tw12.chart.grid_points()
    phi_star = 0.01 * np.sin(2 * np.pi * X[..., 2]) * np.cos(2 * np.pi * X[..., 1])
    f = cy.F_total(s_tw12, cy.project_zero_mean(s_tw12, phi_star).values)
    bases = []

    def recording_handle(s, phi):
        bases.append(np.array(phi))
        return sv.LinearOperatorHandle(s, phi)

    monkeypatch.setattr(sv, "make_handle", recording_handle)
    _, rep = sv.newton_solve(s_tw12, f, tol=1e-10)
    iterates = bases[1:]        # bases: the start, then one per accepted step
    assert rep.iters == len(rep.trace) == len(iterates) >= 2
    for row, phi in zip(rep.trace, iterates):
        assert row[2] == cy.taming_margin(s_tw12, phi)
    assert rep.margin == cy.taming_margin(s_tw12, iterates[-1])


@pytest.mark.parametrize("epsilon", [0.12, 0.3])
def test_plane_wave_rayleigh_quotient_positive_inside_cone(rng, epsilon):
    """The preconditioner inverts the flat symbol with a positive sign; L(phi)
    keeps that sign on a plane wave for bases up to the cone boundary."""
    s = make_twisted([12] * 4, epsilon=epsilon)
    u = np.sin(2 * np.pi * s.chart.grid_points()[..., 0])
    for frac in (0.5, 0.9, 0.999):
        phi = potentials.random_potential(2, rng).sample(s.chart)
        phi = frac * cy.positivity_amplitude(s, phi) * phi
        Lu = sv.make_handle(s, phi).apply(u)
        assert float(np.sum(Lu * u)) / float(np.sum(u * u)) > 0.0


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


def _complex_fft_reference(chart):
    """Flat symbol and flat-kernel mask on the full complex FFT lattice: the
    kernel is every wavenumber in {0, N/2} on every axis."""
    sym = np.zeros(chart.shape)
    mask = np.ones(chart.shape, dtype=bool)
    for d, (N, h) in enumerate(zip(chart.shape, chart.spacing)):
        k = np.fft.fftfreq(N) * N
        shape = [1] * len(chart.shape)
        shape[d] = N
        sym = sym + ((np.sin(2 * np.pi * k / N) / h) ** 2).reshape(shape)
        mask = mask & np.isin(np.abs(k), [0, N / 2]).reshape(shape)
    return sym, mask


def _parity_class_means(u):
    """Mean of u over each parity class (index parities on the even axes)."""
    even = [d for d, N in enumerate(u.shape) if N % 2 == 0]
    means = []
    for parities in np.ndindex(*[2] * len(even)):
        idx = [slice(None)] * u.ndim
        for d, p in zip(even, parities):
            idx[d] = slice(p, None, 2)
        means.append(u[tuple(idx)].mean())
    return np.array(means)


GRIDS_AND_KERNEL_DIMS = [
    ([8] * 4, 16),
    ([9] * 4, 1),
    ([8, 9, 10, 11], 4),
]


@pytest.mark.parametrize("resolution, kernel_dim", GRIDS_AND_KERNEL_DIMS)
def test_projection_and_preconditioner_match_complex_fft(resolution, kernel_dim):
    """The parity-class projection and the real-FFT preconditioner agree with
    the masked complex-FFT reference; odd axes contribute only the constant
    to the flat kernel."""
    chart = st.build_grid(2, resolution)
    P = sv._Preconditioner(chart)
    sym, mask = _complex_fft_reference(chart)
    assert P.kernel_dim == int(mask.sum()) == kernel_dim

    u = np.random.default_rng(5).standard_normal(chart.shape)
    uhat = np.fft.fftn(u)
    uhat[mask] = 0.0
    assert np.abs(P.project(u) - np.fft.ifftn(uhat).real).max() < 1e-13

    inv_sym = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, sym))
    ref = np.fft.ifftn(np.fft.fftn(u) * inv_sym).real
    out = P(u)
    assert np.abs(out - ref).max() < 1e-13 * np.abs(ref).max()
    means = _parity_class_means(out)
    assert means.shape == (kernel_dim,)
    assert np.abs(means).max() < 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("resolution, kernel_dim", GRIDS_AND_KERNEL_DIMS)
def test_flat_kernel_modes_are_exact_zeros_of_P_and_L(resolution, kernel_dim):
    """Each parity-class indicator is projected to exactly 0, and L(phi)
    maps it to exactly 0 at a taming phi != 0."""
    s = make_twisted(resolution)
    P = sv._Preconditioner(s.chart)
    modes = P.kernel_modes()
    assert modes.shape == (kernel_dim,) + s.chart.shape
    assert np.array_equal(modes.sum(axis=0), np.ones(s.chart.shape))
    assert np.linalg.matrix_rank(modes.reshape(kernel_dim, -1)) == kernel_dim
    cand = [c for c in potentials.default_candidates(2) if c.name == "prod_x2_y1"][0]
    phi = cand.sample(s.chart)
    phi = 0.3 * cy.positivity_amplitude(s, phi) * phi
    handle = sv.make_handle(s, phi)
    for k in modes:
        assert np.all(P.project(k) == 0.0)
        assert np.all(handle.apply(k) == 0.0)


def test_newton_makes_one_real_fft_pair_per_preconditioner_call(monkeypatch, s_tw12):
    """A GMRES iteration transforms only in the preconditioner: one rfftn
    and one irfftn per application, and no complex FFT anywhere in the
    solve.  Each trace row carries the step's linear residual."""
    counts = {"rfftn": 0, "irfftn": 0, "precond": 0, "complex": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted("complex", getattr(np.fft, name)))
    monkeypatch.setattr(sv._Preconditioner, "__call__",
                        counted("precond", sv._Preconditioner.__call__))

    X = s_tw12.chart.grid_points()
    phi_star = 0.01 * np.sin(2 * np.pi * X[..., 2]) * np.cos(2 * np.pi * X[..., 1])
    f = cy.F_total(s_tw12, cy.project_zero_mean(s_tw12, phi_star).values)
    _, rep = sv.newton_solve(s_tw12, f, tol=1e-10)
    assert rep.converged and rep.iters >= 2
    assert counts["precond"] > 0
    assert counts["rfftn"] == counts["irfftn"] == counts["precond"]
    assert counts["complex"] == 0
    for it, res, margin, step, lin_res in rep.trace:
        assert 0.0 <= lin_res < 1e-6


def test_kernel_check_small_grid():
    s = make_twisted([8] * 4, epsilon=0.1)
    out = sv.kernel_check(s, np.zeros(s.chart.shape))
    # L annihilates the constant and every checkerboard mode
    assert out["kernel_defect"] < 1e-12
    assert out["kernel_dim"] == 2**4
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
