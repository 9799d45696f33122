import math
import tracemalloc

import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import forms
from akcy import potentials
from akcy import solver as sv
from akcy import structure as st
from akcy.errors import ConsistencyError, PreconditionError, SolverFailure

from conftest import (L_GRIDS, SLAB_ROWS, assert_same_bytes, make_standard, make_twisted,
                      set_slab_rows, slab_structure, unblocked_deformation_form)


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


@pytest.mark.parametrize("solve", [sv.newton_solve, sv.continuity_solve])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_target_is_rejected(s_tw12, solve, bad):
    """NaN fails both the mass and the positivity comparison, so it needs
    its own check; without it a Newton solve reports convergence at once."""
    f = np.ones(s_tw12.chart.shape)
    f.flat[5] = bad
    with pytest.raises(PreconditionError, match="finite"):
        solve(s_tw12, f)


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
    deformation_form = cy.deformation_form

    def recording_deformation_form(s, phi):
        bases.append(np.array(phi))
        return deformation_form(s, phi)

    monkeypatch.setattr(cy, "deformation_form", recording_deformation_form)
    _, rep = sv.newton_solve(s_tw12, f, tol=1e-10)
    monkeypatch.undo()
    iterates = bases[1:]        # bases: the start, then one per line-search trial
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
    """A GMRES iteration transforms only in the preconditioner: one rfft
    and one irfft per application, complex passes (fft, ifft) only inside
    it, and no n-dimensional transform anywhere in the solve.  Each trace
    row carries the step's linear residual."""
    counts = {"rfft": 0, "irfft": 0, "precond": 0, "complex_outside": 0, "nd": 0}
    inside = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def complex_pass(fn):
        def wrapper(*args, **kwargs):
            counts["complex_outside"] += not inside
            return fn(*args, **kwargs)
        return wrapper

    def precond(self, r):
        counts["precond"] += 1
        inside.append(1)
        try:
            return call(self, r)
        finally:
            inside.pop()

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, complex_pass(getattr(np.fft, name)))
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted("nd", getattr(np.fft, name)))
    call = sv._Preconditioner.__call__
    monkeypatch.setattr(sv._Preconditioner, "__call__", precond)

    X = s_tw12.chart.grid_points()
    phi_star = 0.01 * np.sin(2 * np.pi * X[..., 2]) * np.cos(2 * np.pi * X[..., 1])
    f = cy.F_total(s_tw12, cy.project_zero_mean(s_tw12, phi_star).values)
    _, rep = sv.newton_solve(s_tw12, f, tol=1e-10)
    assert rep.converged and rep.iters >= 2
    assert counts["precond"] > 0
    assert counts["rfft"] == counts["irfft"] == counts["precond"]
    assert counts["complex_outside"] == counts["nd"] == 0
    # GMRES guarantees ||lin||_2 <= eta ||P r||_2 <= eta sqrt(npts) |r|_inf
    # for the residual r the step started from; only the last step must be
    # accurate to the Newton tolerance.
    npts = f.size
    r_prev = float(np.abs(f - cy.F_total(s_tw12, np.zeros(s_tw12.chart.shape))).max())
    for it, res, margin, step, lin_res, eta in rep.trace:
        assert 0.0 <= lin_res <= eta * np.sqrt(npts) * r_prev
        r_prev = res
    assert rep.trace[-1][4] < 1e-6


def _count_applies(monkeypatch):
    calls = []
    apply = sv.LinearOperatorHandle.apply

    def counted(self, u):
        calls.append(1)
        return apply(self, u)

    monkeypatch.setattr(sv.LinearOperatorHandle, "apply", counted)
    return calls


def test_forcing_terms_halve_applies_at_equal_newton_steps(monkeypatch, s_tw16):
    """Criterion 11's solve with Eisenstat-Walker forcing takes as many Newton
    steps as with every linear solve at LIN_TOL (ETA_MAX = LIN_TOL), in at
    most half the L-applies, and lands on the same solution."""
    pot = potentials.default_candidates(2)[9]  # prod_x2_y1
    f = cy.F_total(s_tw16, cy.project_zero_mean(s_tw16, 0.01 * pot.sample(s_tw16.chart)).values)
    calls = _count_applies(monkeypatch)
    pot, rep = sv.newton_solve(s_tw16, f, tol=1e-9)
    forcing_applies = len(calls)
    assert rep.trace[0][5] == sv.ETA_MAX
    monkeypatch.setattr(sv, "ETA_MAX", sv.LIN_TOL)
    calls.clear()
    pot_exact, rep_exact = sv.newton_solve(s_tw16, f, tol=1e-9)
    assert all(row[5] == sv.LIN_TOL for row in rep_exact.trace)
    assert rep.converged and rep_exact.converged
    assert rep.iters == rep_exact.iters
    assert 2 * forcing_applies <= len(calls)
    assert np.abs(pot.values - pot_exact.values).max() < 1e-8


@pytest.mark.parametrize("rtol", [1e-2, 1e-6])
def test_solve_linear_meets_its_relative_tolerance(s_tw12, rtol):
    """The step satisfies ||P L P x - P rhs||_2 <= rtol ||P rhs||_2, the
    2-norm test the forcing terms rely on."""
    X = s_tw12.chart.grid_points()
    phi = 0.01 * np.sin(2 * np.pi * X[..., 2]) * np.cos(2 * np.pi * X[..., 1])
    rhs = 1.0 - cy.F_total(s_tw12, phi)
    handle = sv.make_handle(s_tw12, phi)
    P = sv._Preconditioner(s_tw12.chart)
    x, lin_res = sv._solve_linear(s_tw12, handle, rhs, P, rtol)
    resid = sv._projected_apply(handle, P, x) - P.project(rhs).ravel()
    assert np.linalg.norm(resid) <= rtol * np.linalg.norm(P.project(rhs))
    assert lin_res == float(np.abs(resid).max())


def test_gmres_cap_counts_iterations(monkeypatch, s_tw12):
    """LIN_MAXITER caps the Krylov iterations of one linear solve, not restart
    cycles: an unreachable rtol raises SolverFailure after the cap plus one
    residual apply."""
    monkeypatch.setattr(sv, "LIN_MAXITER", 7)
    calls = _count_applies(monkeypatch)
    X = s_tw12.chart.grid_points()
    rhs = np.sin(2 * np.pi * X[..., 0]) * np.cos(2 * np.pi * X[..., 3])
    handle = sv.make_handle(s_tw12, 0.0)
    with pytest.raises(SolverFailure, match="linear solve stagnated"):
        sv._solve_linear(s_tw12, handle, rhs, sv._Preconditioner(s_tw12.chart), 1e-300)
    assert len(calls) == sv.LIN_MAXITER + 1


@pytest.mark.parametrize("rtol, restart", [(1e-2, 20), (1e-8, 20), (1e-8, 5)])
def test_gmres_matches_scipy(monkeypatch, s_tw12, rtol, restart):
    """akcy's GMRES takes scipy's iterates on the projected 12^4 system, in
    as many A-applies (restart 5 exercises the tolerance update between
    cycles)."""
    from scipy.sparse.linalg import LinearOperator, gmres

    monkeypatch.setattr(sv, "LIN_RESTART", restart)
    X = s_tw12.chart.grid_points()
    phi = 0.01 * np.sin(2 * np.pi * X[..., 2]) * np.cos(2 * np.pi * X[..., 1])
    rhs = 1.0 - cy.F_total(s_tw12, phi)
    handle = sv.make_handle(s_tw12, phi)
    P = sv._Preconditioner(s_tw12.chart)
    calls = _count_applies(monkeypatch)
    x, _ = sv._solve_linear(s_tw12, handle, rhs, P, rtol)
    ours = len(calls)
    calls.clear()
    npts = rhs.size
    A = LinearOperator((npts, npts), matvec=lambda u: sv._projected_apply(handle, P, u),
                       dtype=float)
    M = LinearOperator((npts, npts), matvec=lambda r: P(r).ravel(), dtype=float)
    ref, info = gmres(A, P.project(rhs).ravel(), rtol=rtol, atol=0.0, restart=restart,
                      maxiter=sv.LIN_MAXITER // restart, M=M)
    assert info == 0
    assert np.linalg.norm(x.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)
    assert ours == len(calls)


def test_gmres_rhs_in_the_flat_kernel_returns_zeros_without_apply(monkeypatch, s_tw12):
    """A right-hand side that projects to 0 is solved by 0, with no L-apply."""
    P = sv._Preconditioner(s_tw12.chart)
    # Integer coefficients, so that the class means are exact.
    coef = np.random.default_rng(3).integers(-4, 5, P.kernel_dim).astype(float)
    rhs = np.tensordot(coef, P.kernel_modes(), axes=1)
    assert np.all(P.project(rhs) == 0.0)
    calls = _count_applies(monkeypatch)
    x, lin_res = sv._solve_linear(s_tw12, sv.make_handle(s_tw12, 0.0), rhs, P, 1e-8)
    assert np.all(x == 0.0) and x.shape == s_tw12.chart.shape
    assert lin_res == 0.0
    assert calls == []


def _roll_delta(f, d, dim):
    """Unscaled periodic difference f(x + h e_d) - f(x - h e_d) by np.roll."""
    axis = f.ndim - dim + d
    return np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)


def _fused_L_reference(s, phi, u):
    """L(phi)u on the whole grid with the fused kernel's arithmetic spelled
    out: for each wedge-table term (I, P = (a, b), eps) the coefficient
    coef_P = (omega(phi)^{n-1})_I * ((n/n!) eps / (2h_a)); v_i = sum_k
    (J[k, i] / (2h_k)) Delta_k u with Delta the np.roll difference; and L u
    the sum, over the pairs whose coefficient is not zero everywhere, of
    (Delta_a v_b - (h_a/h_b) Delta_b v_a) * coef_P, the first term written
    and the others added in wedge-table order."""
    chart = s.chart
    n, dim, h = s.half_dim, chart.dim, chart.spacing
    w = forms.omega_form(s) + unblocked_deformation_form(s, phi)
    wn1 = cy._wedge_power(w, n - 1).comps
    Jt = np.stack([s.J[k] / (2.0 * h[k]) for k in range(dim)])
    v = forms.j_oneform_comps(Jt, np.stack([_roll_delta(u, k, dim) for k in range(dim)]))
    out = np.zeros(chart.shape)
    first = True
    pairs = forms.multi_indices(dim, 2)
    for I, P, _, sign in forms.wedge_table(dim, dim - 2, 2):
        a, b = pairs[P]
        coef = wn1[I] * (n * sign / (math.factorial(n) * 2.0 * h[a]))
        if not np.any(coef):
            continue
        term = (_roll_delta(v[b], a, dim) - (h[a] / h[b]) * _roll_delta(v[a], b, dim)) * coef
        out = term if first else out + term
        first = False
    return out


def _wedge_L_reference(s, phi, u):
    """n omega(phi)^{n-1} ^ d(J du) / omega^n from the unblocked d(J d.),
    wedge and top_ratio: the composition L is the Frechet derivative of."""
    n = s.half_dim
    w = forms.omega_form(s) + unblocked_deformation_form(s, phi)
    top = forms.wedge(cy._wedge_power(w, n - 1), unblocked_deformation_form(s, u))
    return n * forms.top_ratio(s, top)


@pytest.mark.parametrize("rows", SLAB_ROWS)
@pytest.mark.parametrize("grid", L_GRIDS)
def test_L_apply_slabs_are_bitwise_the_unblocked_composition(monkeypatch, grid, rows):
    """L(phi)u slab by slab equals the whole-grid fused reference byte for
    byte, also for the flat base make_handle(s, 0.0)."""
    s = slab_structure(grid)
    shape = s.chart.shape
    set_slab_rows(monkeypatch, shape, rows)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(shape)
    for phi in (0.01 * rng.standard_normal(shape), 0.0):
        assert_same_bytes(sv.make_handle(s, phi).apply(u), _fused_L_reference(s, phi, u))


@pytest.mark.parametrize("grid", L_GRIDS)
def test_L_apply_matches_the_wedge_composition(grid):
    """The fused L(phi)u is the wedge composition n omega(phi)^{n-1} ^
    d(J du) / omega^n to rounding: within 4 eps of max |L u| in the sup
    norm.  The largest value seen was 1.85 eps (4.1e-16), over these grids
    and twisted 14^4 and 24^4, random and smooth phi and u, and the flat
    base."""
    s = slab_structure(grid)
    shape = s.chart.shape
    rng = np.random.default_rng(12)
    for _ in range(2):
        u = rng.standard_normal(shape)
        for phi in (0.01 * rng.standard_normal(shape), 0.0):
            ref = _wedge_L_reference(s, phi, u)
            got = sv.make_handle(s, phi).apply(u)
            assert np.abs(got - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


def test_L_handle_holds_one_form_and_apply_stays_lean(monkeypatch):
    """At twisted 24^4 the handle holds C(4, 2) = 6 grid fields (the scaled
    omega(phi)^{n-1}) and the lattice-size J / 2h.  One apply allocates at
    most 3.5 grid fields, its output included, on one row group and on two
    (3.03 and 3.36-3.39 measured: the output, each group's slab buffer of
    J Delta u with its halo, and the differences of the rows it builds);
    the wedge composition took 4.54.  The row-group pool is made before
    memory is traced, so its threads count in neither bound."""
    s = make_twisted([24] * 4)
    shape = s.chart.shape
    rng = np.random.default_rng(5)
    phi = 0.01 * potentials.random_potential(2, rng).sample(s.chart)
    u = rng.standard_normal(shape)
    grid_bytes = u.nbytes
    for cpus in (1, 2):
        monkeypatch.setattr(cy, "_cpus", lambda: cpus)
        assert len(cy._row_groups(shape)) == cpus
        cy.deformation_form(s, phi)          # makes the pool on two groups
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            handle = sv.make_handle(s, phi)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            Lu = handle.apply(u)
            peak = tracemalloc.get_traced_memory()[1] - before - held
        finally:
            tracemalloc.stop()
        assert Lu.shape == shape
        assert 6 * grid_bytes <= held <= 6 * grid_bytes + s.J.nbytes + 64 * 1024, cpus
        assert peak <= 3.5 * grid_bytes, cpus
        del handle, Lu


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


def test_continuity_never_solves_a_failed_target_again(monkeypatch, s_tw12):
    """Every target above t = 0.95 fails.  After an accepted step the next
    target is clamped to t = 1.0; the retry after its failure must lie
    below it, so no (phi_init, f_t) pair is solved twice."""
    X = s_tw12.chart.grid_points()
    f = 1.0 + 0.5 * np.sin(2 * np.pi * X[..., 0])
    peak = float(f.max()) - 1.0
    seen = []

    def stub(s, ft, phi_init=None, tol=None, max_iter=None):
        key = (phi_init.tobytes(), ft.tobytes())
        assert key not in seen, "the same (phi_init, f_t) was solved twice"
        seen.append(key)
        t = (float(ft.max()) - 1.0) / peak
        if t > 0.95 + 1e-9:
            report = sv.SolveReport(False, max_iter, 1e-3, 0.5, reason="max_iter")
            raise SolverFailure("injected max_iter", report=report)
        return cy.Potential(s.chart, phi_init + 1e-3 * t), sv.SolveReport(True, 1, 0.0, 0.5)

    monkeypatch.setattr(sv, "newton_solve", stub)
    _, rep = sv.continuity_solve(s_tw12, f, steps=5)
    assert not rep.converged
    assert rep.reason == "continuation stalled: max_iter"
    assert 0.95 - 1e-4 <= rep.t_reached <= 0.95 + 1e-9
    assert len(seen) > 5
