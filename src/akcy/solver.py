"""Linearization of F, damped Newton iteration, and the continuity method.

L(phi)u = n omega(phi)^{n-1} ^ d(J du) / omega^n is the exact Frechet
derivative of the discrete F (both are built from the same discrete wedge and
d), so Newton converges quadratically without any consistency gap.  Linear
systems are solved matrix-free by GMRES on the complement of the flat kernel
with a real-FFT constant-coefficient preconditioner from the flat phi=0
operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import cy_operator as cy
from . import forms
from .errors import ConsistencyError, PreconditionError, SolverFailure

__all__ = [
    "LinearOperatorHandle",
    "SolveReport",
    "make_handle",
    "newton_solve",
    "continuity_solve",
    "kernel_check",
]

# GMRES relative tolerance and iteration cap of each Newton step, and the
# smallest damping factor the line search tries before rejecting the step.
LIN_TOL = 1e-10
LIN_MAXITER = 400
MIN_STEP = 1e-4


@dataclass
class SolveReport:
    converged: bool
    iters: int
    residual: float
    margin: float
    t_reached: float = 1.0
    reason: str = ""
    trace: list = field(default_factory=list)

    def as_dict(self):
        return {
            "converged": self.converged,
            "iters": self.iters,
            "residual": self.residual,
            "margin": self.margin,
            "t_reached": self.t_reached,
            "reason": self.reason,
        }


class LinearOperatorHandle:
    """Matrix-free application of L(phi) with cached omega(phi)^{n-1}; the
    solvers, not the handle, check that phi is taming (L elliptic)."""

    def __init__(self, s, phi):
        self.s = s
        self.n = s.half_dim
        self.wn1 = cy._wedge_power(cy.deformed_form(s, cy._values(phi)), self.n - 1)

    def apply(self, u):
        """L(phi)u as a grid scalar field."""
        u = np.asarray(u, dtype=float).reshape(self.s.chart.shape)
        dJdu = cy.deformation_form(self.s, u)
        top = forms.wedge(self.wn1, dJdu)
        return self.n * forms.top_ratio(self.s, top)


def make_handle(s, phi):
    return LinearOperatorHandle(s, phi)


def _taming_start(s, phi):
    """Taming margin of a solver's starting point; raises unless L(phi) is
    elliptic there."""
    margin = cy.taming_margin(s, phi)
    if margin <= cy.TAMING_THRESHOLD:
        raise PreconditionError(
            f"linearization base is not taming (margin {margin:.3e}); "
            "ellipticity lost"
        )
    return margin


def _fft_symbol(chart):
    """Symbol of the centered-difference flat Laplacian-type operator:
    sum_d (sin(2 pi k_d h_d)/h_d)^2 on the FFT lattice."""
    sym = np.zeros(chart.shape)
    for d in range(chart.dim):
        N = chart.resolution[d]
        h = chart.spacing[d]
        k = np.fft.fftfreq(N, d=1.0) * N
        s1 = (np.sin(2.0 * np.pi * k / N) / h) ** 2
        shape = [1] * chart.dim
        shape[d] = N
        sym = sym + s1.reshape(shape)
    return sym


class _Preconditioner:
    """Flat-kernel projection and real-FFT inverse of the flat symbol.

    Centered differences annihilate the constant and every checkerboard mode
    (all wavenumbers in {0, N/2}), so those modes form the (near-)kernel of
    L on any grid.  They span exactly the fields that depend only on each
    index's parity (only the constant on an odd axis), so project() removes
    them by subtracting the parity-class mean, without a transform.  The
    preconditioner inverts the symbol on the complement with one real FFT
    pair and zeroes the kernel.  On the taming cone L has the positive sign
    of the flat symbol.
    """

    def __init__(self, chart):
        self.shape = tuple(chart.shape)
        self.axes = tuple(range(len(self.shape)))
        # Parity classes per axis: 2 on an even axis, 1 on an odd one.
        classes = [2 - N % 2 for N in self.shape]
        self.kernel_dim = int(np.prod(classes))
        # project() views axis d as (N / classes, classes) and averages over
        # the first factor.
        self.split = [m for N, c in zip(self.shape, classes) for m in (N // c, c)]
        self.class_axes = tuple(range(0, 2 * len(self.shape), 2))
        sym = _fft_symbol(chart)[..., : self.shape[-1] // 2 + 1]
        # The kernel wavenumbers are the multiples of N / classes per axis.
        sym[np.ix_(*(np.arange(M) % (N // c) == 0
                     for M, N, c in zip(sym.shape, self.shape, classes)))] = np.inf
        self.inv_sym = 1.0 / sym

    def project(self, u):
        v = np.asarray(u, dtype=float).reshape(self.split)
        # One axis at a time: numpy reduces over several strided axes at
        # once about 15 times slower.
        mean = v
        for axis in self.class_axes:
            mean = mean.mean(axis=axis, keepdims=True)
        return (v - mean).reshape(self.shape)

    def __call__(self, r):
        rhat = np.fft.rfftn(r.reshape(self.shape), axes=self.axes)
        rhat *= self.inv_sym
        return np.fft.irfftn(rhat, s=self.shape, axes=self.axes)

    def kernel_modes(self):
        """The flat kernel's basis, shape (kernel_dim, *shape): the indicator
        field of each parity class."""
        onehot = np.eye(self.kernel_dim).reshape(
            [-1] + [m for c in self.split[1::2] for m in (1, c)])
        modes = np.broadcast_to(onehot, [self.kernel_dim] + self.split)
        return modes.reshape((-1,) + self.shape)


def gmres(A, b, **kwargs):
    """scipy's GMRES, imported on first use.

    Importing scipy.sparse.linalg takes about 0.3 s and 30 MB, more than half
    of `import akcy`; commands that never solve a linear system (analyze,
    boundary) should not pay it.  newton_solve imports it before it
    allocates any field, so that its memory does not land above them.
    """
    from scipy.sparse.linalg import gmres as scipy_gmres

    return scipy_gmres(A, b, **kwargs)


def _projected_apply(handle, precond, u):
    """P L(phi) P u, flattened, with P the flat-kernel projection: the
    operator GMRES inverts and kernel_check audits."""
    u = precond.project(u)
    return precond.project(handle.apply(u)).ravel()


def _solve_linear(s, handle, rhs, precond):
    """GMRES for L(phi) delta = rhs on the complement of the flat kernel."""
    from scipy.sparse.linalg import LinearOperator

    npts = int(np.prod(s.chart.shape))
    rhs = precond.project(rhs).ravel()
    A = LinearOperator((npts, npts), matvec=lambda u: _projected_apply(handle, precond, u))
    M = LinearOperator((npts, npts), matvec=lambda r: precond(r).ravel())
    x, info = gmres(A, rhs, rtol=LIN_TOL, atol=0.0, maxiter=LIN_MAXITER, M=M)
    if info != 0:
        raise SolverFailure(f"linear solve stagnated (GMRES info={info})")
    x = precond.project(x)
    lin_res = float(np.abs(_projected_apply(handle, precond, x.ravel()) - rhs).max())
    return x, lin_res


def _check_target(s, f):
    f = np.asarray(f, dtype=float) + np.zeros(s.chart.shape)
    mass = forms.integrate(s, f)
    if abs(mass - 1.0) > 1e-10:
        raise PreconditionError(
            f"target density violates mass constraint: integral {mass!r} != 1"
        )
    if f.min() <= 0.0:
        raise PreconditionError("target density must be strictly positive")
    return f


def newton_solve(s, f, phi_init=None, tol=1e-8, max_iter=12):
    """Damped Newton for F(phi) = f inside the taming cone.

    Each trace row is (iteration, residual, taming margin, step length,
    sup-norm linear residual of the GMRES solve that gave the step).
    """
    import scipy.sparse.linalg  # noqa: F401  (see gmres)

    chart = s.chart
    f = _check_target(s, f)
    phi = (
        np.zeros(chart.shape)
        if phi_init is None
        else cy._values(phi_init) + np.zeros(chart.shape)
    )
    phi = cy.project_zero_mean(s, phi).values

    trace = []
    margin = _taming_start(s, phi)
    handle = make_handle(s, phi)
    precond = _Preconditioner(chart)
    res_field = f - cy.F_total(s, phi)
    res = float(np.abs(res_field).max())
    # The line search measures progress on the component the operator can
    # actually reach; the complement (flat-kernel modes of the target) is an
    # aliasing floor no iterate can reduce.
    res_proj = float(np.abs(precond.project(res_field)).max())
    it = 0
    while res > tol:
        if res_proj <= 0.1 * tol:
            report = SolveReport(False, it, res, margin, reason="aliasing_floor",
                                 trace=trace)
            raise SolverFailure(
                f"target has flat-kernel content {res:.3e} above tol {tol:.1e}; "
                "the reachable residual component is converged",
                report=report,
            )
        if it >= max_iter:
            report = SolveReport(False, it, res, margin, reason="max_iter",
                                 trace=trace)
            raise SolverFailure("Newton did not converge within max_iter", report=report)
        delta, lin_res = _solve_linear(s, handle, res_field, precond)
        alpha = 1.0
        accepted = False
        while alpha >= MIN_STEP:
            cand = phi + alpha * delta
            trial = cy.taming_margin(s, cand)
            if trial > cy.TAMING_THRESHOLD:
                new_res_field = f - cy.F_total(s, cand)
                new_res = float(np.abs(new_res_field).max())
                new_proj = float(np.abs(precond.project(new_res_field)).max())
                if (new_proj < res_proj * (1.0 - 0.25 * alpha)
                        or new_res < tol or new_proj <= 0.1 * tol):
                    phi = cand
                    margin = trial
                    res_field = new_res_field
                    res = new_res
                    res_proj = new_proj
                    accepted = True
                    break
            alpha *= 0.5
        it += 1
        if not accepted:
            reason = "margin_collapse" if trial <= cy.TAMING_THRESHOLD else "stagnation"
            report = SolveReport(False, it, res, trial, reason=reason, trace=trace)
            raise SolverFailure(f"Newton step rejected ({reason})", report=report)
        handle = make_handle(s, phi)
        trace.append((it, res, margin, alpha, lin_res))

    pot = cy.project_zero_mean(s, phi)
    return pot, SolveReport(True, it, res, margin, trace=trace)


def continuity_solve(s, f, steps=10, tol=1e-8, max_iter=12):
    """Continuation along f_t = c_t((1-t) + t f), multiplicative c_t keeping
    unit mass; Newton restarts from the previous solution.

    A failed Newton step halves dt and retries; each accepted step doubles it
    again, up to 1/steps.  A PreconditionError or ConsistencyError from a
    Newton step ends the path with a failed report whose reason names the
    error, like a stalled continuation.
    """
    f = _check_target(s, f)
    phi = np.zeros(s.chart.shape)
    t = 0.0
    dt = 1.0 / steps
    trace = []
    while t < 1.0 - 1e-12:
        t_next = min(1.0, t + dt)
        blend = (1.0 - t_next) + t_next * f
        ft = blend / forms.integrate(s, blend)
        try:
            pot, rep = newton_solve(s, ft, phi_init=phi, tol=tol, max_iter=max_iter)
        except (PreconditionError, ConsistencyError) as exc:
            failed, reason = None, f"{type(exc).__name__}: {exc}"
        except SolverFailure as exc:
            failed = exc.report
            if failed is not None and failed.reason == "aliasing_floor":
                reason = "aliasing_floor"
            else:
                dt *= 0.5
                if dt >= 1e-4:
                    continue
                reason = f"continuation stalled: {failed.reason if failed else ''}"
        else:
            phi = pot.values
            t = t_next
            trace.append((t, rep.residual, rep.margin))
            dt = min(2.0 * dt, 1.0 / steps)
            continue
        base = failed if failed is not None else SolveReport(False, 0, np.inf, np.nan)
        rep = replace(base, converged=False, t_reached=t, reason=reason, trace=trace)
        return cy.Potential(s.chart, phi), rep
    return cy.Potential(s.chart, phi), replace(rep, trace=trace)   # rep: the last step


def kernel_check(s, phi):
    """Dense audit of the operator GMRES inverts, P L(phi) P, on a small grid.

    Centered differences are exactly blind to the flat kernel (the constant
    and every checkerboard mode), whatever phi; on its complement L should
    be invertible with a spectral-gap-sized smallest singular value.
    Returns the sup over the kernel modes k of |L(phi)k|, the kernel
    dimension, that smallest singular value, and the taming margin of phi.
    """
    chart = s.chart
    npts = int(np.prod(chart.shape))
    if npts > 8192:
        raise PreconditionError(
            f"kernel_check builds a dense {npts}x{npts} matrix; use a grid "
            "with at most 8192 points"
        )
    margin = _taming_start(s, phi)
    handle = make_handle(s, phi)
    precond = _Preconditioner(chart)
    kernel_defect = float(max(np.abs(handle.apply(k)).max() for k in precond.kernel_modes()))
    A = np.empty((npts, npts))
    for j in range(npts):
        A[:, j] = _projected_apply(handle, precond, np.eye(1, npts, j))
    kdim = precond.kernel_dim
    sv = np.linalg.svd(A, compute_uv=False)   # ends with kdim zeros from P
    return {
        "kernel_defect": kernel_defect,
        "kernel_dim": kdim,
        "subspace_smallest": float(sv[-(kdim + 1)]),
        "margin": margin,
    }
