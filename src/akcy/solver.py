"""Linearization of F, damped Newton iteration, and the continuity method.

L(phi)u = n omega(phi)^{n-1} ^ d(J du) / omega^n is the exact Frechet
derivative of the discrete F (both are built from the same discrete wedge and
d), so Newton converges quadratically without any consistency gap.  Linear
systems are solved matrix-free by GMRES on the zero-mean subspace with an
FFT constant-coefficient preconditioner from the flat phi=0 operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

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
    """Matrix-free application of L(phi) with cached omega(phi)^{n-1}."""

    def __init__(self, s, phi, check_taming=True):
        self.s = s
        self.phi = cy._values(phi)
        self.margin = cy.taming_margin(s, self.phi)
        if check_taming and self.margin <= cy.TAMING_THRESHOLD:
            raise PreconditionError(
                f"linearization base is not taming (margin {self.margin:.3e}); "
                "ellipticity lost"
            )
        self.n = s.half_dim
        self.wn1 = cy._wedge_power(cy.deformed_form(s, self.phi), self.n - 1)

    def apply(self, u):
        """L(phi)u as a grid scalar field."""
        u = np.asarray(u, dtype=float).reshape(self.s.chart.shape)
        dJdu = cy.deformation_form(self.s, u)
        top = forms.wedge(self.wn1, dJdu)
        return self.n * forms.top_ratio(self.s, top)


def make_handle(s, phi, check_taming=True):
    return LinearOperatorHandle(s, phi, check_taming=check_taming)


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
    """FFT inverse of the signed flat symbol.

    Centered differences annihilate the constant and every checkerboard mode
    (all wavenumbers in {0, N/2}), so those modes form the (near-)kernel of
    L on any grid.  The preconditioner zeroes them and inverts the symbol on
    the complement; project() restricts a field to that complement.
    """

    def __init__(self, s, handle):
        chart = s.chart
        self.chart = chart
        sym = _fft_symbol(chart)
        self.kernel_mask = sym <= 1e-12 * sym.max()
        # Determine the sign convention of L by probing a plane wave.
        x1 = chart.grid_points()[..., 0]
        u = np.sin(2.0 * np.pi * x1)
        Lu = handle.apply(u)
        sign = 1.0 if float(np.sum(Lu * u)) > 0 else -1.0
        safe = np.where(self.kernel_mask, 1.0, sign * sym)
        self.inv_sym = np.where(self.kernel_mask, 0.0, 1.0 / safe)

    def project(self, u):
        uhat = np.fft.fftn(np.asarray(u, dtype=float).reshape(self.chart.shape))
        uhat[self.kernel_mask] = 0.0
        return np.fft.ifftn(uhat).real

    def __call__(self, r):
        rhat = np.fft.fftn(r.reshape(self.chart.shape))
        return np.fft.ifftn(rhat * self.inv_sym).real


def _solve_linear(s, handle, rhs, precond):
    """GMRES for L(phi) delta = rhs on the complement of the flat kernel."""
    chart = s.chart
    npts = int(np.prod(chart.shape))
    rhs = precond.project(rhs).ravel()

    def matvec(u):
        u = precond.project(u)
        return precond.project(handle.apply(u)).ravel()

    A = LinearOperator((npts, npts), matvec=matvec)
    M = LinearOperator((npts, npts), matvec=lambda r: precond(r).ravel())
    x, info = gmres(A, rhs, rtol=LIN_TOL, atol=0.0, maxiter=LIN_MAXITER, M=M)
    if info != 0:
        raise SolverFailure(f"linear solve stagnated (GMRES info={info})")
    x = precond.project(x)
    lin_res = float(np.abs(matvec(x.ravel()).reshape(chart.shape)
                           - rhs.reshape(chart.shape)).max())
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
    """Damped Newton for F(phi) = f inside the taming cone."""
    chart = s.chart
    f = _check_target(s, f)
    phi = (
        np.zeros(chart.shape)
        if phi_init is None
        else cy._values(phi_init) + np.zeros(chart.shape)
    )
    phi = cy.project_zero_mean(s, phi).values

    trace = []
    handle = make_handle(s, phi)
    precond = _Preconditioner(s, handle)
    res_field = f - cy.F_total(s, phi)
    res = float(np.abs(res_field).max())
    # The line search measures progress on the component the operator can
    # actually reach; the complement (flat-kernel modes of the target) is an
    # aliasing floor no iterate can reduce.
    res_proj = float(np.abs(precond.project(res_field)).max())
    it = 0
    while res > tol:
        if res_proj <= 0.1 * tol:
            report = SolveReport(False, it, res, handle.margin, reason="aliasing_floor",
                                 trace=trace)
            raise SolverFailure(
                f"target has flat-kernel content {res:.3e} above tol {tol:.1e}; "
                "the reachable residual component is converged",
                report=report,
            )
        if it >= max_iter:
            report = SolveReport(False, it, res, handle.margin, reason="max_iter",
                                 trace=trace)
            raise SolverFailure("Newton did not converge within max_iter", report=report)
        delta, lin_res = _solve_linear(s, handle, res_field, precond)
        alpha = 1.0
        accepted = False
        while alpha >= MIN_STEP:
            cand = phi + alpha * delta
            margin = cy.taming_margin(s, cand)
            if margin > cy.TAMING_THRESHOLD:
                new_res_field = f - cy.F_total(s, cand)
                new_res = float(np.abs(new_res_field).max())
                new_proj = float(np.abs(precond.project(new_res_field)).max())
                if (new_proj < res_proj * (1.0 - 0.25 * alpha)
                        or new_res < tol or new_proj <= 0.1 * tol):
                    phi = cand
                    res_field = new_res_field
                    res = new_res
                    res_proj = new_proj
                    accepted = True
                    break
            alpha *= 0.5
        it += 1
        if not accepted:
            reason = "margin_collapse" if margin <= cy.TAMING_THRESHOLD else "stagnation"
            report = SolveReport(False, it, res, margin, reason=reason, trace=trace)
            raise SolverFailure(f"Newton step rejected ({reason})", report=report)
        handle = make_handle(s, phi)
        trace.append((it, res, handle.margin, alpha))

    pot = cy.project_zero_mean(s, phi)
    return pot, SolveReport(True, it, res, handle.margin, trace=trace)


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
    last_report = None
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
            last_report = rep
            dt = min(2.0 * dt, 1.0 / steps)
            continue
        base = failed if failed is not None else SolveReport(False, 0, np.inf, np.nan)
        rep = replace(base, converged=False, t_reached=t, reason=reason, trace=trace)
        return cy.Potential(s.chart, phi), rep
    rep = SolveReport(
        True,
        last_report.iters if last_report else 0,
        last_report.residual if last_report else 0.0,
        last_report.margin if last_report else cy.taming_margin(s, phi),
        t_reached=1.0,
        trace=trace,
    )
    return cy.Potential(s.chart, phi), rep


def kernel_check(s, phi, num_singular=4):
    """Dense near-kernel audit of L(phi) on a small grid.

    Centered differences are exactly blind to the constant and to every
    checkerboard mode (all wavenumbers in {0, N/2}), so the discrete kernel
    of L has dimension 2^{2n} regardless of phi; on the complement the
    operator is invertible with a spectral-gap-sized smallest singular value.
    Returns L(phi)1 sup-norm, the smallest singular values of the raw
    operator, the kernel dimension, and the smallest singular value on the
    working (flat-kernel-free) subspace.
    """
    chart = s.chart
    npts = int(np.prod(chart.shape))
    if npts > 8192:
        raise PreconditionError(
            f"kernel_check builds a dense {npts}x{npts} matrix; use a grid "
            "with at most 8192 points"
        )
    handle = make_handle(s, phi)
    precond = _Preconditioner(s, handle)
    const_defect = float(np.abs(handle.apply(np.ones(chart.shape))).max())
    A = np.empty((npts, npts))
    e = np.zeros(npts)
    for j in range(npts):
        e[j] = 1.0
        A[:, j] = handle.apply(e.reshape(chart.shape)).ravel()
        e[j] = 0.0
    sv = np.linalg.svd(A, compute_uv=False)
    kdim = int(precond.kernel_mask.sum())
    # Project rows and columns onto the working subspace; the projected
    # operator carries kdim artificial zeros, so its subspace spectrum starts
    # at index -(kdim+1).
    B = np.empty_like(A)
    for j in range(npts):
        B[:, j] = precond.project(A[:, j]).ravel()
    for i in range(npts):
        B[i, :] = precond.project(B[i, :]).ravel()
    svp = np.linalg.svd(B, compute_uv=False)
    return {
        "const_defect": const_defect,
        "smallest_singular_values": [float(v) for v in sv[-num_singular:]],
        "kernel_dim": kdim,
        "subspace_smallest": float(svp[-(kdim + 1)]),
        "margin": handle.margin,
    }
