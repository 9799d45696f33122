"""Linearization of F, damped Newton iteration, and the continuity method.

L(phi)u = n omega(phi)^{n-1} ^ d(J du) / omega^n is the Frechet derivative
of the discrete F to rounding: it is the same discrete d and wedge, regrouped
into one sum of pair coefficients times unscaled differences
(LinearOperatorHandle), so Newton converges quadratically without any
consistency gap.  Linear
systems are solved matrix-free by GMRES on the complement of the flat kernel
with a real-FFT constant-coefficient preconditioner from the flat phi=0
operator, each only as accurately as its Newton step needs (inexact Newton
with Eisenstat-Walker forcing terms).
"""

from __future__ import annotations

import math
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

# The tightest GMRES relative tolerance a Newton step asks for; the cap on
# Krylov iterations per linear solve and its restart length; the smallest
# damping factor the line search tries before rejecting the step.
LIN_TOL = 1e-10
LIN_MAXITER = 400
LIN_RESTART = 20
MIN_STEP = 1e-4

# Eisenstat-Walker forcing terms (choice 2; SIAM J. Sci. Comput. 17, 1996):
# eta_k = EW_GAMMA (r_k / r_{k-1})^2, floored at max(LIN_TOL, EW_FLOOR tol /
# r_k) and capped at ETA_MAX, which is also eta_0.  Their safeguard
# eta_k >= EW_GAMMA eta_{k-1}^2, applied when that exceeds 0.1, never acts
# under this cap (EW_GAMMA ETA_MAX^2 = 9e-5), so it is left out.  r is a
# sup-norm while GMRES tests a 2-norm, hence a floor constant well under
# Kelley's 0.5.
ETA_MAX = 1e-2
EW_GAMMA = 0.9
EW_FLOOR = 0.01


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
    """Matrix-free application of L(phi) from B = d(J dphi) (a FormField),
    which the handle takes over: omega(phi) = omega + B is formed in B's own
    storage, so at n = 2 the coefficients are B's array and no second
    form-size array is built.  The solvers, not the handle, check that phi
    is taming (L elliptic).

    L(phi)u = n omega(phi)^{n-1} ^ d(J du) / omega^n is one sum over the
    pairs P = (a, b) of the wedge table, each P with its complement I and
    sign eps: (n/n!) eps (omega(phi)^{n-1})_I (D_a v_b - D_b v_a), v = J du.
    With the unscaled differences Delta_k = 2h_k D_k the handle keeps
    coef[I] = (n/n!) eps (omega(phi)^{n-1})_I / (2h_a), scaled in place, and
    Jt[k, i] = J[k, i] / (2h_k) on J's lattice, so an apply is
    sum_P coef_P (Delta_a v_b - (h_a/h_b) Delta_b v_a) with v = Jt Delta u.
    Pairs whose coefficient vanishes everywhere (the flat base) are left out.
    """

    def __init__(self, s, B):
        self.s = s
        chart = s.chart
        n = s.half_dim
        h = chart.spacing
        B.comps += forms.omega_form(s).comps
        self.coef = cy._wedge_power(B, n - 1).comps
        pairs = forms.multi_indices(chart.dim, 2)
        self.terms = []
        for I, P, _, sign in forms.wedge_table(chart.dim, chart.dim - 2, 2):
            a, b = pairs[P]
            self.coef[I] *= n * sign / (math.factorial(n) * 2.0 * h[a])
            if np.any(self.coef[I]):
                self.terms.append((I, a, b, h[a] / h[b]))
        self.Jt = s.J / (2.0 * np.array(h)).reshape((-1, 1) + (1,) * chart.dim)

    def apply(self, u):
        """L(phi)u as a grid scalar field, in the row groups of grid axis 0
        (cy._in_groups): each group runs its own slab chain over its rows
        (cy._halo_slabs), with its own slab buffers, and writes its rows of
        the output in place, so no grid-size du, J du or d(J du) is built.
        Every value is bitwise the same on any number of CPUs."""
        shape = self.s.chart.shape
        u = np.asarray(u, dtype=float).reshape(shape)
        if not self.terms:
            return np.zeros(shape)
        out = np.empty(shape)
        cy._in_groups(shape, lambda lo, hi: self._apply_rows(u, out, lo, hi))
        return out

    def _apply_rows(self, u, out, first, last):
        """Rows [first, last) of L(phi)u into out, slab by slab."""
        chart = self.s.chart
        t = p = None

        def build(r0, r1, rows):
            cy._j_gradient_rows(chart, self.Jt, u, r0, r1, rows, scaled=False)

        for lo, hi, v in cy._halo_slabs(chart.shape, chart.dim, float, build,
                                        first, last):
            if t is None:              # the first slab is the largest
                t, p = np.empty_like(v[0, 1:-1]), np.empty_like(v[0, 1:-1])
            ts, ps, rows = t[:hi - lo], p[:hi - lo], out[lo:hi]
            for k, (I, a, b, ratio) in enumerate(self.terms):
                _slab_delta(chart, v, b, a, ts)        # Delta_a v_b
                _slab_delta(chart, v, a, b, ps)        # Delta_b v_a
                if ratio != 1.0:
                    ps *= ratio
                ts -= ps
                if k == 0:
                    np.multiply(ts, cy._rows(self.coef[I], 0, lo, hi), out=rows)
                else:
                    ts *= cy._rows(self.coef[I], 0, lo, hi)
                    rows += ts


def _slab_delta(chart, v, i, d, out):
    """Unscaled axis-d difference of v_i on a slab's rows into out; v holds
    the rows with one halo row on each side."""
    if d == 0:
        return cy._delta_rows(v[i], out)
    return chart.delta(v[i, 1:-1], d, out=out)


def make_handle(s, phi):
    return LinearOperatorHandle(s, cy.deformation_form(s, phi))


def _taming_start(s, B):
    """Taming margin of a solver's starting point, from its B = d(J dphi);
    raises unless L(phi) is elliptic there."""
    margin = cy._margin_of(s, B)
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
        # Parity classes per axis: 2 on an even axis, 1 on an odd one.
        classes = [2 - N % 2 for N in self.shape]
        self.kernel_dim = int(np.prod(classes))
        # project() views axis d as (N / classes, classes), averages over
        # the first factor and tiles the class means back over it.
        self.split = [m for N, c in zip(self.shape, classes) for m in (N // c, c)]
        self.class_axes = tuple(range(0, 2 * len(self.shape), 2))
        self.reps = [N // c for N, c in zip(self.shape, classes)]
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
        # The tiled means are subtracted as one contiguous field: a
        # broadcast over the length-2 class axes is about twice as slow.
        mean = np.tile(mean.reshape(self.split[1::2]), self.reps)
        return v.reshape(self.shape) - mean

    def __call__(self, r):
        """rfftn, a multiply by the inverse symbol, and irfftn, spelled as
        numpy spells them (a real transform of the last axis, complex ones
        over the others in reverse order, and back in forward order) but
        in place in one spectrum, which is allocated per call.

        The passes run in the row groups of the grid (cy._in_groups): the
        real transform and the complex ones over axes 1 ... d-1 split over
        axis 0, the axis-0 transforms and the multiply over axis 1, and the
        inverse passes, the real one into the output's rows, over axis 0.
        Each group transforms whole lines, so every value is bitwise that
        of the serial passes on any number of CPUs."""
        shape = self.shape
        last = len(shape) - 1
        r = r.reshape(shape)
        rhat = np.empty(self.inv_sym.shape, dtype=complex)
        out = np.empty(shape)

        def forward(lo, hi):
            rows = rhat[lo:hi]
            np.fft.rfft(r[lo:hi], axis=last, out=rows)
            for axis in reversed(range(1, last)):
                np.fft.fft(rows, axis=axis, out=rows)

        def along_axis0(lo, hi):
            cols = rhat[:, lo:hi]
            np.fft.fft(cols, axis=0, out=cols)
            cols *= self.inv_sym[:, lo:hi]
            np.fft.ifft(cols, axis=0, out=cols)

        def inverse(lo, hi):
            rows = rhat[lo:hi]
            for axis in range(1, last):
                np.fft.ifft(rows, axis=axis, out=rows)
            np.fft.irfft(rows, n=shape[-1], axis=last, out=out[lo:hi])

        cy._in_groups(shape, forward)
        cy._in_groups((shape[1], shape[0]) + shape[2:], along_axis0)
        cy._in_groups(shape, inverse)
        return out

    def kernel_modes(self):
        """The flat kernel's basis, shape (kernel_dim, *shape): the indicator
        field of each parity class."""
        onehot = np.eye(self.kernel_dim).reshape(
            [-1] + [m for c in self.split[1::2] for m in (1, c)])
        modes = np.broadcast_to(onehot, [self.kernel_dim] + self.split)
        return modes.reshape((-1,) + self.shape)


def _givens(f, g):
    """LAPACK's dlartg (3.10 and later) in its unscaled range, which holds
    the Hessenberg entries of a preconditioned system: (c, s, r) with
    c f + s g = r and -s f + c g = 0."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    d = math.sqrt(f * f + g * g)
    r = math.copysign(d, f)
    return abs(f) / d, g / r, r


def gmres(A, b, M, rtol, restart, maxiter):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986)
    for A x = b from x = 0, left-preconditioned by M, to the true residual
    test ||b - A x||_2 <= rtol ||b||_2; A and M map flat vectors to flat
    vectors.

    scipy 1.17's algorithm (modified Gram-Schmidt Arnoldi, Givens
    rotations, the inner test on the preconditioned residual estimate and
    its tolerance update between restart cycles), so the iterates match
    scipy.sparse.linalg.gmres to rounding; M b is computed once and starts
    the first cycle.  maxiter caps the Krylov iterations; each cycle adds
    one A-apply for its true residual.  Returns (x, r, info): r = b - A x
    from the last test, info 0 if it passed, else the iterations run.
    Beside the basis v it keeps only x and b: M b and each cycle's r and
    M r are dropped once used, and each new Krylov vector is
    orthogonalised in its own row of v.
    """
    n = b.size
    bnrm2 = np.linalg.norm(b)
    atol = rtol * bnrm2
    x = np.zeros(n)
    if bnrm2 <= atol:
        return x, b.copy(), 0
    eps = np.finfo(float).eps
    restart = min(restart, n)
    z = M(b)
    ptol_max_factor = 1.0
    ptol = np.linalg.norm(z) * min(ptol_max_factor, atol / bnrm2)
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    iters = 0
    while True:
        v[0] = z
        del z
        tmp = np.linalg.norm(v[0])
        v[0] *= 1 / tmp
        S = np.zeros(restart + 1)
        S[0] = tmp
        breakdown = False
        for col in range(restart):
            w = v[col + 1]
            w[...] = M(A(v[col]))
            h0 = np.linalg.norm(w)
            for k in range(col + 1):   # modified Gram-Schmidt
                tmp = np.dot(v[k], w)
                h[col, k] = tmp
                w -= tmp * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            if h1 <= eps * h0:   # exact solution in the Krylov space
                h[col, col + 1] = 0.0
                breakdown = True
            else:
                v[col + 1] *= 1 / h1
            for k in range(col):
                c, s = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, mag = _givens(h[col, col], h[col, col + 1])
            givens[col] = c, s
            h[col, col], h[col, col + 1] = mag, 0.0
            tmp = -s * S[col]
            S[col], S[col + 1] = c * S[col], tmp
            presid = abs(tmp)
            iters += 1
            if presid <= ptol or breakdown or iters >= maxiter:
                break
        if h[col, col] == 0.0:
            S[col] = 0.0
        y = S[: col + 1].copy()   # back substitution in the triangular h
        for k in range(col, 0, -1):
            if y[k] != 0.0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0.0:
            y[0] /= h[0, 0]
        x += y @ v[: col + 1]
        r = b - A(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown or iters >= maxiter:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
        z = M(r)
        del r
    return x, r, 0 if rnorm <= atol else iters


def _projected_apply(handle, precond, u):
    """P L(phi) P u, flattened, with P the flat-kernel projection: the
    operator GMRES inverts and kernel_check audits."""
    u = precond.project(u)
    return precond.project(handle.apply(u)).ravel()


def _solve_linear(s, handle, rhs, precond, rtol):
    """GMRES for L(phi) delta = rhs on the complement of the flat kernel, to
    ||P L P delta - P rhs||_2 <= rtol ||P rhs||_2.

    At most LIN_MAXITER Krylov iterations run, plus one L-apply per restart
    cycle for its true residual; the last one gives the sup-norm lin_res.
    The returned delta is GMRES's iterate: P L P does not see its
    flat-kernel part, which is rounding.
    """
    rhs = precond.project(rhs).ravel()
    x, r, info = gmres(lambda u: _projected_apply(handle, precond, u), rhs,
                       lambda r: precond(r).ravel(), rtol,
                       min(LIN_RESTART, LIN_MAXITER), LIN_MAXITER)
    if info != 0:
        raise SolverFailure(f"linear solve stagnated (GMRES info={info})")
    return x.reshape(s.chart.shape), float(np.abs(r).max())


def _check_target(s, f):
    f = np.asarray(f, dtype=float) + np.zeros(s.chart.shape)
    # NaN fails every comparison below, so it is rejected first.
    if not np.isfinite(f).all():
        raise PreconditionError("target density must be finite")
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

    Each step solves its linear system only to the relative tolerance eta
    of the Eisenstat-Walker rule (see ETA_MAX), computed from the reachable
    residual res_proj: that is the residual of the equation Newton can
    solve, the one GMRES sees as its right-hand side and the line search
    measures progress on.  The full residual would read aliasing-floor
    content as stagnation.

    Each trace row is (iteration, residual, taming margin, step length,
    sup-norm linear residual of the GMRES solve that gave the step, and the
    forcing term eta that solve was given).
    """
    chart = s.chart
    f = _check_target(s, f)
    phi = (
        np.zeros(chart.shape)
        if phi_init is None
        else cy._values(phi_init) + np.zeros(chart.shape)
    )
    phi = cy.project_zero_mean(s, phi).values

    trace = []
    # One d(J dphi) per iterate and per trial serves its taming margin, F
    # and, once a linear solve follows, the handle of L(phi).
    B = cy.deformation_form(s, phi)
    margin = _taming_start(s, B)
    precond = _Preconditioner(chart)
    res_field = f - cy._F_total(s, B, return_components=False)
    res = float(np.abs(res_field).max())
    # The line search measures progress on the component the operator can
    # actually reach; the complement (flat-kernel modes of the target) is an
    # aliasing floor no iterate can reduce.
    res_proj = float(np.abs(precond.project(res_field)).max())
    it = 0
    eta = ETA_MAX
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
        if it > 0:
            ew = EW_GAMMA * (res_proj / prev_proj) ** 2
            eta = min(ETA_MAX, max(ew, LIN_TOL, EW_FLOOR * tol / res_proj))
        prev_proj = res_proj
        handle = LinearOperatorHandle(s, B)
        del B
        delta, lin_res = _solve_linear(s, handle, res_field, precond, eta)
        del handle
        alpha = 1.0
        accepted = False
        while alpha >= MIN_STEP:
            cand = phi + alpha * delta
            B = cy.deformation_form(s, cand)
            trial = cy._margin_of(s, B)
            if trial > cy.TAMING_THRESHOLD:
                new_res_field = f - cy._F_total(s, B, return_components=False)
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
        trace.append((it, res, margin, alpha, lin_res, eta))

    pot = cy.project_zero_mean(s, phi)
    return pot, SolveReport(True, it, res, margin, trace=trace)


def continuity_solve(s, f, steps=10, tol=1e-8, max_iter=12):
    """Continuation along f_t = c_t((1-t) + t f), multiplicative c_t keeping
    unit mass; Newton restarts from the previous solution.

    A failed Newton step retries with half the step it tried, t_next - t,
    or half of dt if that is less, so the retry's target lies below the
    failed one even when that was clamped to t = 1 and no (phi, f_t) is
    solved twice.  Each accepted step doubles dt again, up to 1/steps.  A
    PreconditionError or ConsistencyError from a Newton step ends the path
    with a failed report whose reason names the error, like a stalled
    continuation.
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
                dt = min(dt / 2, (t_next - t) / 2)
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
    B = cy.deformation_form(s, phi)
    margin = _taming_start(s, B)
    handle = LinearOperatorHandle(s, B)
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
