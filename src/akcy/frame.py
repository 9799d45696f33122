"""Unitary frames, the second canonical connection, torsion, and covariant
derivatives of potentials.

Two evaluation paths share only the Gram-Schmidt frame:

* the grid path differentiates the structure's fields with the chart's
  centered differences and builds the connection, the torsion and the
  covariant Hessian; it is the O(h^2) validation reference of the
  frame-coefficient formulas (tau_coefficients, hermitian_coefficients);
* the pointwise path (`LocalGeometry`) evaluates the analytic structure at
  arbitrary points and keeps J, g, the frame and dJ, a small-step central
  difference of the closed form.  d(J dphi) is taken there in coordinates
  (`deformation_at`), and tau and H are read off it on the frame
  (`tau_at`, `hermitian_at`); the boundary module uses it to scan
  polydisks far below the grid scale.

The connection is realized as Levi-Civita corrected by -J(grad J)/2, the
closed form of the unique almost-Hermitian connection with vanishing (1,1)
torsion on an almost-Kahler manifold; its defining identities are checked
numerically rather than assumed.

The (0,2) torsion components relate to the bracket Nijenhuis tensor by
N^a_{bc} = theta^a(N(e_b conj, e_c conj)) / 8; the 1/8 comes from
N(X,Y) = -2[X,Y] - 2iJ[X,Y] on (0,1) pairs together with the factor-2
conventions of the coefficient expansion (asserted in the tests, not tuned).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms
from .errors import FrameError
from .structure import CompatibleStructure

__all__ = [
    "UnitaryFrame",
    "ConnectionField",
    "TorsionField",
    "CovariantHessian",
    "build_frame",
    "connection_forms",
    "torsion",
    "nijenhuis_coordinate",
    "covariant_hessian",
    "tau_coefficients",
    "hermitian_coefficients",
    "frame_tau_components",
    "frame_hermitian_components",
    "deformation_at",
    "tau_at",
    "hermitian_at",
    "LocalGeometry",
    "TORSION_NIJENHUIS_RATIO",
]

# Desk-derived proportionality between frame (0,2) torsion and the bracket tensor.
TORSION_NIJENHUIS_RATIO = 0.125

UNITARITY_TOL = 1e-10
DEGENERACY_TOL = 1e-8
# Central-difference step of the pointwise path (LocalGeometry).
FD_STEP = 1e-5


@dataclass
class UnitaryFrame:
    """Pointwise basis e_1..e_n of T^{1,0} with dual (1,0)-coframe theta."""

    chart: object
    e: np.ndarray        # (n, 2n, *bshape) complex
    theta: np.ndarray    # (n, 2n, *bshape) complex
    max_neighbor_jump: float = 0.0

    @property
    def half_dim(self):
        return self.e.shape[0]

    def defects(self, g, J):
        """Max violations of unitarity, J-alignment and duality."""
        n = self.half_dim
        gram = np.einsum("ak...,kl...,bl...->ab...", self.e, g, np.conj(self.e))
        d_unit = np.abs(gram - np.eye(n).reshape((n, n) + (1,) * (gram.ndim - 2))).max()
        Je = np.einsum("kl...,al...->ak...", J, self.e)
        d_align = np.abs(Je - 1j * self.e).max()
        dual = np.einsum("ak...,bk...->ab...", self.theta, self.e)
        d_dual = np.abs(dual - np.eye(n).reshape((n, n) + (1,) * (dual.ndim - 2))).max()
        dual0 = np.einsum("ak...,bk...->ab...", self.theta, np.conj(self.e))
        d_dual0 = np.abs(dual0).max()
        return {
            "unitarity": float(d_unit),
            "J_alignment": float(d_align),
            "duality": float(max(d_dual, d_dual0)),
        }


def _gram_schmidt(J, g, seeds):
    """Shared kernel: J, g shaped (2n, 2n, *trailing); returns (e, theta)."""
    dim = J.shape[0]
    n = dim // 2
    trailing = J.shape[2:]

    def inner(v, u):
        return np.einsum("i...,ij...,j...->...", v, g, u)

    built = []
    eps_vecs = []
    for a in range(n):
        v = np.zeros((dim,) + trailing)
        v[seeds[a]] = 1.0
        for u in built:
            v = v - inner(v, u)[None] * u
        nrm2 = inner(v, v)
        if np.min(nrm2) < DEGENERACY_TOL:
            flat = int(np.argmin(nrm2))
            point = np.unravel_index(flat, nrm2.shape) if nrm2.ndim else ()
            raise FrameError(
                f"Gram-Schmidt degeneracy at seed axis {seeds[a]} "
                f"(residual norm^2 {float(np.min(nrm2)):.3e})",
                point=tuple(int(i) for i in point),
            )
        eps = v / np.sqrt(nrm2)[None]
        Jeps = np.einsum("ij...,j...->i...", J, eps)
        built.extend([eps, Jeps])
        eps_vecs.append((eps, Jeps))

    e = np.stack([(eps - 1j * Jeps) / np.sqrt(2.0) for eps, Jeps in eps_vecs])
    theta = np.einsum("kl...,al...->ak...", g.astype(complex), np.conj(e))
    return e, theta


def build_frame(s):
    """Per-point Gram-Schmidt frame seeded from fixed coordinate vectors.

    The seeds are d/dx_1, d/dx_2, ... (axes 0, 2, 4, ...); degeneracy is
    detected and reported, never silently repaired.  A neighbor-jump scan
    guards against branch flips of the frame between adjacent points.
    """
    def _build():
        e, theta = _gram_schmidt(s.J, s.g, [2 * a for a in range(s.half_dim)])
        jump = 0.0
        for d in range(s.chart.dim):
            axis = e.ndim - s.chart.dim + d
            if e.shape[axis] == 1:
                continue
            jump = max(jump, float(np.abs(e - np.roll(e, 1, axis=axis)).max()))
        thresh = 100.0 * max(s.chart.spacing)
        if jump > thresh:
            raise FrameError(
                f"frame discontinuity: neighbor jump {jump:.3e} exceeds {thresh:.3e}"
            )
        f = UnitaryFrame(s.chart, e, theta, max_neighbor_jump=jump)
        defs = f.defects(s.g, s.J)
        worst = max(defs.values())
        if worst > UNITARITY_TOL:
            raise FrameError(f"frame invariants violated: {defs}")
        return f

    return s.cache("frame", _build)


# ---------------------------------------------------------------------------
# Grid-path connection kernels.

def _lc_bracket(dg):
    """B[i,l,j] = dg[i,l,j] + dg[j,l,i] - dg[l,i,j]."""
    A = dg.transpose((0, 1, 2) + tuple(range(3, dg.ndim)))           # dg[i,l,j]
    Bt = dg.transpose((2, 1, 0) + tuple(range(3, dg.ndim)))          # dg[j,l,i] at [i,l,j]
    Ct = dg.transpose((1, 0, 2) + tuple(range(3, dg.ndim)))          # dg[l,i,j] at [i,l,j]
    return A + Bt - Ct


def _levi_civita(g, dg):
    """Levi-Civita coefficients gamma[k,i,j] from g and dg[d] = partial_d g."""
    ginv = np.moveaxis(np.linalg.inv(np.moveaxis(g, (0, 1), (-2, -1))), (-2, -1), (0, 1))
    return 0.5 * np.einsum("kl...,ilj...->kij...", ginv, _lc_bracket(dg))


def _gamma1(J, dJ, gamma):
    """Second canonical connection coefficients Gamma1[d,k,l].

    gamma comes in as gamma[k,d,l] (Levi-Civita); dJ[d,k,l] = partial_d J^k_l.
    Returns Gamma1[d,k,l] = Gamma^k_{dl} - (J (nabla_d J))^k_l / 2.
    """
    glc = np.einsum("kdl...->dkl...", gamma)
    corr = 0.5 * np.einsum("km...,dml...->dkl...", J, _covariant_J(J, dJ, glc))
    return glc - corr


def _covariant_J(J, dJ, conn):
    """nabla_d J = partial_d J + [conn_d, J] for coefficients conn[d,k,l]."""
    return (
        dJ
        + np.einsum("dkm...,ml...->dkl...", conn, J)
        - np.einsum("km...,dml...->dkl...", J, conn)
    )


def _connection_matrix(theta, e, de, gamma1):
    """omega_a^b(d/dx_d) = theta^b((nabla1_d e_a)); de[d,a,k] = partial_d e_a^k."""
    nab = de + np.einsum("dkl...,al...->dak...", gamma1.astype(complex), e)
    return np.einsum("bk...,dak...->abd...", theta, nab)


def _torsion_components(dtheta, conn_omega, theta, e):
    """Split Theta^a = d theta^a + omega_b^a wedge theta^b into frame components.

    dtheta[d,a,k] = partial_d theta^a_k.  Returns (T, N, mixed) with
    T[a,b,c] = Theta^a(e_b, e_c)/2 and N[a,b,c] = Theta^a(conj e_b, conj e_c)/2.
    """
    B = dtheta.transpose((1, 0, 2) + tuple(range(3, dtheta.ndim)))  # B[a,i,k]
    Bmat = B - np.swapaxes(B, 1, 2)                       # d theta^a as matrix [a,i,j]
    # omega_b^a wedge theta^b: components M[a,i,j] = sum_b (w[b,a,i] th[b,j] - w[b,a,j] th[b,i])
    W = np.einsum("bai...,bj...->aij...", conn_omega, theta)
    Bmat = Bmat + W - np.swapaxes(W, 1, 2)
    T = 0.5 * np.einsum("aij...,bi...,cj...->abc...", Bmat, e, e)
    N = 0.5 * np.einsum("aij...,bi...,cj...->abc...", Bmat, np.conj(e), np.conj(e))
    mixed = np.einsum("aij...,bi...,cj...->abc...", Bmat, e, np.conj(e))
    return T, N, mixed


@dataclass
class ConnectionField:
    """Connection 1-forms omega_a^b of the second canonical connection."""

    chart: object
    omega: np.ndarray      # (n, n, 2n, *b): omega[a,b,d] = omega_a^b(d/dx_d)
    gamma1: np.ndarray     # (2n, 2n, 2n, *b): gamma1[d,k,l]
    nabla_g_defect: float = 0.0
    nabla_J_defect: float = 0.0


@dataclass
class TorsionField:
    """Torsion split: T = (2,0) components, N = (0,2) (Nijenhuis) components."""

    chart: object
    T: np.ndarray          # (n, n, n, *b), antisymmetric in the last two frame slots
    N: np.ndarray
    mixed: np.ndarray      # (1,1) component, O(h^2) small on almost-Kahler models

    def max_T(self):
        return float(np.abs(self.T).max())

    def max_N(self):
        return float(np.abs(self.N).max())

    def max_mixed(self):
        return float(np.abs(self.mixed).max())


def connection_forms(s, f):
    """Grid-path second canonical connection for a built frame."""
    chart = s.chart
    g = s.g
    dg = chart.gradient(g)
    dJ = chart.gradient(s.J)
    gamma1 = _gamma1(s.J, dJ, _levi_civita(g, dg))

    de = chart.gradient(f.e)
    omega = _connection_matrix(f.theta, f.e, de, gamma1)

    # nabla^1 of J with the corrected connection (should vanish to O(h^2)).
    nab1J = _covariant_J(s.J, dJ, gamma1)
    nab1g = (
        dg
        - np.einsum("dki...,kj...->dij...", gamma1, g)
        - np.einsum("dkj...,ik...->dij...", gamma1, g)
    )
    return ConnectionField(
        chart,
        omega,
        gamma1,
        nabla_g_defect=float(np.abs(nab1g).max()),
        nabla_J_defect=float(np.abs(nab1J).max()),
    )


def torsion(s, f, c):
    """Torsion of the second canonical connection, split into (2,0) and (0,2)."""
    chart = s.chart
    dtheta = chart.gradient(f.theta)
    T, N, mixed = _torsion_components(dtheta, c.omega, f.theta, f.e)
    return TorsionField(chart, T, N, mixed)


def nijenhuis_coordinate(s):
    """Bracket-formula Nijenhuis tensor on coordinate pairs.

    N^k_{ij} components of N(d_i, d_j) via finite-difference Lie brackets;
    exact zero (to rounding) for constant J.
    """
    def _build():
        chart = s.chart
        J = s.J
        dJ = chart.gradient(J)   # dJ[d,k,l]
        # N(di,dj)^k = J^m_i dJ[m,k,j] - J^m_j dJ[m,k,i] - J^k_m dJ[i,m,j] + J^k_m dJ[j,m,i]
        t1 = np.einsum("mi...,mkj...->kij...", J, dJ)
        t2 = np.einsum("km...,imj...->kij...", J, dJ)
        N = t1 - np.swapaxes(t1, 1, 2) - t2 + np.swapaxes(t2, 1, 2)
        return N

    return s.cache("nijenhuis", _build)


def nijenhuis_max_norm(s):
    N = nijenhuis_coordinate(s)
    return float(np.abs(N).max())


@dataclass
class CovariantHessian:
    """First and second covariant derivatives of a real potential."""

    chart: object
    phi_a: np.ndarray       # (n, *grid) complex
    phi_ab: np.ndarray      # (n, n, *grid)
    phi_abar: np.ndarray    # (n, n, *grid)

    def hermitian_defect(self):
        return float(np.abs(self.phi_abar - np.conj(np.swapaxes(self.phi_abar, 0, 1))).max())


def covariant_hessian(s, f, c, phi):
    """Covariant derivatives phi_a, phi_ab, phi_abar of a grid potential."""
    chart = s.chart
    phi = np.asarray(phi, dtype=float)
    dphi = chart.gradient(phi)
    phi_a = np.einsum("ak...,k...->a...", f.e, dphi)
    dpa = chart.gradient(phi_a)
    u = np.einsum("da...->ad...", dpa) - np.einsum("b...,abd...->ad...", phi_a, c.omega)
    phi_ab = np.einsum("ad...,bd...->ab...", u, f.e)
    phi_abar = np.einsum("ad...,bd...->ab...", u, np.conj(f.e))
    return CovariantHessian(chart, phi_a, phi_ab, phi_abar)


# ---------------------------------------------------------------------------
# Frame-path operators (validation mirrors of the coordinate path).

def tau_coefficients(phi_a, N):
    """tau coefficients c[b,c] = -2i sum_a conj(phi_a) conj(N^a_{bc}).

    tau = sum_{b,c} c[b,c] theta^b wedge theta^c (full double sum, c antisym).
    """
    return -2j * np.einsum("a...,abc...->bc...", np.conj(phi_a), np.conj(N))


def hermitian_coefficients(phi_abar):
    """H coefficient matrix delta_ab - 2 phi_abar (Hermitian to O(h^2))."""
    n = phi_abar.shape[0]
    eye = np.eye(n).reshape((n, n) + (1,) * (phi_abar.ndim - 2))
    return eye - 2.0 * phi_abar


def _frame_values(B, u, v):
    """[a, b] -> B(u_a, v_b) for the antisymmetric matrix B (2n, 2n, *p) of a
    2-form and vectors u_a, v_b given as (k, 2n, *p)."""
    return np.einsum("ij...,ai...,bj...->ab...", B, u, v)


def frame_tau_components(f, cff):
    """Coefficients c[b,c] of a coordinate (2,0)-field in the frame basis."""
    return 0.5 * _frame_values(forms.form_to_matrix(cff), f.e, f.e)


def frame_hermitian_components(f, cff):
    """Hermitian matrix M[a,b] with H = i M_ab theta^a wedge conj-theta^b."""
    return -1j * _frame_values(forms.form_to_matrix(cff), f.e, np.conj(f.e))


# ---------------------------------------------------------------------------
# Pointwise analytic path.

def deformation_at(J, dJ, grad, hess):
    """Pair components (pair axis first) of d(J dphi) at points, in
    coordinates: d(J dphi)_ij = D_ij - D_ji with
    D_ij = d_i(J^k_j phi_k) = dJ[i,k,j] phi_k + J^k_j phi_ik.

    J is (2n, 2n, *p) and dJ[d,k,l] = partial_d J^k_l; grad (2n, *p) and
    hess (2n, 2n, *p) are the potential's coordinate derivatives.
    """
    D = np.einsum("ikj...,k...->ij...", dJ, grad) + np.einsum("kj...,ik...->ij...", J, hess)
    return np.stack([D[i, j] - D[j, i] for i, j in forms.multi_indices(D.shape[0], 2)])


def tau_at(B, e):
    """tau_ab = B(e_a, e_b) for a 2-form B in pair components: the (1,1)
    and (0,2) parts of B vanish on two (1,0)-vectors, so this is B's (2,0)
    part, tau = sum_{a<b} tau_ab theta^a wedge theta^b, with no projection."""
    return _frame_values(forms.pair_matrix(B, e.shape[1]), e, e)


def hermitian_at(B, e):
    """M_ab = -i (omega + B)(e_a, conj e_b) for a real 2-form B in pair
    components, with H(phi) = i M_ab theta^a wedge conj-theta^b: the (2,0)
    and (0,2) parts vanish on (e_a, conj e_b), so no projection is needed;
    M = identity at B = 0."""
    dim = e.shape[1]
    pos = forms.index_positions(dim, 2)
    w = B.copy()
    for a in range(dim // 2):
        w[pos[(2 * a, 2 * a + 1)]] += 1.0
    return -1j * _frame_values(forms.pair_matrix(w, dim), e, np.conj(e))


class LocalGeometry:
    """J, g, the unitary frame e and dJ of an analytic structure at
    arbitrary points: all that deformation_at, tau_at, hermitian_at and the
    taming matrix read there.

    dJ[d] is the central difference of J_at with step FD_STEP, so its
    accuracy does not depend on the grid.  Points have shape
    (m, 2n); the member arrays keep the point axis last.  With a constant
    unitary U the frame is e'_a = sum_b U[b,a] e_b.
    """

    def __init__(self, s: CompatibleStructure, points, U=None):
        self.s = s
        self.points = np.asarray(points, dtype=float)
        dim = 2 * s.half_dim

        def J_at(pts):
            return np.moveaxis(s.J_at(pts), (-2, -1), (0, 1))

        self.J = J_at(self.points)
        self.g = np.einsum("ij,jk...->ik...", s.omega, self.J)
        self.e = _gram_schmidt(self.J, self.g, list(range(0, dim, 2)))[0]
        if U is not None:
            self.e = np.einsum("ba,bk...->ak...", np.asarray(U, dtype=complex), self.e)
        self.dJ = np.empty((dim,) + self.J.shape)
        for d in range(dim):
            dp = np.zeros(dim)
            dp[d] = FD_STEP
            np.subtract(J_at(self.points + dp), J_at(self.points - dp), out=self.dJ[d])
            self.dJ[d] /= 2 * FD_STEP
