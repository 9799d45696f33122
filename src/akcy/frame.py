"""Unitary frames, the second canonical connection, torsion, and covariant
derivatives of potentials.

Two evaluation paths share the same algebraic kernels (Gram-Schmidt frame,
connection, torsion split, and the tau and H frame coefficients):

* the grid path differentiates the structure's fields with the chart's
  centered differences (production validation path, O(h^2) accurate);
* the pointwise path (`LocalGeometry`) evaluates the analytic structure at
  arbitrary points and takes small-step central differences of the closed
  forms, which the boundary module uses to scan polydisks far below the
  grid scale.

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
    "PointFrame",
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


def _rotate_frame(U, e, theta, lead=""):
    """(e', theta') under the constant unitary change e'_a = sum_b U[b,a] e_b;
    lead names axes in front of the frame index (e.g. "d" for derivatives)."""
    U = np.asarray(U, dtype=complex)
    spec = f"ba,{lead}bk...->{lead}ak..."
    return np.einsum(spec, U, e), np.einsum(spec, np.conj(U), theta)


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
# Connection kernels shared by grid and pointwise paths.

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
    return CovariantHessian(chart, phi_a, *_second_covariant(phi_a, dpa, c.omega, f.e))


def _second_covariant(phi_a, dpa, conn_omega, e):
    """(phi_ab, phi_abar) from phi_a, its coordinate derivatives
    dpa[d,a] = partial_d phi_a and the connection 1-forms."""
    u = np.einsum("da...->ad...", dpa) - np.einsum("b...,abd...->ad...", phi_a, conn_omega)
    phi_ab = np.einsum("ad...,bd...->ab...", u, e)
    phi_abar = np.einsum("ad...,bd...->ab...", u, np.conj(e))
    return phi_ab, phi_abar


# ---------------------------------------------------------------------------
# Frame-path operators (validation mirrors of the coordinate path), shared by
# the grid path and LocalGeometry.

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


def frame_tau_components(f, cff):
    """Coefficients c[b,c] of a coordinate (2,0)-field in the frame basis."""
    T = forms.form_to_matrix(cff)
    return 0.5 * np.einsum("ij...,bi...,cj...->bc...", T, f.e, f.e)


def frame_hermitian_components(f, cff):
    """Hermitian matrix M[a,b] with H = i M_ab theta^a wedge conj-theta^b."""
    B = forms.form_to_matrix(cff)
    return -1j * np.einsum("ij...,ai...,bj...->ab...", B, f.e, np.conj(f.e))


# ---------------------------------------------------------------------------
# Pointwise analytic path.

class PointFrame:
    """A unitary frame e with its coordinate derivative de and dual coframe
    theta, the connection 1-forms and the (0,2) torsion N at a batch of
    points (point axis last): all that covariant_of and deformation_form
    read."""

    FIELDS = ("e", "de", "theta", "conn_omega", "N")

    def __init__(self, e, de, theta, conn_omega, N):
        self.e, self.de, self.theta, self.conn_omega, self.N = e, de, theta, conn_omega, N

    def covariant_of(self, grad, hess):
        """Covariant phi_a, phi_abar, phi_ab of a potential from its analytic
        coordinate gradient (2n, m) and Hessian (2n, 2n, m)."""
        phi_a = np.einsum("ak...,k...->a...", self.e, grad)
        # d(phi_a)_d = (de[d,a,k]) grad_k + e[a,k] hess[d,k]
        dpa = np.einsum("dak...,k...->da...", self.de, grad) + np.einsum(
            "ak...,dk...->da...", self.e, hess
        )
        return (phi_a,) + _second_covariant(phi_a, dpa, self.conn_omega, self.e)

    def deformation_form(self, phi_a, phi_abar):
        """Increasing-pair components (pair axis first) of the real 2-form
        d(Jd phi) from the frame expansion
        -2i( conj(phi_a) conj(N) theta^b theta^c + phi_abar theta^a conj-theta^b
             - phi_a N conj-theta^b conj-theta^c )."""
        c20 = tau_coefficients(phi_a, self.N)
        th = self.theta
        thb = np.conj(self.theta)
        B20 = np.einsum("bc...,bi...,cj...->ij...", c20, th, th)
        B20 = B20 - np.swapaxes(B20, 0, 1)
        B11 = -2j * np.einsum("ab...,ai...,bj...->ij...", phi_abar, th, thb)
        B11 = B11 - np.swapaxes(B11, 0, 1)
        c02 = 2j * np.einsum("a...,abc...->bc...", phi_a, self.N)
        B02 = np.einsum("bc...,bi...,cj...->ij...", c02, thb, thb)
        B02 = B02 - np.swapaxes(B02, 0, 1)
        total = (B20 + B11 + B02).real
        return np.stack([total[i, j] for i, j in forms.multi_indices(total.shape[0], 2)])


class LocalGeometry(PointFrame):
    """Frame/connection/torsion of an analytic structure at arbitrary points.

    Derivatives are small-step central differences of the closed-form fields,
    so accuracy (~1e-10) is independent of the grid.  Points have shape
    (m, 2n); all member arrays keep the point axis last.

    With a constant unitary U the frame is e'_a = sum_b U[b,a] e_b: e, theta
    and their differences are rotated right after differencing, and the
    connection and torsion are built once, in the rotated frame.
    """

    def __init__(self, s: CompatibleStructure, points, U=None):
        self.s = s
        self.points = np.asarray(points, dtype=float)
        n = s.half_dim
        dim = 2 * n
        seeds = [2 * a for a in range(n)]

        def frame_at(pts):
            J = np.moveaxis(s.J_at(pts), (-2, -1), (0, 1))
            g = np.einsum("ij,jk...->ik...", s.omega, J)
            e, theta = _gram_schmidt(J, g, seeds)
            return J, g, e, theta

        self.J, self.g, self.e, self.theta = frame_at(self.points)

        # Each difference goes straight into its slice, so no per-axis copy is
        # held while the connection and torsion are built.
        fields = (self.J, self.g, self.e, self.theta)
        diffs = [np.empty((dim,) + f.shape, f.dtype) for f in fields]
        h = FD_STEP
        for d in range(dim):
            dp = np.zeros(dim)
            dp[d] = h
            for out, fp, fm in zip(diffs, frame_at(self.points + dp), frame_at(self.points - dp)):
                out[d] = (fp - fm) / (2 * h)
        self.dJ, self.dg, self.de, self.dtheta = diffs
        if U is not None:
            self.e, self.theta = _rotate_frame(U, self.e, self.theta)
            self.de, self.dtheta = _rotate_frame(U, self.de, self.dtheta, lead="d")

        self.gamma1 = _gamma1(self.J, self.dJ, _levi_civita(self.g, self.dg))
        self.conn_omega = _connection_matrix(self.theta, self.e, self.de, self.gamma1)
        self.T, self.N, self.mixed = _torsion_components(
            self.dtheta, self.conn_omega, self.theta, self.e
        )

    def take(self, idx):
        """The PointFrame at points[idx] for a 1-D index array, gathered from
        this geometry without evaluating the structure again; only the five
        arrays of PointFrame.FIELDS are gathered.  np.take keeps the point
        axis last in memory too (value[..., idx] would put it first, which
        slows every later einsum over the points two- to threefold)."""
        return PointFrame(
            *(np.take(getattr(self, key), idx, axis=-1) for key in PointFrame.FIELDS)
        )
