"""Unitary frames, the Nijenhuis tensor, and d(J dphi) with its tau and H
parts at arbitrary points.

One Gram-Schmidt builds the unitary frame, in `LocalGeometry`, which keeps
J, g, the frame and dJ, the structure's closed form from one J_at per
point.  `build_frame` is the LocalGeometry on J's broadcast-reduced lattice,
built once per structure after its continuity, unitarity, J-alignment and
duality checks; seed selection, the seed's grid F and the Nijenhuis tensor
(`nijenhuis_coordinate`, exact from that dJ) all read it.  d(J dphi) is
taken in coordinates (`deformation_at`), and tau and H are read off it on a
frame (`tau_at`, `hermitian_at`) with no bidegree projection, by one
contraction over its pair components whose coefficients live on the
frame's points: this is the one tau/H path of the package.  The boundary
module scans polydisks far below the grid scale with the pointwise
geometry.  The grid connection, torsion, covariant Hessian and grid-bracket
Nijenhuis tensor that the frame-coefficient formulas are checked against
are a test reference (tests/grid_frame.py).
"""

from __future__ import annotations

import numpy as np

from . import forms
from .errors import FrameError
from .structure import CompatibleStructure

__all__ = [
    "build_frame",
    "nijenhuis_coordinate",
    "deformation_at",
    "tau_at",
    "hermitian_at",
    "LocalGeometry",
]


UNITARITY_TOL = 1e-10
DEGENERACY_TOL = 1e-8


def _frame_defects(J, g, e):
    """Max violations of unitarity, J-alignment and duality of a frame e
    of T^{1,0} with the coframe theta = g conj(e)."""
    n = e.shape[0]
    eye = np.eye(n).reshape((n, n) + (1,) * (e.ndim - 2))
    theta = np.einsum("kl...,al...->ak...", g, np.conj(e))
    gram = np.einsum("ak...,kl...,bl...->ab...", e, g, np.conj(e))
    Je = np.einsum("kl...,al...->ak...", J, e)
    dual = np.einsum("ak...,bk...->ab...", theta, e)
    dual0 = np.einsum("ak...,bk...->ab...", theta, np.conj(e))
    return {
        "unitarity": float(np.abs(gram - eye).max()),
        "J_alignment": float(np.abs(Je - 1j * e).max()),
        "duality": float(max(np.abs(dual - eye).max(), np.abs(dual0).max())),
    }


def _gram_schmidt(J, g, seeds):
    """LocalGeometry's frame: J, g shaped (2n, 2n, *trailing); returns e,
    shaped (n, 2n, *trailing)."""
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

    return np.stack([(eps - 1j * Jeps) / np.sqrt(2.0) for eps, Jeps in eps_vecs])


def build_frame(s):
    """The LocalGeometry of s on J's broadcast-reduced lattice
    (chart.lattice_points(s.bshape)), built and checked once per structure.

    The Gram-Schmidt seeds are d/dx_1, d/dx_2, ... (axes 0, 2, 4, ...);
    degeneracy is detected and reported, never silently repaired.  A
    neighbor-jump scan guards against branch flips of the frame between
    adjacent points, and the frame must be unitary, J-aligned and dual to
    theta = g conj(e) (_frame_defects).
    """
    def _build():
        lg = LocalGeometry(s, s.chart.lattice_points(s.bshape))
        e = lg.e
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
        defs = _frame_defects(lg.J, lg.g, e)
        if max(defs.values()) > UNITARITY_TOL:
            raise FrameError(f"frame invariants violated: {defs}")
        return lg

    return s.cache("frame", _build)


def nijenhuis_coordinate(s):
    """Bracket-formula Nijenhuis tensor on coordinate pairs, on J's lattice.

    N^k_{ij} components of N(d_i, d_j) from J and the closed-form dJ of
    build_frame's geometry: exact, and zero for the standard structure.
    """
    lg = build_frame(s)
    J, dJ = lg.J, lg.dJ   # dJ[d,k,l]
    # N(di,dj)^k = J^m_i dJ[m,k,j] - J^m_j dJ[m,k,i] - J^k_m dJ[i,m,j] + J^k_m dJ[j,m,i]
    t1 = np.einsum("mi...,mkj...->kij...", J, dJ)
    t2 = np.einsum("km...,imj...->kij...", J, dJ)
    return t1 - np.swapaxes(t1, 1, 2) - t2 + np.swapaxes(t2, 1, 2)


def nijenhuis_max_norm(s):
    N = nijenhuis_coordinate(s)
    return float(np.abs(N).max())


# ---------------------------------------------------------------------------
# d(J dphi) at points, and its tau and H on a frame.

def _frame_pairs(B, u, v, outputs):
    """out[a, b] = B(u_a, v_b) = sum_{i<j} B_ij (u_a^i v_b^j - u_a^j v_b^i)
    for each (a, b) in outputs, from a 2-form B in pair components (pair
    axis first) and vectors u_a, v_b given as (k, 2n, *p).

    One contraction over the pair components (forms.contract_pairs): the
    coefficients u_a^i v_b^j - u_a^j v_b^i live on the points of u and v
    (J's lattice for build_frame's frame, the points themselves off it),
    and each (output, pair) costs one multiply-add at B's points.  The
    entries outputs does not name are left unset."""
    pairs = forms.multi_indices(u.shape[1], 2)
    return forms.contract_pairs(u, B, (u.shape[0], v.shape[0]), (
        ((a, b), p, u[a, i] * v[b, j] - u[a, j] * v[b, i])
        for a, b in outputs for p, (i, j) in enumerate(pairs)
    ))


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
    part, tau = sum_{a<b} tau_ab theta^a wedge theta^b, with no projection.

    Only a < b is contracted (_frame_pairs); tau_ba = -tau_ab and the
    diagonal is zero, so tau is exactly antisymmetric."""
    n = e.shape[0]
    tau = _frame_pairs(B, e, e, [(a, b) for a in range(n) for b in range(a + 1, n)])
    for a in range(n):
        tau[a, a] = 0.0
        for b in range(a + 1, n):
            tau[b, a] = -tau[a, b]
    return tau


def hermitian_at(B, e):
    """M_ab = -i (omega + B)(e_a, conj e_b) for a real 2-form B in pair
    components, with H(phi) = i M_ab theta^a wedge conj-theta^b: the (2,0)
    and (0,2) parts vanish on (e_a, conj e_b), so no projection is needed;
    M = identity at B = 0."""
    n, dim = e.shape[:2]
    pos = forms.index_positions(dim, 2)
    w = B.copy()
    for a in range(n):
        w[pos[(2 * a, 2 * a + 1)]] += 1.0
    return -1j * _frame_pairs(w, e, np.conj(e), [(a, b) for a in range(n) for b in range(n)])


class LocalGeometry:
    """J, g, the unitary frame e and dJ of an analytic structure at
    arbitrary points: all that deformation_at, tau_at, hermitian_at and the
    taming matrix read there.

    J_at runs once on the points and dJ[d] = partial_d J is the structure's
    closed form from that J (dJ_at), so neither depends on the grid.  Points
    have shape (..., 2n); the member arrays keep the point axes last, so on
    J's lattice (build_frame) they broadcast against grid fields.  With a
    constant unitary U the frame is e'_a = sum_b U[b,a] e_b.
    """

    def __init__(self, s: CompatibleStructure, points, U=None):
        self.s = s
        self.points = np.asarray(points, dtype=float)
        J = s.J_at(self.points)
        self.J = np.moveaxis(J, (-2, -1), (0, 1))
        self.g = np.einsum("ij,jk...->ik...", s.omega, self.J)
        self.e = _gram_schmidt(self.J, self.g, list(range(0, 2 * s.half_dim, 2)))
        if U is not None:
            self.e = np.einsum("ba,bk...->ak...", np.asarray(U, dtype=complex), self.e)
        self.dJ = np.moveaxis(s.dJ_at(self.points, J), (-2, -1), (1, 2))
