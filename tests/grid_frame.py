"""The grid frame path: the second canonical connection, its torsion and
the covariant Hessian of a grid potential, built on the lattice frame of
akcy.frame.build_frame with the chart's centered differences, and the
bidegree projection of omega + d(J dphi) read on that frame.

It is the test reference of the one tau/H path of akcy (deformation_at,
tau_at, hermitian_at): tau_coefficients and hermitian_coefficients are the
frame-coefficient formulas of tau and H, to which criteria 05 and 07 and
test_frame hold the library at O(h^2); projected_tau and
projected_hermitian read tau and H off the bidegree projection, to which
test_frame holds tau_at and hermitian_at at rounding level.

The connection is realized as Levi-Civita corrected by -J(grad J)/2, the
closed form of the unique almost-Hermitian connection with vanishing (1,1)
torsion on an almost-Kahler manifold; its defining identities are checked
numerically rather than assumed.

The (0,2) torsion components relate to the bracket Nijenhuis tensor by
N^a_{bc} = theta^a(N(e_b conj, e_c conj)) / 8; the 1/8 comes from
N(X,Y) = -2[X,Y] - 2iJ[X,Y] on (0,1) pairs together with the factor-2
conventions of the coefficient expansion (asserted in test_frame, not tuned).
"""

from dataclasses import dataclass

import numpy as np

from akcy import forms

# Desk-derived proportionality between frame (0,2) torsion and the bracket tensor.
TORSION_NIJENHUIS_RATIO = 0.125


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


# ---------------------------------------------------------------------------
# Bidegree projection of omega + B, read on the frame.

def bidegree_projections(s, comps):
    """The (2,0), (1,1) and (0,2) parts of the 2-form of pair components
    comps, from forms.bidegree_parts: (Bm - i mixed)/2, P11 and its
    conjugate partner (Bm + i mixed)/2."""
    P11, Bm, mixed = forms.bidegree_parts(s.J, comps, s.chart.dim)
    return 0.5 * (Bm - 1j * mixed), P11, 0.5 * (Bm + 1j * mixed)


def _frame_values(comps, u, v):
    """[a, b] -> W(u_a, v_b) for the 2-form W of pair components comps."""
    W = forms.pair_matrix(comps, u.shape[1])
    return np.einsum("ij...,ai...,bj...->ab...", W, u, v)


def projected_tau(s, B, e):
    """Coefficients c[a,b] = T(e_a, e_b)/2 of tau = sum_{a,b} c[a,b]
    theta^a wedge theta^b (full double sum), T the (2,0) part of omega + B."""
    T = bidegree_projections(s, forms.omega_form(s).comps + B)[0]
    return 0.5 * _frame_values(T, e, e)


def projected_hermitian(s, B, e):
    """M[a,b] = -i P11(e_a, conj e_b), with H = i M_ab theta^a wedge
    conj-theta^b and P11 the (1,1) part of omega + B."""
    P11 = bidegree_projections(s, forms.omega_form(s).comps + B)[1]
    return -1j * _frame_values(P11, e, np.conj(e))
