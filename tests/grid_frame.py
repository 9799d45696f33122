"""The grid frame path: the second canonical connection, its torsion and
the covariant Hessian of a grid potential, built on the lattice frame of
akcy.frame.build_frame with the chart's centered differences, the bracket
Nijenhuis tensor from a grid-difference dJ, and the bidegree projection of
omega + d(J dphi) read on that frame.

It is the test reference of the one tau/H path of akcy (deformation_at,
tau_at, hermitian_at): tau_coefficients and hermitian_coefficients are the
frame-coefficient formulas of tau and H, to which criteria 05 and 07 and
test_frame hold the library at O(h^2); projected_tau and
projected_hermitian read tau and H off the bidegree projection, to which
test_frame holds tau_at and hermitian_at at rounding level.  The (2,0)
projection needs the J-rotated partner of the anti-invariant part, which
akcy does not build (its F_j read the anti-invariant part alone); it is
formed here by reference loops over the pair storage
(reference_j_anticommutator).

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


def coframe(f):
    """theta^a = g conj(e_a), the (1,0)-coframe dual to a frame f."""
    return np.einsum("kl...,al...->ak...", f.g.astype(complex), np.conj(f.e))


def nijenhuis_coordinate(s):
    """Bracket-formula Nijenhuis tensor on coordinate pairs, N(d_i, d_j)^k,
    with dJ the chart's centered differences of the lattice J: the grid
    counterpart of akcy.frame.nijenhuis_coordinate's closed form, to which
    it converges at O(h^2)."""
    J = s.J
    dJ = s.chart.gradient(J)   # dJ[d,k,l]
    # N(di,dj)^k = J^m_i dJ[m,k,j] - J^m_j dJ[m,k,i] - J^k_m dJ[i,m,j] + J^k_m dJ[j,m,i]
    t1 = np.einsum("mi...,mkj...->kij...", J, dJ)
    t2 = np.einsum("km...,imj...->kij...", J, dJ)
    return t1 - np.swapaxes(t1, 1, 2) - t2 + np.swapaxes(t2, 1, 2)


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
    omega = _connection_matrix(coframe(f), f.e, de, gamma1)

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
    theta = coframe(f)
    T, N, mixed = _torsion_components(chart.gradient(theta), c.omega, theta, f.e)
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
#
# The loops below spell out forms.contract_pairs' summation entry by entry:
# per output, the coefficient of each pair component is summed on J's
# lattice in the order the matrix products first meet it, and a coefficient
# that is zero everywhere is skipped; the first product is stored, the
# others added.  test_forms holds akcy's J action to them bit for bit.

def reference_pair(pos, a, b):
    """(pair, sign) with B_ab = sign * comps[pair], for a != b."""
    return (pos[(a, b)], 1) if a < b else (pos[(b, a)], -1)


def reference_add(coeffs, p, c):
    coeffs[p] = coeffs[p] + c if p in coeffs else c


def reference_store(out, coeffs, comps):
    """out (zeros) = sum of c * comps[p] over coeffs in order, the first
    product stored and zero coefficients skipped."""
    first = True
    for p, c in coeffs.items():
        if np.max(np.abs(c)) == 0.0:
            continue
        if first:
            out[...] = c * comps[p]
            first = False
        else:
            out += c * comps[p]


def reference_j_anticommutator(J, comps, dim):
    """(J^T B + B J)_il = sum over j of J_ji B_jl + B_ij J_jl."""
    pairs = forms.multi_indices(dim, 2)
    pos = forms.index_positions(dim, 2)
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    out = np.zeros((len(pairs),) + shape, dtype=np.result_type(J.dtype, comps.dtype))
    for m, (i, l) in enumerate(pairs):
        coeffs = {}
        for j in range(dim):
            if j != l:
                p, sign = reference_pair(pos, j, l)
                reference_add(coeffs, p, sign * J[j, i])
            if j != i:
                p, sign = reference_pair(pos, i, j)
                reference_add(coeffs, p, sign * J[j, l])
        reference_store(out[m], coeffs, comps)
    return out


def bidegree_projections(s, comps):
    """The (2,0), (1,1) and (0,2) parts of the 2-form of pair components
    comps: (Bm - i mixed)/2, P11 and its conjugate partner (Bm + i mixed)/2,
    with P11 and the anti-invariant part Bm from forms.bidegree_parts and
    mixed = (J^T Bm + Bm J)/2 its J-rotated partner."""
    P11, Bm = forms.bidegree_parts(s.J, comps, s.chart.dim)
    mixed = 0.5 * reference_j_anticommutator(s.J, Bm, s.chart.dim)
    return 0.5 * (Bm - 1j * mixed), P11, 0.5 * (Bm + 1j * mixed)


def pair_matrix(comps, dim):
    """Antisymmetric (dim, dim, *p) matrix of increasing-pair components
    comps (pair axis first)."""
    B = np.zeros((dim, dim) + comps.shape[1:], dtype=comps.dtype)
    for idx, (i, j) in enumerate(forms.multi_indices(dim, 2)):
        B[i, j] = comps[idx]
        B[j, i] = -comps[idx]
    return B


def frame_values(comps, u, v):
    """[a, b] -> W(u_a, v_b) for the 2-form W of pair components comps, by
    the dense matrix and one einsum over all (2n)^2 n^2 products: the
    reference of the pair contraction of frame.tau_at and hermitian_at."""
    W = pair_matrix(comps, u.shape[1])
    return np.einsum("ij...,ai...,bj...->ab...", W, u, v)


def projected_tau_and_hermitian(s, B, e):
    """(c, M) from one bidegree projection of omega + B: the coefficients
    c[a,b] = T(e_a, e_b)/2 of tau = sum_{a,b} c[a,b] theta^a wedge theta^b
    (full double sum), T the (2,0) part, and M[a,b] = -i P11(e_a, conj e_b),
    with H = i M_ab theta^a wedge conj-theta^b and P11 the (1,1) part."""
    T, P11, _ = bidegree_projections(s, forms.omega_form(s).comps + B)
    return 0.5 * frame_values(T, e, e), -1j * frame_values(P11, e, np.conj(e))
