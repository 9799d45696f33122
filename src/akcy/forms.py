"""Discrete calculus of real and complex differential forms on the periodic grid.

Storage convention: a k-form keeps one coefficient per increasing multi-index
(antisymmetry is implicit), with component axis first and the 2n grid axes
last, so everything broadcasts against the structure's J/g fields.

The exterior derivative uses centered second-order differences; because the
shifted difference operators commute exactly, the discrete d satisfies
d(d(.)) = 0 to rounding, which the bidegree and conservation identities rely on.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DegreeError, ShapeMismatchError, ConfigurationError

__all__ = [
    "FormField",
    "ComplexFormField",
    "exterior_derivative",
    "d_scalar",
    "apply_J_oneform",
    "wedge",
    "bidegree_parts",
    "bidegree_project",
    "top_ratio",
    "integrate",
    "omega_form",
    "form_to_matrix",
    "form_from_matrix",
]


@lru_cache(maxsize=None)
def multi_indices(dim, k):
    """Increasing multi-indices of length k in range(dim)."""
    return tuple(combinations(range(dim), k))


@lru_cache(maxsize=None)
def index_positions(dim, k):
    return {I: i for i, I in enumerate(multi_indices(dim, k))}


def _merge_sign(I, J):
    """Sorted merge of disjoint index tuples and the permutation sign, or None."""
    if set(I) & set(J):
        return None, 0
    merged = tuple(sorted(I + J))
    # Count inversions of the concatenation relative to sorted order.
    seq = list(I + J)
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return merged, (-1) ** inv


@lru_cache(maxsize=None)
def wedge_table(dim, ka, kb):
    """Sparse table [(ia, ib, iout, sign)] for the wedge of a ka- and kb-form."""
    out_pos = index_positions(dim, ka + kb)
    table = []
    for ia, I in enumerate(multi_indices(dim, ka)):
        for ib, J in enumerate(multi_indices(dim, kb)):
            merged, sign = _merge_sign(I, J)
            if merged is not None:
                table.append((ia, ib, out_pos[merged], sign))
    return tuple(table)


class FormField:
    """Real (or complex-coefficient) k-form sampled on the grid."""

    def __init__(self, chart, degree, comps):
        comps = np.asarray(comps)
        ncomp = len(multi_indices(chart.dim, degree))
        if comps.shape[0] != ncomp:
            raise ShapeMismatchError(
                f"degree-{degree} form needs {ncomp} components, got {comps.shape[0]}"
            )
        if comps.ndim != 1 + chart.dim:
            raise ShapeMismatchError(
                f"component array must have {1 + chart.dim} axes, got {comps.ndim}"
            )
        self.chart = chart
        self.degree = degree
        self.comps = comps

    @property
    def indices(self):
        return multi_indices(self.chart.dim, self.degree)

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.chart, self.degree, self.comps + other.comps)

    def __sub__(self, other):
        self._check_compatible(other)
        return FormField(self.chart, self.degree, self.comps - other.comps)

    def __mul__(self, c):
        return type(self)(self.chart, self.degree, self.comps * c)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if other.chart is not self.chart and other.chart != self.chart:
            raise ShapeMismatchError("forms live on different charts")
        if other.degree != self.degree:
            raise DegreeError("cannot combine forms of different degree")

    def max_abs(self):
        return float(np.abs(self.comps).max())


class ComplexFormField(FormField):
    """Complex 2-form of pure bidegree (p,q), stored in coordinate components.

    Coefficients are kept in the real coordinate basis (a complex antisymmetric
    matrix per point); frame components are extracted on demand by the frame
    module.  The bidegree tag records which projector produced the field.
    """

    def __init__(self, chart, degree, comps, bidegree):
        super().__init__(chart, degree, np.asarray(comps, dtype=complex))
        self.bidegree = bidegree

    def __add__(self, other):
        self._check_compatible(other)
        bid = self.bidegree if getattr(other, "bidegree", None) == self.bidegree else None
        return ComplexFormField(self.chart, self.degree, self.comps + other.comps, bid)

    def __mul__(self, c):
        return ComplexFormField(self.chart, self.degree, self.comps * c, self.bidegree)

    __rmul__ = __mul__

    def conj(self):
        p, q = self.bidegree if self.bidegree else (None, None)
        bid = (q, p) if self.bidegree else None
        return ComplexFormField(self.chart, self.degree, np.conj(self.comps), bid)


def d_scalar(chart, f):
    """Exterior derivative of a scalar field: the 1-form of centered differences."""
    f = np.asarray(f)
    if f.ndim < chart.dim:
        f = f.reshape((1,) * (chart.dim - f.ndim) + f.shape)
    comps = np.stack([chart.diff(f, d) for d in range(chart.dim)])
    return FormField(chart, 1, comps)


def exterior_derivative(a):
    """Discrete d on a k-form (k < 2n); commutes with periodic shifts."""
    chart = a.chart
    k = a.degree
    if k >= chart.dim:
        raise DegreeError(f"cannot take d of a top-degree ({k}) form")
    out_idx = multi_indices(chart.dim, k + 1)
    out_pos = index_positions(chart.dim, k + 1)
    shape = a.comps.shape[1:]
    comps = np.zeros((len(out_idx),) + shape, dtype=a.comps.dtype)
    for i, I in enumerate(a.indices):
        for d in range(chart.dim):
            if d in I:
                continue
            J = tuple(sorted(I + (d,)))
            sign = (-1) ** J.index(d)
            comps[out_pos[J]] += sign * chart.diff(a.comps[i], d)
    return FormField(chart, k + 1, comps)


def apply_J_oneform(s, a):
    """(J a)(X) = a(JX) on 1-forms, i.e. components J^T-contracted."""
    if a.degree != 1:
        raise DegreeError("apply_J_oneform needs a 1-form")
    if a.chart != s.chart:
        raise ShapeMismatchError("form and structure charts differ")
    comps = np.einsum("ki...,k...->i...", s.J, a.comps)
    return FormField(s.chart, 1, comps)


def wedge(a, b):
    """Pointwise graded-antisymmetric product of two forms."""
    chart = a.chart
    if b.chart != chart:
        raise ShapeMismatchError("forms live on different charts")
    k = a.degree + b.degree
    if k > chart.dim:
        raise DegreeError(f"wedge degree {k} exceeds manifold dimension {chart.dim}")
    table = wedge_table(chart.dim, a.degree, b.degree)
    nout = len(multi_indices(chart.dim, k))
    shape = np.broadcast_shapes(a.comps.shape[1:], b.comps.shape[1:])
    dtype = np.result_type(a.comps.dtype, b.comps.dtype)
    comps = np.zeros((nout,) + shape, dtype=dtype)
    for ia, ib, io, sign in table:
        comps[io] += sign * (a.comps[ia] * b.comps[ib])
    return FormField(chart, k, comps)


def form_to_matrix(a):
    """2-form as an antisymmetric (2n, 2n, *grid) coefficient matrix field."""
    if a.degree != 2:
        raise DegreeError("matrix view only defined for 2-forms")
    dim = a.chart.dim
    B = np.zeros((dim, dim) + a.comps.shape[1:], dtype=a.comps.dtype)
    for idx, (i, j) in enumerate(a.indices):
        B[i, j] = a.comps[idx]
        B[j, i] = -a.comps[idx]
    return B


def form_from_matrix(chart, B):
    dim = chart.dim
    pairs = multi_indices(dim, 2)
    comps = np.stack([B[i, j] for (i, j) in pairs])
    return FormField(chart, 2, comps)


@lru_cache(maxsize=None)
def signed_pairs(dim):
    """{(i, j): (pair, sign)} for i != j, so that B_ij = sign * comps[pair]."""
    pairs = list(enumerate(multi_indices(dim, 2)))
    return {**{(i, j): (p, 1) for p, (i, j) in pairs}, **{(j, i): (p, -1) for p, (i, j) in pairs}}


def contract_pairs(J, comps, nout, terms):
    """out[o] += c * comps[p] over the (o, p, c) terms, in their order; each c
    lives on J's lattice and is skipped when zero on all of it, so only the
    products with comps are grid-size and no 2n x 2n matrix field is built."""
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    out = np.zeros((nout,) + shape, dtype=np.result_type(J.dtype, comps.dtype))
    for o, p, c in terms:
        if np.any(c):
            out[o] += c * comps[p]
    return out


def bj_terms(J, a, b, wa, wb, o):
    """Terms of out[o] = wa*(BJ)_ab + wb*(BJ)_ba, the two products per j in
    that order; the signs of pair storage and the exact weights fold into c."""
    table = signed_pairs(J.shape[0])
    for j in range(J.shape[0]):
        if j != a:
            p, sign = table[a, j]
            yield o, p, (sign * wa) * J[j, b]
        if j != b:
            p, sign = table[b, j]
            yield o, p, (sign * wb) * J[j, a]


def j_conjugate_comps(J, comps, dim):
    """Components of b(J., J.) for a 2-form given by increasing-pair comps."""
    pairs = multi_indices(dim, 2)
    return contract_pairs(J, comps, len(pairs), (
        (m, nn, J[j, i] * J[k, l] - J[k, i] * J[j, l])
        for m, (i, l) in enumerate(pairs) for nn, (j, k) in enumerate(pairs)
    ))


def j_anticommutator_comps(J, comps, dim):
    """Components of the antisymmetric matrix J^T B + B J from pair storage,
    (J^T B + B J)_il = -(BJ)_li + (BJ)_il."""
    pairs = multi_indices(dim, 2)
    return contract_pairs(J, comps, len(pairs), (
        t for m, (i, l) in enumerate(pairs) for t in bj_terms(J, l, i, -1, 1, m)
    ))


def bidegree_parts(J, comps, dim):
    """(P11, Bm, mixed) of a 2-form given by increasing-pair comps.

    P11 = (b + b(J.,J.))/2 is the (1,1) part, Bm = b - P11 the J-anti-invariant
    part, and mixed = (J^T Bm + Bm J)/2 its J-rotated partner; the (2,0) part
    is (Bm - i*mixed)/2 and the (0,2) part its conjugate.
    """
    P11 = j_conjugate_comps(J, comps, dim)
    Bm = 0.5 * (comps - P11)
    P11 += comps
    P11 *= 0.5
    mixed = 0.5 * j_anticommutator_comps(J, Bm, dim)
    return P11, Bm, mixed


def bidegree_project(s, b, p, q):
    """Projection of a 2-form onto bidegree (p,q) for the structure's J.

    P_{1,1} b (X,Y) = (b(X,Y) + b(JX,JY))/2; the (2,0)/(0,2) split of the
    remainder uses tau(X,Y) = (beta(X,Y) - i*beta(JX,Y))/2, the -i eigenspace
    of the complexified J-action.
    """
    if (p, q) not in ((2, 0), (1, 1), (0, 2)):
        raise ConfigurationError(f"invalid bidegree ({p},{q}) for a 2-form")
    if b.degree != 2:
        raise DegreeError("bidegree projection defined for 2-forms")
    P11, Bm, mixed = bidegree_parts(s.J, b.comps, s.chart.dim)
    if (p, q) == (1, 1):
        return ComplexFormField(s.chart, 2, P11, (1, 1))
    if (p, q) == (2, 0):
        T = 0.5 * (Bm - 1j * mixed)
    else:
        T = 0.5 * (Bm + 1j * mixed)
    return ComplexFormField(s.chart, 2, T, (p, q))


def omega_form(s):
    """The fixed symplectic form as a constant-coefficient 2-form field."""
    chart = s.chart
    pairs = multi_indices(chart.dim, 2)
    comps = np.zeros((len(pairs),) + (1,) * chart.dim)
    pos = index_positions(chart.dim, 2)
    for a in range(chart.half_dim):
        comps[pos[(2 * a, 2 * a + 1)]] = 1.0
    return FormField(chart, 2, comps)


def top_ratio(s, t):
    """Pointwise scalar t / omega^n for a top-degree form t.

    In the increasing-index convention omega^n has the constant top
    coefficient n!.
    """
    chart = s.chart
    if t.degree != chart.dim:
        raise DegreeError("top_ratio needs a top-degree form")
    return t.comps[0] / math.factorial(chart.half_dim)


def integrate(s, f):
    """Quadrature of a scalar field against the normalized volume of omega^n.

    The constant omega^n coefficient is divided out so that integrate(1) = 1
    on the unit box; Definition-level conditions (zero mean, mass matching)
    are insensitive to this constant.
    """
    vals = np.asarray(f)
    if vals.ndim < s.chart.dim:
        vals = vals.reshape((1,) * (s.chart.dim - vals.ndim) + vals.shape)
    return s.chart.integrate_scalar(vals)
