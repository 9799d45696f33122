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
from itertools import combinations, groupby
from operator import itemgetter

import numpy as np

from .errors import DegreeError, ShapeMismatchError

__all__ = [
    "FormField",
    "exterior_derivative",
    "d_scalar",
    "apply_J_oneform",
    "wedge",
    "bidegree_parts",
    "top_ratio",
    "integrate",
    "omega_form",
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

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.chart, self.degree, self.comps + other.comps)

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


def d_scalar(chart, f):
    """Exterior derivative of a scalar field: the 1-form of centered differences."""
    f = np.asarray(f)
    if f.ndim < chart.dim:
        f = f.reshape((1,) * (chart.dim - f.ndim) + f.shape)
    return FormField(chart, 1, chart.gradient(f))


def exterior_derivative(a):
    """Discrete d on a k-form (k < 2n); commutes with periodic shifts."""
    chart = a.chart
    k = a.degree
    if k >= chart.dim:
        raise DegreeError(f"cannot take d of a top-degree ({k}) form")
    shape = a.comps.shape[1:]
    comps = np.zeros((len(multi_indices(chart.dim, k + 1)),) + shape, dtype=a.comps.dtype)
    diff = np.empty_like(comps[0])
    add_d_terms(comps, chart.dim, k, lambda i, d: chart.diff(a.comps[i], d, out=diff))
    return FormField(chart, k + 1, comps)


def add_d_terms(out, dim, k, diff):
    """Add the discrete d of a k-form into the (k+1)-form components out
    (zeros), term by term in d_terms order; diff(i, d) returns the axis-d
    difference of component i."""
    for i, d, o, minus in d_terms(dim, k):
        (np.subtract if minus else np.add)(out[o], diff(i, d), out=out[o])


@lru_cache(maxsize=None)
def d_terms(dim, k):
    """Terms (i, d, o, minus) of the discrete d of a k-form, in the order
    add_d_terms adds them: component o of the (k+1)-form gains the axis-d
    difference of component i, subtracted when minus."""
    out_pos = index_positions(dim, k + 1)
    terms = []
    for i, I in enumerate(multi_indices(dim, k)):
        for d in range(dim):
            if d not in I:
                J = tuple(sorted(I + (d,)))
                terms.append((i, d, out_pos[J], J.index(d) % 2 == 1))
    return tuple(terms)


def apply_J_oneform(s, a):
    """(J a)(X) = a(JX) on 1-forms, i.e. components J^T-contracted."""
    if a.degree != 1:
        raise DegreeError("apply_J_oneform needs a 1-form")
    if a.chart != s.chart:
        raise ShapeMismatchError("form and structure charts differ")
    return FormField(s.chart, 1, j_oneform_comps(s.J, a.comps))


def j_oneform_comps(J, comps, out=None):
    """Components of (J a)(X) = a(JX) for a 1-form's components, into out
    when given; J has its matrix axes first, and the trailing axes
    broadcast."""
    return np.einsum("ki...,k...->i...", J, comps, out=out)


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


@lru_cache(maxsize=None)
def signed_pairs(dim):
    """{(i, j): (pair, sign)} for i != j, so that B_ij = sign * comps[pair]."""
    pairs = list(enumerate(multi_indices(dim, 2)))
    return {**{(i, j): (p, 1) for p, (i, j) in pairs}, **{(j, i): (p, -1) for p, (i, j) in pairs}}


def contract_pairs(J, comps, lead, terms, out=None, rows=None):
    """out[o] = sum of c * comps[p] over the (o, p, c) terms, out of shape
    lead + the broadcast point shape; o indexes the lead axes.  out is a
    new array unless given.  J's trailing axes are the coefficients' points
    and its dtype joins comps' in out: the structure's J, or a frame.

    The terms of one output come together.  Each c lives on J's lattice, and
    the c of equal (o, p) are summed there first, in the order they appear,
    so there is one grid-size multiply-add per (output, pair): the first
    product is written straight into out[o], the others go through one
    grid-size product buffer.  A summed c that is zero on all of the lattice
    is skipped (out[o] is zero if all are).  Outputs the terms never name
    are left unset.  No 2n x 2n matrix field is built.

    With rows = (a, b) only rows [a, b) of the first point axis are
    written, and the product buffer is their size; the zero test still
    reads all of the lattice, so the rows are bitwise those of one call."""
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    if out is None:
        out = np.empty(tuple(lead) + shape, dtype=np.result_type(J.dtype, comps.dtype))

    def cut(f, axis):
        return f if rows is None else axis_rows(f, axis, *rows)

    comps, rows_out = cut(comps, 1), cut(out, len(lead))
    prod = np.empty(rows_out.shape[len(lead):], dtype=out.dtype)
    for o, group in groupby(terms, key=itemgetter(0)):
        coeffs = {}
        for _, p, c in group:
            coeffs[p] = coeffs[p] + c if p in coeffs else c
        live = [(p, cut(c, 0)) for p, c in coeffs.items() if np.any(c)]
        if not live:
            rows_out[o] = 0.0
            continue
        p, c = live[0]
        np.multiply(c, comps[p], out=rows_out[o])
        for p, c in live[1:]:
            np.multiply(c, comps[p], out=prod)
            rows_out[o] += prod
    return out


def axis_rows(f, axis, a, b):
    """Rows [a, b) of f along axis, as a view; a size-1 (broadcast) axis is
    returned whole."""
    if f.shape[axis] == 1:
        return f
    return f[(slice(None),) * axis + (slice(a, b),)]


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
    return contract_pairs(J, comps, (len(pairs),), (
        (m, nn, J[j, i] * J[k, l] - J[k, i] * J[j, l])
        for m, (i, l) in enumerate(pairs) for nn, (j, k) in enumerate(pairs)
    ))


def j_anticommutator_comps(J, comps, dim):
    """Components of the antisymmetric matrix J^T B + B J from pair storage,
    (J^T B + B J)_il = -(BJ)_li + (BJ)_il."""
    pairs = multi_indices(dim, 2)
    return contract_pairs(J, comps, (len(pairs),), (
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
