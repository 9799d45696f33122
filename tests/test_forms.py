import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_hyp

from akcy import cy_operator as cy
from akcy import forms
from akcy import structure
from akcy.errors import DegreeError, ShapeMismatchError
from akcy.frame import LocalGeometry

import grid_frame as gf
from conftest import make_twisted


def random_form(chart, degree, rng, waves=1):
    ncomp = len(forms.multi_indices(chart.dim, degree))
    comps = np.zeros((ncomp,) + chart.shape)
    X = chart.grid_points()
    for c in range(ncomp):
        k = rng.integers(-waves, waves + 1, size=chart.dim)
        comps[c] = np.sin(2 * np.pi * X @ k + rng.uniform(0, 2 * np.pi))
    return forms.FormField(chart, degree, comps)


def test_d_squared_is_zero_on_scalars(s_tw12, rng):
    X = s_tw12.chart.grid_points()
    f = np.sin(2 * np.pi * X[..., 0]) * np.cos(2 * np.pi * (X[..., 2] - X[..., 3]))
    ddf = forms.exterior_derivative(forms.d_scalar(s_tw12.chart, f))
    assert ddf.max_abs() < 1e-12


def test_d_squared_is_zero_on_one_forms(s_tw12, rng):
    a = random_form(s_tw12.chart, 1, rng)
    dda = forms.exterior_derivative(forms.exterior_derivative(a))
    assert dda.max_abs() < 1e-11


def test_d_rejects_top_degree(s_std12):
    ncomp = len(forms.multi_indices(4, 4))
    top = forms.FormField(s_std12.chart, 4, np.zeros((ncomp,) + s_std12.chart.shape))
    with pytest.raises(DegreeError):
        forms.exterior_derivative(top)


def test_wedge_graded_commutativity(s_std12, rng):
    chart = s_std12.chart
    a = random_form(chart, 1, rng)
    b = random_form(chart, 1, rng)
    ab = forms.wedge(a, b)
    ba = forms.wedge(b, a)
    assert np.abs(ab.comps + ba.comps).max() < 1e-12
    c = random_form(chart, 2, rng)
    ac = forms.wedge(a, c)
    ca = forms.wedge(c, a)
    assert np.abs(ac.comps - ca.comps).max() < 1e-12


def test_wedge_associativity(s_std12, rng):
    chart = s_std12.chart
    a = random_form(chart, 1, rng)
    b = random_form(chart, 1, rng)
    c = random_form(chart, 2, rng)
    left = forms.wedge(forms.wedge(a, b), c)
    right = forms.wedge(a, forms.wedge(b, c))
    assert np.abs(left.comps - right.comps).max() < 1e-10


def test_omega_top_power_coefficient():
    """omega^n has top coefficient n! in the increasing-index convention."""
    for n in (2, 3):
        s = make_twisted([8] * (2 * n), profile="sin_x1")
        w = forms.omega_form(s)
        wn = w
        for _ in range(n - 1):
            wn = forms.wedge(wn, w)
        assert np.abs(wn.comps[0] - math.factorial(n)).max() < 1e-12 * math.factorial(n)


def test_top_ratio_of_omega_power_is_one(s_tw12):
    w = forms.omega_form(s_tw12)
    wn = forms.wedge(w, w)
    ratio = forms.top_ratio(s_tw12, wn)
    assert np.abs(ratio - 1.0).max() < 1e-14


def test_integrate_normalized_to_unit_volume(s_tw12):
    assert forms.integrate(s_tw12, np.ones(s_tw12.chart.shape)) == pytest.approx(1.0)


def test_integrate_kills_pure_waves(s_std12):
    X = s_std12.chart.grid_points()
    f = np.sin(2 * np.pi * X[..., 1])
    assert abs(forms.integrate(s_std12, f)) < 1e-14


def test_form_matrix_roundtrip(s_std12, rng):
    """Each entry of the matrix view is its pair component, with the
    opposite sign below the diagonal; the diagonal is zero."""
    a = random_form(s_std12.chart, 2, rng)
    B = gf.pair_matrix(a.comps, s_std12.chart.dim)
    for p, (i, j) in enumerate(forms.multi_indices(s_std12.chart.dim, 2)):
        assert np.array_equal(B[i, j], a.comps[p])
        assert np.array_equal(B[j, i], -a.comps[p])
    for i in range(s_std12.chart.dim):
        assert not B[i, i].any()


def test_wedge_and_top_ratio_reject_wrong_degrees(s_std12, rng):
    chart = s_std12.chart
    with pytest.raises(DegreeError):
        forms.wedge(random_form(chart, 3, rng), random_form(chart, 2, rng))
    with pytest.raises(DegreeError):
        forms.top_ratio(s_std12, random_form(chart, 3, rng))


def test_form_field_rejects_a_wrong_component_count(s_std12):
    with pytest.raises(ShapeMismatchError):
        forms.FormField(s_std12.chart, 2, np.zeros((5,) + s_std12.chart.shape))


def test_bidegree_projection_resolves_identity(s_tw12, rng):
    b = random_form(s_tw12.chart, 2, rng)
    parts = gf.bidegree_projections(s_tw12, b.comps)
    total = parts[0] + parts[1] + parts[2]
    assert np.abs(total - b.comps).max() < 1e-12


def test_bidegree_projection_eigenspaces(s_tw12, rng):
    """J-conjugation fixes the (1,1) part and negates the (2,0)+(0,2) part."""
    b = random_form(s_tw12.chart, 2, rng)
    J = s_tw12.J
    dim = s_tw12.chart.dim
    p20, p11, _ = gf.bidegree_projections(s_tw12, b.comps)
    conj11 = forms.j_conjugate_comps(J, p11, dim)
    assert np.abs(conj11 - p11).max() < 1e-11
    anti = p20 + np.conj(p20)
    conj_anti = forms.j_conjugate_comps(J, anti, dim)
    assert np.abs(conj_anti + anti).max() < 1e-11


def test_apply_J_squares_to_minus_one(s_tw12, rng):
    a = random_form(s_tw12.chart, 1, rng)
    jja = forms.apply_J_oneform(s_tw12, forms.apply_J_oneform(s_tw12, a))
    assert np.abs(jja.comps + a.comps).max() < 1e-12


def test_omega_is_closed(s_tw12):
    w = forms.omega_form(s_tw12)
    assert forms.exterior_derivative(w).max_abs() < 1e-14


# --- The pair-storage J action: one contraction against reference loops.
# The loops below spell out the contraction's summation entry by entry: per
# output, the coefficient of each pair component is summed on J's lattice in
# the order the matrix products first meet it, and a coefficient that is zero
# everywhere is skipped; the first product is stored, the others added; h is
# built on its upper triangle and mirrored.  The contraction performs the same
# operations in the same order, so its outputs must match them bit for bit.

def _reference_pair(pos, a, b):
    """(pair, sign) with B_ab = sign * comps[pair], for a != b."""
    return (pos[(a, b)], 1) if a < b else (pos[(b, a)], -1)


def _reference_add(coeffs, p, c):
    coeffs[p] = coeffs[p] + c if p in coeffs else c


def _reference_store(out, coeffs, comps):
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


def reference_j_conjugate(J, comps, dim):
    pairs = forms.multi_indices(dim, 2)
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    out = np.zeros((len(pairs),) + shape, dtype=np.result_type(J.dtype, comps.dtype))
    for m, (i, l) in enumerate(pairs):
        coeffs = {}
        for nn, (j, k) in enumerate(pairs):
            _reference_add(coeffs, nn, J[j, i] * J[k, l] - J[k, i] * J[j, l])
        _reference_store(out[m], coeffs, comps)
    return out


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
                p, sign = _reference_pair(pos, j, l)
                _reference_add(coeffs, p, sign * J[j, i])
            if j != i:
                p, sign = _reference_pair(pos, i, j)
                _reference_add(coeffs, p, sign * J[j, l])
        _reference_store(out[m], coeffs, comps)
    return out


def reference_h_matrix(J, comps):
    """h_il = sum over j of B_ij J_jl / 2 + B_lj J_ji / 2 for i <= l."""
    dim = J.shape[0]
    pos = forms.index_positions(dim, 2)
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    h = np.zeros((dim, dim) + shape)
    for i in range(dim):
        for l in range(i, dim):
            coeffs = {}
            for j in range(dim):
                if j != i:
                    p, sign = _reference_pair(pos, i, j)
                    _reference_add(coeffs, p, 0.5 * sign * J[j, l])
                if j != l:
                    p, sign = _reference_pair(pos, l, j)
                    _reference_add(coeffs, p, 0.5 * sign * J[j, i])
            _reference_store(h[i, l], coeffs, comps)
            h[l, i] = h[i, l]
    return h


def _assert_same(new, ref):
    assert new.dtype == ref.dtype
    assert new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert new.tobytes() == ref.tobytes()   # signed zeros included


J_CASES = ["twisted", "standard", "local", "n3"]


def _j_case(case, s_tw12, s_std12, rng):
    """(J, grid, real pair components on grid) for one of J_CASES; the
    components vanish on the first row of grid axis 0, so products of
    either sign are exact zeros there."""
    if case == "twisted":
        J, grid = s_tw12.J, s_tw12.chart.shape
    elif case == "standard":
        J, grid = s_std12.J, s_std12.chart.shape
    elif case == "local":
        J = LocalGeometry(s_tw12, rng.uniform(size=(500, 4))).J
        grid = J.shape[2:]
    else:
        J = make_twisted([8] * 6, profile="sin_x1").J
        grid = (8, 8, 1, 3, 1, 1)
    npairs = len(forms.multi_indices(J.shape[0], 2))
    real = rng.standard_normal((npairs,) + grid)
    real[:, 0] = 0.0
    return J, grid, real


@pytest.mark.parametrize("case", J_CASES)
def test_j_action_matches_reference_loops(case, s_tw12, s_std12):
    """Byte-identity on a broadcast J, the sparse standard J (where zero
    coefficients are skipped), a per-point LocalGeometry J and an n = 3 J."""
    rng = np.random.default_rng(11)
    J, grid, real = _j_case(case, s_tw12, s_std12, rng)
    dim = J.shape[0]
    cplx = real + 1j * rng.standard_normal(real.shape)
    for comps in (real, cplx):
        _assert_same(forms.j_conjugate_comps(J, comps, dim),
                     reference_j_conjugate(J, comps, dim))
        _assert_same(forms.j_anticommutator_comps(J, comps, dim),
                     reference_j_anticommutator(J, comps, dim))
    # h_matrix is a real symmetric form; the reference accumulates in floats.
    _assert_same(cy.h_matrix(J, real), reference_h_matrix(J, real))


@pytest.mark.parametrize("case", J_CASES)
def test_h_matrix_is_exactly_symmetric(case, s_tw12, s_std12):
    J, _, real = _j_case(case, s_tw12, s_std12, np.random.default_rng(12))
    h = cy.h_matrix(J, real)
    _assert_same(h, np.ascontiguousarray(np.swapaxes(h, 0, 1)))


def test_signed_pairs_reads_antisymmetric_storage(s_std12, rng):
    a = random_form(s_std12.chart, 2, rng)
    B = gf.pair_matrix(a.comps, s_std12.chart.dim)
    for (i, j), (p, sign) in forms.signed_pairs(4).items():
        assert np.array_equal(B[i, j], sign * a.comps[p])
    assert len(forms.signed_pairs(4)) == 4 * 3


@st_hyp.composite
def symplectic_structures(draw):
    """A twisted structure whose generator S = Omega^-1 M has a random
    symmetric M, with a random amplitude and profile, at n = 2 or 3 and an
    even or odd resolution, with random 2-form components on J's lattice."""
    n = draw(st_hyp.sampled_from([2, 3]))
    resolution = draw(st_hyp.sampled_from([8, 9]))
    dim = 2 * n
    entries = draw(st_hyp.lists(st_hyp.floats(-1.0, 1.0), min_size=dim * dim,
                                max_size=dim * dim))
    M = np.array(entries).reshape(dim, dim)
    S = np.linalg.solve(structure.omega_matrix(n), M + M.T)
    recipe = structure.StructureRecipe(
        kind="twisted", generator=S, amplitude=draw(st_hyp.floats(0.0, 0.4)),
        profile=draw(st_hyp.sampled_from(sorted(structure.PROFILES))),
    )
    s = structure.twisted_structure(structure.build_grid(n, [resolution] * dim), recipe)
    seed = draw(st_hyp.integers(0, 2**32 - 1))
    npairs = len(forms.multi_indices(dim, 2))
    comps = np.random.default_rng(seed).standard_normal((npairs,) + s.J.shape[2:])
    return s, comps


@settings(max_examples=25, deadline=None)
@given(symplectic_structures())
def test_dJ_at_is_the_derivative_of_J_at(case):
    """The closed form dJ_at against the fourth-order central difference of
    J_at with step h, whose remainder is h^4/30 times a fifth derivative.
    Each derivative of J = A J0 A^-1 brings at most a factor
    k = 2 pi (1 + 2 c), c = eps ||S||_1 sum|c_i| (the profile's 2 pi and
    the two factors of A), and rounding adds eps_mach/h, both relative to
    max |J|.  Over 2,010 random draws the error reached 0.24 of this bound."""
    s, _ = case
    dim = s.chart.dim
    pts = np.random.default_rng(dim).uniform(0.0, 1.0, size=(16, dim))
    J = s.J_at(pts)
    h = 1e-3
    fd = np.empty((dim,) + J.shape)
    for d in range(dim):
        e = h * np.eye(dim)[d]
        fd[d] = (s.J_at(pts - 2 * e) - 8 * s.J_at(pts - e) + 8 * s.J_at(pts + e)
                 - s.J_at(pts + 2 * e)) / (12 * h)
    r = s.recipe
    c = 0.0
    if r.kind == "twisted":
        weight = sum(abs(w) for w, _, _ in structure.PROFILES[r.profile])
        c = r.amplitude * float(np.abs(r.generator).sum(axis=0).max()) * weight
    k = 2 * np.pi * (1 + 2 * c)
    bound = float(np.abs(J).max()) * (h**4 * k**5 / 30 + np.finfo(float).eps / h)
    assert np.abs(s.dJ_at(pts, J) - fd).max() <= bound


@settings(max_examples=25, deadline=None)
@given(symplectic_structures())
def test_j_action_identities_on_random_structures(case):
    s, comps = case
    J, dim = s.J, s.chart.dim
    # Rounding bound: each map sums at most len(comps) products of two J
    # entries with a component, and the tests apply at most two maps.
    growth = float(np.abs(J).max()) ** 2 * len(comps)
    tol = 64 * np.finfo(float).eps * growth ** 2 * float(np.abs(comps).max())
    twice = forms.j_conjugate_comps(J, forms.j_conjugate_comps(J, comps, dim), dim)
    assert np.abs(twice - comps).max() <= tol
    P11, _, _ = forms.bidegree_parts(J, comps, dim)
    assert np.abs(forms.j_conjugate_comps(J, P11, dim) - P11).max() <= tol
    assert np.abs(forms.j_anticommutator_comps(J, P11, dim)).max() <= tol
    B = gf.pair_matrix(comps, dim)
    BJ = np.einsum("ij...,jk...->ik...", B, J)
    expected = 0.5 * (BJ - np.einsum("ji...,jk...->ik...", J, B))
    assert np.abs(cy.h_matrix(J, comps) - expected).max() <= tol
