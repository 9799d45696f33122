import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_hyp

from akcy import cy_operator as cy
from akcy import forms
from akcy import structure
from akcy.errors import DegreeError
from akcy.frame import LocalGeometry

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
    a = random_form(s_std12.chart, 2, rng)
    B = forms.form_to_matrix(a)
    assert np.abs(B + np.swapaxes(B, 0, 1)).max() < 1e-15
    back = forms.form_from_matrix(s_std12.chart, B)
    assert np.abs(back.comps - a.comps).max() == 0.0


def test_bidegree_projection_resolves_identity(s_tw12, rng):
    b = random_form(s_tw12.chart, 2, rng)
    parts = [forms.bidegree_project(s_tw12, b, p, q) for p, q in ((2, 0), (1, 1), (0, 2))]
    total = parts[0].comps + parts[1].comps + parts[2].comps
    assert np.abs(total - b.comps).max() < 1e-12


def test_bidegree_projection_eigenspaces(s_tw12, rng):
    """J-conjugation fixes the (1,1) part and negates the (2,0)+(0,2) part."""
    b = random_form(s_tw12.chart, 2, rng)
    J = s_tw12.J
    dim = s_tw12.chart.dim
    p11 = forms.bidegree_project(s_tw12, b, 1, 1)
    conj11 = forms.j_conjugate_comps(J, p11.comps, dim)
    assert np.abs(conj11 - p11.comps).max() < 1e-11
    p20 = forms.bidegree_project(s_tw12, b, 2, 0)
    anti = p20.comps + p20.conj().comps
    conj_anti = forms.j_conjugate_comps(J, anti, dim)
    assert np.abs(conj_anti + anti).max() < 1e-11


def test_conjugate_swaps_bidegree(s_tw12, rng):
    b = random_form(s_tw12.chart, 2, rng)
    p20 = forms.bidegree_project(s_tw12, b, 2, 0)
    assert p20.bidegree == (2, 0)
    assert p20.conj().bidegree == (0, 2)


def test_apply_J_squares_to_minus_one(s_tw12, rng):
    a = random_form(s_tw12.chart, 1, rng)
    jja = forms.apply_J_oneform(s_tw12, forms.apply_J_oneform(s_tw12, a))
    assert np.abs(jja.comps + a.comps).max() < 1e-12


def test_omega_is_closed(s_tw12):
    w = forms.omega_form(s_tw12)
    assert forms.exterior_derivative(w).max_abs() < 1e-14


# --- The pair-storage J action: one contraction against the loops it replaced.
# These three loops are the former implementations, kept verbatim as the
# reference; the contraction adds the same products in the same order, so
# its outputs must match them bit for bit.

def _reference_signed_entry(comps, pos, i, j):
    if i == j:
        return None
    if i < j:
        return comps[pos[(i, j)]]
    return -comps[pos[(j, i)]]


def reference_j_conjugate(J, comps, dim):
    pairs = forms.multi_indices(dim, 2)
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    out = np.zeros((len(pairs),) + shape, dtype=np.result_type(J.dtype, comps.dtype))
    for m, (i, l) in enumerate(pairs):
        for nn, (j, k) in enumerate(pairs):
            coeff = J[j, i] * J[k, l] - J[k, i] * J[j, l]
            if np.max(np.abs(coeff)) == 0.0:
                continue
            out[m] += coeff * comps[nn]
    return out


def reference_j_anticommutator(J, comps, dim):
    pairs = forms.multi_indices(dim, 2)
    pos = forms.index_positions(dim, 2)
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    out = np.zeros((len(pairs),) + shape, dtype=np.result_type(J.dtype, comps.dtype))
    for m, (i, l) in enumerate(pairs):
        for j in range(dim):
            Bjl = _reference_signed_entry(comps, pos, j, l)
            if Bjl is not None:
                out[m] += J[j, i] * Bjl
            Bij = _reference_signed_entry(comps, pos, i, j)
            if Bij is not None:
                out[m] += Bij * J[j, l]
    return out


def reference_h_matrix(J, comps):
    dim = J.shape[0]
    pos = forms.index_positions(dim, 2)
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    h = np.zeros((dim, dim) + shape)
    for i in range(dim):
        for l in range(dim):
            acc = h[i, l]
            for j in range(dim):
                Bij = _reference_signed_entry(comps, pos, i, j)
                if Bij is not None:
                    acc += 0.5 * (Bij * J[j, l])
                Bjl = _reference_signed_entry(comps, pos, j, l)
                if Bjl is not None:
                    acc -= 0.5 * (J[j, i] * Bjl)
    return h


def _assert_same(new, ref):
    assert new.dtype == ref.dtype
    assert new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert new.tobytes() == ref.tobytes()   # signed zeros included


@pytest.mark.parametrize("case", ["twisted", "standard", "local", "n3"])
def test_j_action_matches_reference_loops(case, s_tw12, s_std12):
    """Byte-identity on a broadcast J, the sparse standard J (where zero
    coefficients are skipped), a per-point LocalGeometry J and an n = 3 J."""
    rng = np.random.default_rng(11)
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
    dim = J.shape[0]
    npairs = len(forms.multi_indices(dim, 2))
    real = rng.standard_normal((npairs,) + grid)
    cplx = real + 1j * rng.standard_normal((npairs,) + grid)
    for comps in (real, cplx):
        _assert_same(forms.j_conjugate_comps(J, comps, dim),
                     reference_j_conjugate(J, comps, dim))
        _assert_same(forms.j_anticommutator_comps(J, comps, dim),
                     reference_j_anticommutator(J, comps, dim))
    # h_matrix is a real symmetric form; the reference accumulates in floats.
    _assert_same(cy.h_matrix(J, real), reference_h_matrix(J, real))


def test_signed_pairs_reads_antisymmetric_storage(s_std12, rng):
    a = random_form(s_std12.chart, 2, rng)
    B = forms.form_to_matrix(a)
    for (i, j), (p, sign) in forms.signed_pairs(4).items():
        assert np.array_equal(B[i, j], sign * a.comps[p])
    assert len(forms.signed_pairs(4)) == 4 * 3


@st_hyp.composite
def symplectic_structures(draw):
    """A twisted structure whose generator S = Omega^-1 M has a random
    symmetric M, at n = 2 or 3, with random 2-form components on J's lattice."""
    n = draw(st_hyp.sampled_from([2, 3]))
    dim = 2 * n
    entries = draw(st_hyp.lists(st_hyp.floats(-1.0, 1.0), min_size=dim * dim,
                                max_size=dim * dim))
    M = np.array(entries).reshape(dim, dim)
    S = np.linalg.solve(structure.omega_matrix(n), M + M.T)
    recipe = structure.StructureRecipe(
        kind="twisted", generator=S, amplitude=draw(st_hyp.floats(0.0, 0.4)),
        profile=draw(st_hyp.sampled_from(["sin_x1", "sin_x1_cos_y2"])),
    )
    s = structure.twisted_structure(structure.build_grid(n, [8] * dim), recipe)
    seed = draw(st_hyp.integers(0, 2**32 - 1))
    npairs = len(forms.multi_indices(dim, 2))
    comps = np.random.default_rng(seed).standard_normal((npairs,) + s.J.shape[2:])
    return s, comps


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
    B = forms.form_to_matrix(forms.FormField(s.chart, 2, comps))
    BJ = np.einsum("ij...,jk...->ik...", B, J)
    expected = 0.5 * (BJ - np.einsum("ji...,jk...->ik...", J, B))
    assert np.abs(cy.h_matrix(J, comps) - expected).max() <= tol
