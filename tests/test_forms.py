import math

import numpy as np
import pytest

from akcy import forms
from akcy.errors import DegreeError

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
