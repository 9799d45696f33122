import warnings

import numpy as np
import pytest
import scipy.linalg

from akcy import structure as st
from akcy.errors import ConfigurationError, RecipeError, StructureError

from conftest import assert_same_bytes, make_twisted


def test_build_grid_rejects_surfaces():
    with pytest.raises(ConfigurationError):
        st.build_grid(1, [16, 16])


def test_build_grid_rejects_wrong_axis_count():
    with pytest.raises(ConfigurationError):
        st.build_grid(2, [16, 16, 16])


def test_build_grid_rejects_tiny_axes():
    with pytest.raises(ConfigurationError):
        st.build_grid(2, [8, 8, 8, 4])


def test_standard_structure_is_euclidean(s_std12):
    rep = st.validate_structure(s_std12)
    assert rep.passed
    assert rep.max_J_square_defect == 0.0
    assert rep.min_g_eigenvalue == pytest.approx(1.0, abs=1e-14)


def test_standard_J_squares_to_minus_identity():
    J = st.standard_J(3)
    assert np.array_equal(J @ J, -np.eye(6))


def test_omega_matrix_is_antisymmetric_and_unimodular():
    O = st.omega_matrix(2)
    assert np.array_equal(O.T, -O)
    assert np.linalg.det(O) == pytest.approx(1.0)


def test_default_generator_is_infinitesimally_symplectic():
    for n in (2, 3):
        S = st.default_generator(n)
        O = st.omega_matrix(n)
        assert np.abs(S.T @ O + O @ S).max() < 1e-14


def test_twisted_structure_passes_validation(s_tw12):
    rep = st.validate_structure(s_tw12)
    assert rep.passed
    assert rep.max_J_square_defect < 1e-12
    assert rep.max_omega_invariance_defect < 1e-12
    assert rep.min_g_eigenvalue > 0.0


def test_twisted_J_varies_in_space(s_tw12):
    J = s_tw12.J
    spread = J.reshape(J.shape[0], J.shape[1], -1)
    assert np.ptp(spread, axis=-1).max() > 1e-3


def test_J_at_matches_grid_values(s_tw12):
    chart = s_tw12.chart
    pts = chart.grid_points()[::4, ::4, ::4, ::4].reshape(-1, 4)
    J_pt = s_tw12.J_at(pts)
    full = np.broadcast_to(
        np.moveaxis(s_tw12.J, (0, 1), (-2, -1)), chart.shape + (4, 4)
    )
    ref = full[::4, ::4, ::4, ::4].reshape(-1, 4, 4)
    assert np.abs(J_pt - ref).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_J_at_non_nilpotent_generator_matches_pointwise_expm(n):
    """S = Omega^-1 M with M symmetric positive definite has a nonzero
    (imaginary) spectrum, unlike the nilpotent default generator."""
    rng = np.random.default_rng(17 + n)
    Q = rng.standard_normal((2 * n, 2 * n))
    M = Q @ Q.T + np.eye(2 * n)
    S = np.linalg.solve(st.omega_matrix(n), M)
    assert np.abs(np.linalg.eigvals(S)).min() > 1e-3
    chart = st.build_grid(n, [8] * (2 * n))
    eps = 0.05
    s = st.twisted_structure(chart, st.StructureRecipe("twisted", S, eps, "sin_x1"))
    pts = rng.uniform(0.0, 1.0, size=(40, 2 * n))
    J0 = st.standard_J(n)
    ref = []
    for p in pts:
        c = eps * np.sin(2.0 * np.pi * p[0])
        ref.append(scipy.linalg.expm(c * S) @ J0 @ scipy.linalg.expm(-c * S))
    assert np.abs(s.J_at(pts) - np.array(ref)).max() < 1e-12
    assert np.abs(s.J_at(pts[0]) - ref[0]).max() < 1e-12


# The profiles as the closures they were before PROFILES became a table of
# terms (c, axis, f).
PROFILE_CLOSURES = {
    "sin_x1": lambda x: np.sin(2.0 * np.pi * 1 * x[..., 0]),
    "cos_x1": lambda x: np.cos(2.0 * np.pi * 1 * x[..., 0]),
    "sin_y1": lambda x: np.sin(2.0 * np.pi * 1 * x[..., 1]),
    "sin_x2": lambda x: np.sin(2.0 * np.pi * 1 * x[..., 2]),
    "sin_x1_cos_y2": lambda x: np.sin(2.0 * np.pi * x[..., 0])
    + 0.5 * np.cos(2.0 * np.pi * x[..., 3]),
}


@pytest.mark.parametrize("profile", sorted(PROFILE_CLOSURES))
def test_profile_terms_give_the_closures_J_bitwise(profile, rng):
    """The grid J and J_at of each profile are bitwise those of its closure,
    conjugated by the same exp kernel."""
    assert sorted(PROFILE_CLOSURES) == sorted(st.PROFILES)
    s = make_twisted([10] * 4, profile=profile)
    expS = st._exp_kernel(s.recipe.generator)
    J0 = st.standard_J(2)

    def reference(points):
        t = PROFILE_CLOSURES[profile](points)
        return expS(0.12 * t) @ J0 @ expS(-0.12 * t)

    grid = reference(s.chart.lattice_points(s.bshape))
    assert_same_bytes(s.J, np.ascontiguousarray(np.moveaxis(grid, (-2, -1), (0, 1))))
    pts = rng.uniform(-0.5, 1.5, size=(200, 4))
    assert_same_bytes(s.J_at(pts), reference(pts))


def test_lattice_points_are_the_grid_coordinates_on_full_axes():
    chart = st.build_grid(2, [8, 9, 10, 11])
    pts = chart.lattice_points((8, 1, 1, 11))
    assert pts.shape == (8, 1, 1, 11, 4)
    full = chart.grid_points()
    assert np.array_equal(pts[..., 0], full[:, :1, :1, :, 0])
    assert np.array_equal(pts[..., 3], full[:, :1, :1, :, 3])
    assert not pts[..., 1:3].any()


def test_standard_dJ_is_exactly_zero(s_std12, rng):
    pts = rng.uniform(0, 1, size=(50, 4))
    dJ = s_std12.dJ_at(pts, s_std12.J_at(pts))
    assert dJ.shape == (4, 50, 4, 4)
    assert not dJ.any()


def test_recipe_rejects_non_symplectic_generator():
    bad = np.eye(4)
    recipe = st.StructureRecipe("twisted", bad, 0.1, "sin_x1")
    with pytest.raises(RecipeError):
        recipe.check(2)


def test_recipe_rejects_unknown_profile():
    recipe = st.StructureRecipe("twisted", st.default_generator(2), 0.1, "nope")
    with pytest.raises(RecipeError):
        recipe.check(2)


def test_zero_amplitude_twist_degenerates_to_standard():
    chart = st.build_grid(2, [12] * 4)
    recipe = st.StructureRecipe("twisted", st.default_generator(2), 0.0, "sin_x1")
    s = st.twisted_structure(chart, recipe)
    assert np.array_equal(
        np.moveaxis(s.J, (0, 1), (-2, -1)).reshape(-1, 4, 4)[0], st.standard_J(2)
    )


def test_metric_positive_definite_up_to_large_twist():
    s = make_twisted([12] * 4, epsilon=0.3)
    rep = st.validate_structure(s)
    assert rep.passed and rep.min_g_eigenvalue > 0.0


@pytest.mark.parametrize("eps", [50.0, 1e200, 1e308, -1e308])
def test_twist_that_breaks_the_structure_is_rejected(eps):
    """At 8^4 (sin_x1) eps = 50 gives a finite J whose J^2 defect, 5e-6,
    fails validate_structure; at 1e200 the squarings overflow and J is not
    finite; at 1e308 the scaling 2^q leaves the float range.  Each raises
    StructureError at a lattice point, with no numpy warning or error."""
    chart = st.build_grid(2, [8] * 4)
    recipe = st.StructureRecipe("twisted", st.default_generator(2), eps, "sin_x1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructureError, match="breaks the structure") as err:
            st.twisted_structure(chart, recipe)
    assert len(err.value.point) == 4 and all(0 <= i < 8 for i in err.value.point)


def test_validate_structure_fails_where_J_is_not_finite(s_tw12):
    """A non-finite J fails every identity there, and the first such point
    is the worst, without an eigensolver error."""
    J = s_tw12.J.copy()
    J[0, 1, 3, 0, 0, 5] = np.inf
    s = st.CompatibleStructure(s_tw12.chart, J, s_tw12.recipe, s_tw12.J_at)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = st.validate_structure(s)
    assert not rep.passed
    assert np.isnan(rep.max_J_square_defect) and np.isnan(rep.min_g_eigenvalue)
    assert rep.worst_point == (3, 0, 0, 5)


def test_diff_is_exact_on_resolved_waves(s_std12):
    chart = s_std12.chart
    x = chart.axis_coords(0)
    f = np.sin(2 * np.pi * x) + np.zeros(chart.shape)
    df = chart.diff(f, 0)
    h = chart.spacing[0]
    # centered difference of a pure wave scales by sin(2 pi h)/(2 pi h)
    factor = np.sin(2 * np.pi * h) / (2 * np.pi * h)
    expect = 2 * np.pi * factor * np.cos(2 * np.pi * x) + np.zeros(chart.shape)
    assert np.abs(df - expect).max() < 1e-12


def _roll_diff(chart, f, d):
    """The np.roll centered difference that Chart.diff replaced."""
    axis = f.ndim - chart.dim + d
    if f.shape[axis] == 1:
        return np.zeros_like(f)
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * chart.spacing[d])


@pytest.mark.parametrize("dtype", [float, complex])
def test_diff_matches_roll_reference_bytewise(dtype):
    """Slices into one output give the np.roll differences bit for bit: even
    and odd axes, two leading component axes, a size-1 broadcast axis, real
    and complex fields, with and without out=, C-contiguous (one flat
    interior subtraction) or not (strided slices); Chart.delta gives the
    unscaled differences the same way."""
    chart = st.build_grid(2, [8, 9, 10, 11])
    rng = np.random.default_rng(7)
    shape = (2, 3, 8, 1, 10, 11)
    f = rng.standard_normal(shape)
    if dtype is complex:
        f = f + 1j * rng.standard_normal(shape)
    ref = np.stack([_roll_diff(chart, f, d) for d in range(chart.dim)])
    grad = chart.gradient(f)
    assert grad.dtype == ref.dtype and grad.tobytes() == ref.tobytes()
    for d in range(chart.dim):
        out = np.full(shape, np.nan, dtype=dtype)
        assert chart.diff(f, d, out=out) is out
        assert out.tobytes() == ref[d].tobytes()
        assert chart.diff(f, d).tobytes() == ref[d].tobytes()
        assert chart.diff(np.asfortranarray(f), d).tobytes() == ref[d].tobytes()
        out = np.full(shape, np.nan, dtype=dtype, order="F")
        assert chart.diff(f, d, out=out) is out and out.tobytes() == ref[d].tobytes()
        delta = _roll_diff(chart, f, d) if shape[2 + d] == 1 else (
            np.roll(f, -1, axis=2 + d) - np.roll(f, 1, axis=2 + d))
        assert chart.delta(f, d).tobytes() == delta.tobytes()
        assert chart.delta(np.asfortranarray(f), d).tobytes() == delta.tobytes()


def test_integrate_scalar_handles_broadcast_axes(s_std12):
    chart = s_std12.chart
    f = np.ones((1, 1, 1, 1))
    assert chart.integrate_scalar(f) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_exp_kernel_squaring_branch_matches_pointwise_expm(n):
    """eps * max|t| * ||S||_1 = 3 takes the kernel through q = 3 squarings;
    the grid J and J_at still match per-point expm conjugation and stay
    compatible."""
    rng = np.random.default_rng(31 + n)
    Q = rng.standard_normal((2 * n, 2 * n))
    M = Q @ Q.T / (2 * n) + np.eye(2 * n)
    S = np.linalg.solve(st.omega_matrix(n), M)
    assert np.abs(np.linalg.eigvals(S)).min() > 1e-3
    norm1 = np.abs(S).sum(axis=0).max()
    eps = 3.0 / norm1
    chart = st.build_grid(n, [8] * (2 * n))
    s = st.twisted_structure(chart, st.StructureRecipe("twisted", S, eps, "sin_x1"))
    J0 = st.standard_J(n)

    def reference(x1):
        c = eps * np.sin(2.0 * np.pi * x1)
        return scipy.linalg.expm(c * S) @ J0 @ scipy.linalg.expm(-c * S)

    pts = rng.uniform(0.0, 1.0, size=(40, 2 * n))
    pts[0, 0] = 0.25                       # t = 1, so max|c| = eps
    assert st._exp_squarings(eps * np.abs(np.sin(2.0 * np.pi * pts[:, 0])).max() * norm1) == 3
    want = np.array([reference(p[0]) for p in pts])
    assert np.abs(s.J_at(pts) - want).max() <= 1e-12 * np.abs(want).max()

    grid = np.moveaxis(s.J, (0, 1), (-2, -1)).reshape(8, 2 * n, 2 * n)
    want = np.array([reference(i / 8) for i in range(8)])
    assert np.abs(grid - want).max() <= 1e-12 * np.abs(want).max()

    rep = st.validate_structure(s)
    assert rep.passed
    assert rep.max_J_square_defect < 1e-12
    assert rep.max_omega_invariance_defect < 1e-12


def test_exp_squarings_is_the_fewest_that_reach_one_half():
    for r in (0.0, 0.5, 0.51, 1.0, 1.01, 3.0, 1e3):
        q = st._exp_squarings(r)
        assert r / 2**q <= 0.5
        assert q == 0 or r / 2 ** (q - 1) > 0.5
    # the default generators need none up to |c| = 1/3 (the twist used
    # throughout has eps 0.12, |t| <= 1.5)
    for n in (2, 3):
        assert st._exp_squarings(np.abs(st.default_generator(n)).sum(axis=0).max() / 3.0) == 0
