import functools

import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import forms
from akcy import structure as st


def make_twisted(resolution, epsilon=0.12, profile="sin_x1_cos_y2"):
    n = len(resolution) // 2
    chart = st.build_grid(n, list(resolution))
    recipe = st.StructureRecipe(
        kind="twisted",
        generator=st.default_generator(n),
        amplitude=epsilon,
        profile=profile,
    )
    return st.twisted_structure(chart, recipe)


def make_standard(resolution):
    return st.standard_structure(st.build_grid(len(resolution) // 2, list(resolution)))


@pytest.fixture(scope="session")
def s_std12():
    return make_standard([12, 12, 12, 12])


@pytest.fixture(scope="session")
def s_tw12():
    return make_twisted([12, 12, 12, 12])


@pytest.fixture(scope="session")
def s_tw16():
    return make_twisted([16, 16, 16, 16])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@functools.lru_cache(maxsize=None)
def slab_structure(name):
    """Grids for the slab checks: even, odd, one with J constant along axis
    0, the standard structure, n = 3, and one with a different resolution
    on each axis."""
    return {
        "tw12": lambda: make_twisted([12] * 4),
        "tw8": lambda: make_twisted([8] * 4),
        "tw9": lambda: make_twisted([9] * 4),
        "tw10_sin_x2": lambda: make_twisted([10] * 4, profile="sin_x2"),
        "std10": lambda: make_standard([10] * 4),
        "tw8_n3": lambda: make_twisted([8] * 6, profile="sin_x1"),
        "tw_mixed": lambda: make_twisted([8, 10, 9, 12]),
    }[name]()


def set_slab_rows(monkeypatch, shape, rows):
    """Slabs of `rows` rows of grid axis 0 (None: the default budget)."""
    if rows is not None:
        monkeypatch.setattr(cy, "SLAB_POINTS", rows * int(np.prod(shape[1:])))


def grouped_slabs(shape, workers):
    """Row slabs [a, b) of one grid sweep on `workers` CPUs, by the rule
    cy_operator documents: min(workers, full SLAB_POINTS slabs) contiguous
    row groups, each cut in slabs of SLAB_POINTS / groups points (at least
    one row)."""
    k = max(1, min(workers, int(np.prod(shape)) // cy.SLAB_POINTS, shape[0]))
    rows = max(1, cy.SLAB_POINTS // k // int(np.prod(shape[1:])))
    groups = [(i * shape[0] // k, (i + 1) * shape[0] // k) for i in range(k)]
    return [(a, min(a + rows, hi)) for lo, hi in groups for a in range(lo, hi, rows)]


def unblocked_deformation_form(s, phi):
    """d(J dphi) on the whole grid: the reference of the slab kernel."""
    return forms.exterior_derivative(forms.apply_J_oneform(s, forms.d_scalar(s.chart, phi)))


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


SLAB_GRIDS = ["tw12", "tw9", "tw10_sin_x2", "std10", "tw8_n3"]
# One row per slab, a row count dividing no grid here, one slab for the axis.
SLAB_ROWS = [None, 1, 5, 10**6]
# The L-apply checks add unequal spacings, where h_a/h_b is not 1.
L_GRIDS = SLAB_GRIDS + ["tw_mixed"]
# Grids and slab sizes of the slab margin and F checks.
REDUCTION_GRIDS = ["tw8", "tw9", "tw8_n3"]
REDUCTION_ROWS = [1, 2, 10**6]
