"""Discretized torus models carrying a fixed symplectic form and a
compatible (possibly non-integrable) almost complex structure.

Conventions
-----------
Real dimension is ``2n`` with coordinates interleaved as
``(x_1, y_1, x_2, y_2, ..., x_n, y_n)`` on the periodic unit box.
The symplectic form is the constant ``omega = sum_a dx_a ^ dy_a``;
the reference complex structure ``J0`` sends ``d/dx_a -> d/dy_a`` and
``d/dy_a -> -d/dx_a``, so the derived metric ``g(X,Y) = omega(X, J Y)``
is Euclidean in the standard case.

Non-integrable structures are produced by symplectic conjugation
``J(p) = A(p) J0 A(p)^-1`` with ``A(p) = exp(eps * t(p) * S)`` for an
infinitesimally symplectic generator ``S`` and a periodic profile ``t``.
Only the scalar ``c = eps * t(p)`` varies from point to point, so
``exp(c S)`` is evaluated for all points at once by one kernel
(``_exp_kernel``): a degree-16 Taylor polynomial in the precomputed powers
``S^k / k!``, applied to ``c / 2^q`` and squared ``q`` times, with ``q``
the fewest squarings that bring ``max|c| * ||S||_1 / 2^q`` to 1/2
(scaling and squaring, Higham 2005).  The default generators have
``||S||_1 = 1.5``, so they never square while ``|c| <= 1/3``.
Conjugation by a symplectic matrix preserves omega-compatibility
identically, so compatibility never has to be repaired after the fact.
Since ``S`` commutes with ``A``, ``dJ = eps dt (S J - J S)`` in closed form
from J itself (``CompatibleStructure.dJ_at``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, RecipeError, StructureError

__all__ = [
    "GridChart",
    "StructureRecipe",
    "CompatibleStructure",
    "ValidationReport",
    "build_grid",
    "standard_structure",
    "twisted_structure",
    "validate_structure",
    "omega_matrix",
    "standard_J",
    "default_generator",
    "PROFILES",
]

# Hard invariant tolerances for built structures.
ALGEBRA_TOL = 1e-12
VALIDATE_TOL = 1e-10
# Taylor degree of _exp_kernel.  With the scaled argument's 1-norm at most
# 1/2 the truncated tail sum_{k>16} 2^-k/k! is below 1e-19.
EXP_ORDER = 16


@dataclass(frozen=True)
class GridChart:
    """Periodic uniform lattice over the 2n-torus [0,1)^(2n).

    spacing is exactly 1/N per axis; all stencil arithmetic wraps.
    """

    half_dim: int
    resolution: tuple
    spacing: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "resolution", tuple(int(N) for N in self.resolution))
        object.__setattr__(self, "spacing", tuple(1.0 / N for N in self.resolution))

    @property
    def dim(self):
        return 2 * self.half_dim

    @property
    def shape(self):
        return self.resolution

    def axis_coords(self, d):
        """Coordinates of axis d, shaped for broadcasting against grid fields."""
        N = self.resolution[d]
        x = np.arange(N) * self.spacing[d]
        shape = [1] * self.dim
        shape[d] = N
        return x.reshape(shape)

    def grid_points(self):
        """All grid points as an array of shape (*resolution, 2n). Dense; small grids only."""
        axes = [np.arange(N) * h for N, h in zip(self.resolution, self.spacing)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def lattice_points(self, bshape):
        """Coordinates of the lattice of a field broadcast-reduced to bshape,
        shape (*bshape, 2n): the grid coordinate along each full axis and 0
        along each size-1 (broadcast) axis."""
        pts = np.zeros(tuple(bshape) + (self.dim,))
        for d in range(self.dim):
            if bshape[d] > 1:
                pts[..., d] = np.broadcast_to(self.axis_coords(d), bshape)
        return pts

    def index_to_point(self, idx):
        return np.asarray(idx, dtype=float) * np.asarray(self.spacing)

    def diff(self, f, d, out=None):
        """Centered second-order periodic difference along grid axis d: the
        unscaled difference (delta) divided by 2h.

        Grid axes are the trailing ``2n`` axes of ``f``; leading axes are
        component/batch axes.  Size-1 (broadcast) axes differentiate to zero,
        which is exact for fields constant along that axis.  The result is
        written into ``out`` (shape ``f.shape``) when given.
        """
        out = self.delta(f, d, out)
        out /= 2.0 * self.spacing[d]
        return out

    def delta(self, f, d, out=None):
        """Unscaled periodic difference f(x + h e_d) - f(x - h e_d) along grid
        axis d, as diff: the interior by one subtraction, the two wrap faces
        separately, with no shifted copy of ``f``.  When f and out are
        C-contiguous the interior is one flat subtraction shifted by the
        axis-d stride, which also fills the two faces, overwritten next; it
        runs two to three times faster than the strided slices on the inner
        axes, with the same operands per point."""
        f = np.asarray(f)
        axis = f.ndim - self.dim + d
        if out is None:
            out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
        if f.shape[axis] == 1:
            out[...] = 0
            return out
        lead = (slice(None),) * axis
        if f.flags.c_contiguous and out.flags.c_contiguous:
            step = math.prod(f.shape[axis + 1:])
            ff, of = f.reshape(-1), out.reshape(-1)
            np.subtract(ff[2 * step:], ff[:-2 * step], out=of[step:-step])
        else:
            np.subtract(f[lead + (slice(2, None),)], f[lead + (slice(None, -2),)],
                        out=out[lead + (slice(1, -1),)])
        np.subtract(f[lead + (1,)], f[lead + (-1,)], out=out[lead + (0,)])
        np.subtract(f[lead + (0,)], f[lead + (-2,)], out=out[lead + (-1,)])
        return out

    def gradient(self, f):
        """All 2n centered differences of f, stacked: shape (2n, *f.shape)."""
        f = np.asarray(f)
        out = np.empty((self.dim,) + f.shape, dtype=np.result_type(f, 1.0))
        for d in range(self.dim):
            self.diff(f, d, out=out[d])
        return out

    def integrate_scalar(self, f):
        """Periodic quadrature of a grid scalar over the unit box (exact for constants)."""
        cell = float(np.prod(self.spacing))
        f = np.asarray(f)
        # Broadcast axes carry implicit multiplicity.
        mult = 1.0
        for d in range(self.dim):
            axis = f.ndim - self.dim + d
            if f.shape[axis] == 1:
                mult *= self.resolution[d]
        return float(np.sum(f) * mult * cell)


def build_grid(half_dim, resolution):
    """Build a periodic chart; rejects half_dim < 2 (surfaces are Kahler)."""
    half_dim = int(half_dim)
    if half_dim < 2:
        raise ConfigurationError(
            "half_dim must be >= 2 (complex dimension 1 has no non-integrable structures)"
        )
    resolution = list(resolution)
    if len(resolution) != 2 * half_dim:
        raise ConfigurationError(
            f"resolution must have length {2 * half_dim}, got {len(resolution)}"
        )
    for N in resolution:
        if int(N) < 8:
            raise ConfigurationError(f"each axis needs at least 8 points, got {N}")
    return GridChart(half_dim, tuple(resolution))


def omega_matrix(half_dim):
    """Coefficient matrix of omega: omega(X,Y) = X^T Omega Y, omega(dx,dy) = +1."""
    n = half_dim
    O = np.zeros((2 * n, 2 * n))
    for a in range(n):
        O[2 * a, 2 * a + 1] = 1.0
        O[2 * a + 1, 2 * a] = -1.0
    return O


def standard_J(half_dim):
    """Constant J0 with J0 dx_a = dy_a (as tangent map: column of dx maps to dy)."""
    n = half_dim
    J = np.zeros((2 * n, 2 * n))
    for a in range(n):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    return J


def default_generator(half_dim):
    """A generic infinitesimally symplectic S = Omega^-1 M (M symmetric) that
    does not commute with J0, so the conjugated structure is non-integrable."""
    n = half_dim
    M = np.zeros((2 * n, 2 * n))
    M[0, 0] = 0.5
    M[0, 2] = M[2, 0] = 1.0
    M[3, 3] = -0.3
    if 2 * n > 4:
        M[1, 4] = M[4, 1] = 0.7
    O = omega_matrix(n)
    return np.linalg.solve(O, M)


# Twist profiles: name -> terms (c, axis, f), t(x) = sum c * f(2 pi x[axis]),
# f in {np.sin, np.cos}; _DERIVATIVE holds f'.
PROFILES = {
    "sin_x1": ((1.0, 0, np.sin),),
    "cos_x1": ((1.0, 0, np.cos),),
    "sin_y1": ((1.0, 1, np.sin),),
    "sin_x2": ((1.0, 2, np.sin),),
    "sin_x1_cos_y2": ((1.0, 0, np.sin), (0.5, 3, np.cos)),
}
_DERIVATIVE = {np.sin: np.cos, np.cos: lambda u: -np.sin(u)}


def _profile(terms, x):
    """t at points x (..., 2n)."""
    return sum(c * f(2.0 * np.pi * x[..., axis]) for c, axis, f in terms)


@dataclass(frozen=True)
class StructureRecipe:
    """Construction data for a compatible structure.

    kind is "standard" or "twisted"; generator is a constant matrix in the
    symplectic Lie algebra (S^T Omega + Omega S = 0); amplitude scales the
    twist; profile names the periodic scalar t of PROFILES.
    """

    kind: str
    generator: np.ndarray = None
    amplitude: float = 0.0
    profile: str = "sin_x1"

    def check(self, half_dim):
        if self.kind not in ("standard", "twisted"):
            raise RecipeError(f"unknown recipe kind {self.kind!r}")
        if self.kind == "standard":
            return
        if self.profile not in PROFILES:
            raise RecipeError(f"unknown profile {self.profile!r}; choices: {sorted(PROFILES)}")
        S = np.asarray(self.generator, dtype=float)
        if S.shape != (2 * half_dim, 2 * half_dim):
            raise RecipeError(f"generator must be {2*half_dim}x{2*half_dim}, got {S.shape}")
        O = omega_matrix(half_dim)
        defect = np.max(np.abs(S.T @ O + O @ S))
        if defect > ALGEBRA_TOL:
            raise RecipeError(
                f"generator is not infinitesimally symplectic: |S^T Omega + Omega S| = {defect:.3e}"
            )


class CompatibleStructure:
    """A chart plus pointwise J, constant omega, and derived metric g.

    ``J`` and ``g`` are stored with shape (2n, 2n, *bshape) where bshape is
    broadcastable to the grid (size-1 along axes the twist does not use).
    ``J_at`` evaluates the same structure at arbitrary points, which the
    boundary module uses for off-grid polydisk scans, and ``dJ_at`` its
    closed-form first derivatives there.
    """

    def __init__(self, chart, J, recipe, J_at):
        self.chart = chart
        self.J = J
        self.omega = omega_matrix(chart.half_dim)
        self.g = np.einsum("ij,jk...->ik...", self.omega, J)
        self.recipe = recipe
        self._J_at = J_at
        self._cache = {}

    @property
    def half_dim(self):
        return self.chart.half_dim

    @property
    def bshape(self):
        return self.J.shape[2:]

    def J_at(self, points):
        """J at arbitrary physical points, shape (..., 2n) -> (..., 2n, 2n)."""
        return self._J_at(np.asarray(points, dtype=float))

    def dJ_at(self, points, J):
        """dJ[d] = partial_d J at points (..., 2n), given J = J_at(points):
        shape (2n, ..., 2n, 2n).  With A = exp(eps t S), partial_d A =
        eps partial_d t S A, so partial_d J = eps partial_d t (S J - J S);
        zero for the standard structure."""
        if self.recipe.kind == "standard":
            return np.zeros((self.chart.dim,) + np.shape(J))
        points = np.asarray(points, dtype=float)
        dt = np.zeros((self.chart.dim,) + points.shape[:-1])
        for c, axis, f in PROFILES[self.recipe.profile]:
            dt[axis] += 2.0 * np.pi * c * _DERIVATIVE[f](2.0 * np.pi * points[..., axis])
        S = np.asarray(self.recipe.generator, dtype=float)
        return (self.recipe.amplitude * dt)[..., None, None] * (S @ J - J @ S)

    def cache(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


def standard_structure(chart):
    """Flat Kahler torus: constant J0, Euclidean metric."""
    n = chart.half_dim
    J0 = standard_J(n)
    J = J0.reshape((2 * n, 2 * n) + (1,) * chart.dim)

    def J_at(points):
        return np.broadcast_to(J0, points.shape[:-1] + J0.shape).copy()

    return CompatibleStructure(chart, J, StructureRecipe("standard"), J_at)


def _exp_squarings(r):
    """Fewest q >= 0 with r / 2^q <= 1/2, for r = max|c| * ||S||_1."""
    return 0 if r <= 0.5 else int(np.ceil(np.log2(2.0 * r)))


def _exp_kernel(S):
    """expS(c) = exp(c*S) for every scalar of the array c, shape
    c.shape + S.shape.

    The Taylor terms S^k/k!, k <= EXP_ORDER, are precomputed; each call scales
    c by 2^-q (q = _exp_squarings(max|c| * ||S||_1)), evaluates the polynomial
    for all points as one tensordot of the powers (c/2^q)^k with the stacked
    terms, and squares q times.  When max|c| * ||S||_1 >= 2^1022, 2^q is out
    of float range and every entry is +inf.
    """
    S = np.asarray(S, dtype=float)
    terms = [np.eye(S.shape[0])]
    for k in range(1, EXP_ORDER + 1):
        terms.append(terms[-1] @ S / k)
    terms = np.stack(terms)
    norm1 = float(np.abs(S).sum(axis=0).max())

    def expS(c):
        c = np.asarray(c, dtype=float)
        r = float(np.abs(c).max(initial=0.0)) * norm1
        if not r < 2.0**1022:          # 2^q leaves the float range, as exp(c S) does
            return np.full(c.shape + S.shape, np.inf)
        q = _exp_squarings(r)
        powers = np.vander((c / 2.0**q).ravel(), EXP_ORDER + 1, increasing=True)
        A = np.tensordot(powers.reshape(c.shape + (EXP_ORDER + 1,)), terms, axes=1)
        for _ in range(q):
            A = A @ A
        return A

    return expS


def twisted_structure(chart, recipe):
    """Symplectically conjugated structure J = A J0 A^-1, A = exp(eps*t(p)*S),
    with A and A^-1 = exp(-eps*t(p)*S) from one _exp_kernel for both the grid
    field and J_at.  Raises StructureError at validate_structure's worst
    point when the lattice J fails validation or is not finite (a twist so
    large that exp(eps*t*S) overflows)."""
    if recipe.kind != "twisted":
        raise RecipeError("twisted_structure requires a recipe with kind='twisted'")
    recipe.check(chart.half_dim)
    if recipe.amplitude == 0.0:
        return standard_structure(chart)
    n = chart.half_dim
    J0 = standard_J(n)
    terms = PROFILES[recipe.profile]
    expS = _exp_kernel(recipe.generator)
    eps = float(recipe.amplitude)

    def conjugate(t):
        """A J0 A^-1 for every profile value of t, shape t.shape + (2n, 2n)."""
        return expS(eps * t) @ J0 @ expS(-eps * t)

    # Profile sampled on the broadcast-reduced lattice only.
    axes = {axis for _, axis, _ in terms}
    bshape = tuple(N if d in axes else 1 for d, N in enumerate(chart.resolution))
    coords = chart.lattice_points(bshape)
    with np.errstate(over="ignore", invalid="ignore"):
        J = conjugate(_profile(terms, coords))
    J = np.ascontiguousarray(np.moveaxis(J, (-2, -1), (0, 1)))

    def J_at(points):
        return conjugate(_profile(terms, points))

    s = CompatibleStructure(chart, J, recipe, J_at)
    rep = validate_structure(s)
    if not rep.passed:
        raise StructureError(
            f"twist amplitude {eps!r} breaks the structure at lattice point {rep.worst_point}: "
            f"J^2 defect {rep.max_J_square_defect:.3e}, omega defect "
            f"{rep.max_omega_invariance_defect:.3e} (tolerance {VALIDATE_TOL:g}), min metric "
            f"eigenvalue {rep.min_g_eigenvalue:.3e}; reduce the twist amplitude",
            point=rep.worst_point,
        )
    return s


@dataclass
class ValidationReport:
    max_J_square_defect: float
    max_omega_invariance_defect: float
    max_g_symmetry_defect: float
    min_g_eigenvalue: float
    passed: bool
    worst_point: tuple = None

    def as_dict(self):
        return {
            "max_J_square_defect": self.max_J_square_defect,
            "max_omega_invariance_defect": self.max_omega_invariance_defect,
            "max_g_symmetry_defect": self.max_g_symmetry_defect,
            "min_g_eigenvalue": self.min_g_eigenvalue,
            "passed": self.passed,
            "worst_point": list(self.worst_point) if self.worst_point is not None else None,
        }


def validate_structure(s):
    """Scan every (broadcast-distinct) grid point for the compatibility
    identities.  A point where J is not finite fails them all: its defects
    and metric eigenvalue are nan, and the first such point is the worst."""
    J = np.moveaxis(s.J, (0, 1), (-2, -1))      # (*bshape, 2n, 2n)
    O = s.omega
    g = np.moveaxis(s.g, (0, 1), (-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        d_j2 = np.abs(J @ J + np.eye(2 * s.half_dim)).max(axis=(-2, -1))
        d_om = np.abs(np.swapaxes(J, -2, -1) @ O @ J - O).max(axis=(-2, -1))
        d_gs = np.abs(g - np.swapaxes(g, -2, -1)).max(axis=(-2, -1))
        gsym = 0.5 * (g + np.swapaxes(g, -2, -1))

    finite = np.isfinite(gsym).all(axis=(-2, -1))
    min_eig = np.full(finite.shape, np.nan)
    min_eig[finite] = np.linalg.eigvalsh(gsym[finite])[:, 0]

    defect = np.maximum(np.maximum(d_j2, d_om), d_gs)
    worst = np.unravel_index(int(np.argmax(defect)), defect.shape)
    passed = bool(defect.max() <= VALIDATE_TOL and min_eig.min() > 0.0)
    return ValidationReport(
        max_J_square_defect=float(d_j2.max()),
        max_omega_invariance_defect=float(d_om.max()),
        max_g_symmetry_defect=float(d_gs.max()),
        min_g_eigenvalue=float(min_eig.min()),
        passed=passed,
        worst_point=tuple(int(i) for i in worst),
    )
