"""The deformed form omega(phi), its bidegree parts, the operators F_j and F,
taming margins, and the positivity amplitude.

The coordinate path computed here is authoritative; the frame module provides
an independent validation path.  F is always computed along two paths from
one evaluation of d(J dphi) (direct top wedge power versus the component sum
over F_j) and any disagreement raises, since that identity is the sharpest
trap for sign or normalization errors.

Memory notes: all bidegree algebra and h run on increasing-pair component
storage through forms.contract_pairs (never the full 2n x 2n matrix field of
the form); its coefficients live on J's broadcast lattice and are built one
at a time, so the only grid-size temporary is one product per term.  tau
wedge tau-bar is evaluated via the real identity (Bm^Bm + JBm^JBm)/4, so fine
4D grids stay within budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import forms
from .errors import AmplitudeError, ConsistencyError, NumericalError, PreconditionError
from .frame import build_frame

__all__ = [
    "Potential",
    "PotentialReport",
    "deformation_form",
    "deformed_form",
    "tau",
    "H_part",
    "h_form",
    "h_matrix",
    "min_eigenvalue_field",
    "F_components",
    "F_total",
    "taming_margin",
    "pencil_amplitude",
    "positivity_amplitude",
    "project_zero_mean",
    "analyze_potential",
    "TAMING_THRESHOLD",
    "F_CONSISTENCY_RTOL",
]

# A+ membership threshold: margin must clear the discretization noise floor.
TAMING_THRESHOLD = 1e-8
F_CONSISTENCY_RTOL = 1e-10
# Amplitudes above AMPLITUDE_MAX count as unbounded; AMPLITUDE_RTOL is the
# relative offset of the two sweeps that certify the closed-form amplitude.
AMPLITUDE_MAX = 1e6
AMPLITUDE_RTOL = 1e-9
POINT_CHUNK = 1 << 18    # points per block of a taming sweep
PROBE = 64               # lowest-bound points per block evaluated first
# Allowance, relative to the largest absolute row sum, by which a Gershgorin
# bound is lowered so that it also bounds the rounded kernel value: LAPACK's
# Cholesky, solves and symmetric eigensolver on k <= 6 are backward stable
# with errors of a small multiple of k*eps*||A|| (Higham, Accuracy and
# Stability of Numerical Algorithms, ch. 10; Golub & Van Loan, ch. 8).
GERSHGORIN_ROUNDING = 4096 * np.finfo(float).eps


@dataclass
class Potential:
    """Real scalar potential on the grid."""

    chart: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def _values(phi):
    if isinstance(phi, Potential):
        return phi.values
    return np.asarray(phi, dtype=float)


def _point_blocks(*fields):
    """(flat index of the first point, grid shape of the block, one view per
    field) along the leading grid axis of matrix fields (matrix axes first,
    grid axes broadcast), about POINT_CHUNK points per block.  A view keeps
    its field's size-1 axes, so a broadcast field (the metric) is never
    copied to grid size."""
    shape = np.broadcast_shapes(*(M.shape for M in fields))
    grid = shape[2:]
    per_row = math.prod(grid[1:])
    rows = max(1, POINT_CHUNK // per_row)
    for start in range(0, grid[0], rows):
        chunk = (slice(None), slice(None), slice(start, start + rows))
        views = [M[chunk] if M.shape[2] > 1 else M for M in fields]
        yield start * per_row, (min(rows, grid[0] - start),) + grid[1:], views


def _take(M, idx, grid):
    """Contiguous (p, k, k) matrices of the view M at the points idx (an
    unravelled index into grid)."""
    M = np.broadcast_to(M, M.shape[:2] + grid)
    return np.ascontiguousarray(np.moveaxis(M[(slice(None), slice(None)) + idx], -1, 0))


def _gershgorin(M):
    """(Gershgorin lower bound of the smallest eigenvalue, largest absolute
    row sum) of a symmetric matrix field, elementwise over its points; one
    row at a time, so the temporaries stay a fraction of the field."""
    low = norm = None
    for i in range(M.shape[0]):
        row = np.abs(M[i])
        radius = row[:i].sum(axis=0) + row[i + 1:].sum(axis=0)
        low_i, norm_i = M[i, i] - radius, row[i] + radius
        low = low_i if low is None else np.minimum(low, low_i)
        norm = norm_i if norm is None else np.maximum(norm, norm_i)
    if not np.isfinite(norm).all():
        raise NumericalError("matrix field has a non-finite entry")
    return low, norm


def _pruned_min(fields, bound, kernel):
    """(min over points of kernel, first flat argmin) over _point_blocks.

    bound(*views) is a per-point lower bound of the computed kernel value.
    The kernel first runs on the PROBE points of lowest bound in each block;
    it then runs only on points whose bound is not above the least value
    found so far, since no other point can hold or tie the minimum.  The
    kernel acts matrix by matrix, so min and argmin equal those of a sweep
    over every point.
    """
    blocks = [
        (first, grid, views, np.broadcast_to(bound(*views), grid).ravel())
        for first, grid, views in _point_blocks(*fields)
    ]
    limit = np.inf
    for _, grid, views, lb in blocks:
        probe = np.argpartition(lb, min(PROBE, lb.size) - 1)[:PROBE]
        idx = np.unravel_index(probe, grid)
        limit = min(limit, float(kernel(*(_take(V, idx, grid) for V in views)).min()))
    best, best_idx = np.inf, 0
    for first, grid, views, lb in blocks:
        keep = np.flatnonzero(lb <= min(limit, best))
        if keep.size == 0:
            continue
        idx = np.unravel_index(keep, grid)
        val = kernel(*(_take(V, idx, grid) for V in views))
        i = int(np.argmin(val))
        if val[i] < best:
            best = float(val[i])
            best_idx = first + int(keep[i])
    return best, best_idx


def _eigen_bound(M):
    low, norm = _gershgorin(M)
    return low - GERSHGORIN_ROUNDING * norm


def _min_eigenvalue(M):
    return np.linalg.eigvalsh(M)[:, 0]


def min_eigenvalue_field(M):
    """(min eigenvalue over all points, flat argmin index) of a Hermitian
    matrix field with matrix axes first; processes points in blocks and runs
    eigvalsh only where the Gershgorin bound admits the minimum."""
    return _pruned_min((M,), _eigen_bound, _min_eigenvalue)


def deformation_form(s, phi):
    """d(J d phi) as a real 2-form."""
    dphi = forms.d_scalar(s.chart, _values(phi))
    Jdphi = forms.apply_J_oneform(s, dphi)
    return forms.exterior_derivative(Jdphi)


def deformed_form(s, phi):
    """omega(phi) = omega + d(J d phi)."""
    return forms.omega_form(s) + deformation_form(s, phi)


def tau(s, phi):
    """(2,0)-part of omega(phi) (equals the (2,0)-part of dJdphi)."""
    return forms.bidegree_project(s, deformed_form(s, phi), 2, 0)


def H_part(s, phi, f=None):
    """(1,1)-part of omega(phi) as the Hermitian frame coefficient matrix
    M[a,b] with H = i M_ab theta^a wedge conj-theta^b; M(0) = identity."""
    from .frame import frame_hermitian_components

    if f is None:
        f = build_frame(s)
    H11 = forms.bidegree_project(s, deformed_form(s, phi), 1, 1)
    return frame_hermitian_components(f, H11)


def h_matrix(J, comps):
    """Coordinate matrix of the symmetric form h associated with the real
    (1,1)-tamed 2-form B given in pair components: h = (B J - J^T B)/2.

    J has its matrix axes first (2n, 2n, *b), comps its pair axis first; the
    trailing axes broadcast.  For B = omega and J = s.J this returns g exactly.
    """
    dim = J.shape[0]
    h = forms.contract_pairs(J, comps, dim * dim, (   # h_il = (BJ)_il/2 + (BJ)_li/2
        t for i in range(dim) for l in range(dim)
        for t in forms.bj_terms(J, i, l, 0.5, 0.5, i * dim + l)
    ))
    return h.reshape((dim, dim) + h.shape[1:])


def h_form(s, phi):
    """Symmetric bilinear form h(phi) as a coordinate matrix field.

    Positive definiteness of h(phi) at every point is equivalent to
    omega(phi) taming J.
    """
    return _h_of(s, deformation_form(s, phi))


def _h_of(s, B):
    """h(phi) from B = d(J dphi), built from omega + B (not as g + h_matrix(B))."""
    return h_matrix(s.J, (forms.omega_form(s) + B).comps)


def taming_margin(s, phi):
    """Grid-min over points of the smallest eigenvalue of h(phi)."""
    margin, _ = min_eigenvalue_field(h_form(s, phi))
    return margin


@dataclass
class PotentialReport:
    """Diagnostics of a single potential."""

    F_min: float
    F_max: float
    F_integral: float
    margin: float
    amplitude: float | None
    components: list = field(default_factory=list)
    F: np.ndarray = field(default=None, repr=False)   # the field itself; not in as_dict

    def as_dict(self):
        return {
            "F_min": self.F_min,
            "F_max": self.F_max,
            "F_integral": self.F_integral,
            "margin": self.margin,
            "amplitude": self.amplitude,
            "components": self.components,
        }


def _wedge_power(w, k):
    acc = w
    for _ in range(k - 1):
        acc = forms.wedge(acc, w)
    return acc


def F_components(s, phi):
    """Fields F_0..F_{[n/2]} with F_j omega^n = c_j (tau^taubar)^j ^ H^{n-2j},
    c_j = n!/(j!^2 (n-2j)!).

    tau^taubar is evaluated through the real identity
    (Bm^Bm + mixed^mixed)/4 where Bm is the J-anti-invariant part of dJdphi
    and mixed = (J^T Bm + Bm J)/2, avoiding complex intermediates.
    """
    return _F_components(s, deformation_form(s, phi).comps)


def _F_components(s, B):
    """F_components from the pair components B of d(J dphi)."""
    n = s.half_dim
    chart = s.chart
    P11, Bm, mixed = forms.bidegree_parts(s.J, B, chart.dim)
    del B
    P11 += forms.omega_form(s).comps  # broadcast add; P11 is now H(phi)
    H = forms.FormField(chart, 2, P11)
    BmF = forms.FormField(chart, 2, Bm)
    mixedF = forms.FormField(chart, 2, mixed)
    ttbar = 0.25 * (forms.wedge(BmF, BmF) + forms.wedge(mixedF, mixedF))
    del Bm, mixed, BmF, mixedF

    out = []
    for j in range(n // 2 + 1):
        cj = math.factorial(n) / (math.factorial(j) ** 2 * math.factorial(n - 2 * j))
        top = None
        if j > 0:
            top = _wedge_power(ttbar, j)
        if n - 2 * j > 0:
            Hp = _wedge_power(H, n - 2 * j)
            top = Hp if top is None else forms.wedge(top, Hp)
        Fj = cj * forms.top_ratio(s, top)
        out.append(Fj)
    return out


def F_total(s, phi, return_components=False):
    """F(phi) = omega(phi)^n / omega^n, dual-path checked against sum F_j.

    Both paths start from one evaluation of d(J dphi); omega(phi) is dropped
    before the F_j are built.
    """
    return _F_total(s, deformation_form(s, phi), return_components)


def _F_total(s, B, return_components):
    """F_total from B = d(J dphi)."""
    direct = forms.top_ratio(s, _wedge_power(forms.omega_form(s) + B, s.half_dim))
    comps = _F_components(s, B.comps)
    del B
    total = sum(comps[1:], comps[0])
    scale = max(1.0, float(np.abs(direct).max()))
    defect = float(np.abs(direct - total).max())
    if defect > F_CONSISTENCY_RTOL * scale:
        raise ConsistencyError(
            f"top-power and component-sum paths for F disagree by {defect:.3e} "
            f"(relative tolerance {F_CONSISTENCY_RTOL})"
        )
    if return_components:
        return direct, comps
    return direct


def _whitened_bound(G, D):
    """Lower bound of lambda_min(L^-1 D L^-T), G = L L^T: the Rayleigh
    quotient x'Dx / x'Gx is at least min(lb(D), 0) / lb(G) when lb(G) > 0."""
    low_g, norm_g = _gershgorin(G)
    low_d, norm_d = _gershgorin(D)
    den = low_g - GERSHGORIN_ROUNDING * norm_g
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = (np.minimum(low_d, 0.0) - GERSHGORIN_ROUNDING * norm_d) / den
    return np.where(den > 0.0, lb, -np.inf)


def _whitened_min_eigenvalue(G, D):
    L = np.linalg.cholesky(G)
    A = np.linalg.solve(L, D)
    K = np.linalg.solve(L, np.swapaxes(A, -1, -2))
    return np.linalg.eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2)))[:, 0]


def _pencil_critical_scale(g, delta):
    """min over points of sup{s : g + s*delta positive definite}, inf if none.

    Whitens the pencil by the Cholesky factor of g; the critical scale per
    point is -1/lambda_min of the whitened delta when that eigenvalue is
    negative, so the grid minimum comes from the least lambda_min (division
    rounds monotonically).  g may be a broadcastable field (the metric); see
    _point_blocks.
    """
    lam, _ = _pruned_min((g, delta), _whitened_bound, _whitened_min_eigenvalue)
    return -1.0 / lam if lam < 0.0 else np.inf


def _pencil_at(base, delta, t):
    """base + t*delta with one grid-size temporary (addition commutes exactly)."""
    out = t * delta
    out += base
    return out


def pencil_amplitude(base, delta):
    """a = sup{ s > 0 : base + s*delta positive definite at every point }.

    The pencil is affine in s per point, so a is the closed-form critical
    scale of the symmetric-definite pencil (Cholesky reduction, Golub & Van
    Loan 8.7).  Two eigenvalue sweeps certify it: the margin must be positive
    at a*(1 - 1e-9) and non-positive at a*(1 + 1e-9).
    """
    a = _pencil_critical_scale(base, delta)
    if not np.isfinite(a) or a > AMPLITUDE_MAX:
        raise AmplitudeError(
            f"no taming sign change up to {AMPLITUDE_MAX:.1e}; amplitude unbounded"
        )
    below, _ = min_eigenvalue_field(_pencil_at(base, delta, a * (1.0 - AMPLITUDE_RTOL)))
    above, _ = min_eigenvalue_field(_pencil_at(base, delta, a * (1.0 + AMPLITUDE_RTOL)))
    if not (below > 0.0 and above <= 0.0):
        raise ConsistencyError(
            f"pencil critical scale {a!r} is not a taming sign change: margin "
            f"{below:.3e} just below, {above:.3e} just above"
        )
    return a


def positivity_amplitude(s, phi):
    """a = sup{ s > 0 : h(s*phi) positive definite everywhere }.

    h(s*phi) = g + s*Delta is affine in s per point; see pencil_amplitude.
    """
    _require_nonconstant(phi)
    return pencil_amplitude(s.g, h_matrix(s.J, deformation_form(s, phi).comps))


def _require_nonconstant(phi):
    if float(np.ptp(_values(phi))) == 0.0:
        raise PreconditionError("positivity amplitude requires a non-constant potential")


def project_zero_mean(s, phi):
    """Subtract the omega^n-mean; idempotent; returns a Potential."""
    vals = _values(phi)
    mean = forms.integrate(s, vals + np.zeros(s.chart.shape))
    out = vals - mean
    return Potential(s.chart, out + np.zeros(s.chart.shape))


def analyze_potential(s, phi, compute_amplitude=True):
    """Full diagnostic sweep of a potential: F bounds, margin, amplitude.

    The report carries the F field itself as ``report.F``.  One d(J dphi)
    feeds F, the margin and the amplitude direction; it is released before
    the amplitude sweeps.
    """
    B = deformation_form(s, phi)
    direct, comps = _F_total(s, B, return_components=True)
    components = [
        {"j": j, "min": float(c.min()), "max": float(c.max())}
        for j, c in enumerate(comps)
    ]
    del comps
    margin, _ = min_eigenvalue_field(_h_of(s, B))
    amplitude = None
    if compute_amplitude:
        try:
            _require_nonconstant(phi)
            delta = h_matrix(s.J, B.comps)
            del B
            amplitude = pencil_amplitude(s.g, delta)
        except (AmplitudeError, PreconditionError):
            amplitude = None
    return PotentialReport(
        F_min=float(direct.min()),
        F_max=float(direct.max()),
        F_integral=float(forms.integrate(s, direct)),
        margin=margin,
        amplitude=amplitude,
        components=components,
        F=direct,
    )
