"""The deformed form omega(phi), its bidegree parts, the operators F_j and F,
taming margins, and the positivity amplitude.

The coordinate path computed here is authoritative; the frame module provides
an independent validation path.  F is always computed along two paths from
one evaluation of d(J dphi) (direct top wedge power versus the component sum
over F_j) and any disagreement raises, since that identity is the sharpest
trap for sign or normalization errors.

Memory notes: all bidegree algebra runs on increasing-pair component storage
(never the full 2n x 2n matrix field), and tau wedge tau-bar is evaluated via
the real identity (Bm^Bm + JBm^JBm)/4, so fine 4D grids stay within budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import forms
from .errors import AmplitudeError, ConsistencyError, PreconditionError
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
POINT_CHUNK = 1 << 18    # points per batched eigvalsh or pencil reduction


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
    """(flat index of the first point, contiguous (m, k, k) block per field)
    along the leading grid axis of matrix fields (matrix axes first, grid
    axes broadcast), about POINT_CHUNK points per block; a broadcast field
    (the metric) is copied one block at a time, never to grid size."""
    shape = np.broadcast_shapes(*(M.shape for M in fields))
    k, grid = shape[0], shape[2:]
    per_row = math.prod(grid[1:])
    rows = max(1, POINT_CHUNK // per_row)
    fields = [np.broadcast_to(M, shape) for M in fields]
    for start in range(0, grid[0], rows):
        chunk = (slice(None), slice(None), slice(start, start + rows))
        yield start * per_row, [
            np.ascontiguousarray(np.moveaxis(M[chunk], (0, 1), (-2, -1))).reshape(-1, k, k)
            for M in fields
        ]


def min_eigenvalue_field(M):
    """(min eigenvalue over all points, flat argmin index) of a Hermitian
    matrix field with matrix axes first; processes points in blocks."""
    best, best_idx = np.inf, 0
    for first, (block,) in _point_blocks(M):
        ev = np.linalg.eigvalsh(block)[:, 0]
        i = int(np.argmin(ev))
        if ev[i] < best:
            best = float(ev[i])
            best_idx = first + i
    return best, best_idx


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
    pos = forms.index_positions(dim, 2)
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    h = np.zeros((dim, dim) + shape)
    for i in range(dim):
        for l in range(dim):
            acc = h[i, l]
            for j in range(dim):
                Bij = forms._signed_entry(comps, pos, i, j)
                if Bij is not None:
                    acc += 0.5 * (Bij * J[j, l])
                Bjl = forms._signed_entry(comps, pos, j, l)
                if Bjl is not None:
                    acc -= 0.5 * (J[j, i] * Bjl)
    return h


def h_form(s, phi):
    """Symmetric bilinear form h(phi) as a coordinate matrix field.

    Positive definiteness of h(phi) at every point is equivalent to
    omega(phi) taming J.
    """
    return h_matrix(s.J, deformed_form(s, phi).comps)


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
    B = deformation_form(s, phi)
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


def _pencil_critical_scale(g, delta):
    """min over points of sup{s : g + s*delta positive definite}, inf if none.

    Whitens the pencil by the Cholesky factor of g; the critical scale per
    point is -1/lambda_min of the whitened delta when that eigenvalue is
    negative.  g may be a broadcastable field (the metric); see _point_blocks.
    """
    best = np.inf
    for _, (G, D) in _point_blocks(g, delta):
        L = np.linalg.cholesky(G)
        A = np.linalg.solve(L, D)
        K = np.linalg.solve(L, np.swapaxes(A, -1, -2))
        lam = np.linalg.eigvalsh(0.5 * (K + np.swapaxes(K, -1, -2)))[:, 0]
        neg = lam < 0.0
        if np.any(neg):
            best = min(best, float((-1.0 / lam[neg]).min()))
    return best


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
    below, _ = min_eigenvalue_field(base + a * (1.0 - AMPLITUDE_RTOL) * delta)
    above, _ = min_eigenvalue_field(base + a * (1.0 + AMPLITUDE_RTOL) * delta)
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
    vals = _values(phi)
    if float(np.ptp(vals)) == 0.0:
        raise PreconditionError("positivity amplitude requires a non-constant potential")
    return pencil_amplitude(s.g, h_matrix(s.J, deformation_form(s, phi).comps))


def project_zero_mean(s, phi):
    """Subtract the omega^n-mean; idempotent; returns a Potential."""
    vals = _values(phi)
    mean = forms.integrate(s, vals + np.zeros(s.chart.shape))
    out = vals - mean
    return Potential(s.chart, out + np.zeros(s.chart.shape))


def analyze_potential(s, phi, compute_amplitude=True):
    """Full diagnostic sweep of a potential: F bounds, margin, amplitude.

    The report carries the F field itself as ``report.F``.
    """
    direct, comps = F_total(s, phi, return_components=True)
    components = [
        {"j": j, "min": float(c.min()), "max": float(c.max())}
        for j, c in enumerate(comps)
    ]
    del comps
    margin = taming_margin(s, phi)
    amplitude = None
    if compute_amplitude:
        try:
            amplitude = positivity_amplitude(s, phi)
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
