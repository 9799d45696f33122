"""Seed selection, the cut-off bump psi_R, and the boundary potential
phi_R = phi + a*psi_R whose deformed form degenerates exactly on the
boundary of the taming cone while F(phi_R) stays positive.

All bump derivatives are closed-form in chart coordinates and enter
d(J dphi) through the pointwise analytic geometry (`LocalGeometry`,
`deformation_at`), never finite differenced: the inner bump feature scale
1/R^2 sits far below any feasible uniform grid.  psi_R and all its
derivatives vanish identically off its support, so only the grid points near
the polydisk ever need the bump: one grid pass (`_grid_near`) finds them, and
`boundary_potential` evaluates them with the scan set.  It evaluates F(phi_R) once: on the scan set and the near
points from the seed-rotated geometry, and everywhere else as the seed's grid
F.  The grid-shaped F(phi_R) rides on the report, and `witness_density` only
normalizes it.

Memory: every pointwise pass runs over batches of SCAN_CHUNK points in point
order.  The scan set's LocalGeometry (J, g, the seed-rotated frame and dJ)
exists one batch at a time and is reduced at once to the per-point arrays the
certification reads (`_ScanGeometry`); the seed's grid F broadcasts J and
dJ of the broadcast-reduced lattice geometry against rows of the grid.
Point order is kept, so minima, first argmins and every output are bitwise
those of one pass over all points.

Chart convention: the polydisk chart around the basepoint p0 is
x(zeta) = p0 + rho * sum_a (zeta_a e_a + conj), with e_a the p0-frame rotated
so that H(phi)(p0) is diagonal; zeta lives in the unit polydisk and the
unscaled coordinates z = rho*zeta satisfy d/dz_a = e_a at p0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cy_operator as cy
from . import forms
from .errors import (
    ConfigurationError,
    NoSeedError,
    PreconditionError,
    SearchFailure,
    SeedSearchError,
)
from .frame import (
    LocalGeometry,
    build_frame,
    deformation_at,
    hermitian_at,
    nijenhuis_max_norm,
    tau_at,
)
from .potentials import AnalyticPotential, default_candidates

__all__ = [
    "SeedPotential",
    "BumpSpec",
    "BumpField",
    "BoundaryReport",
    "cutoff_eta",
    "cutoff_eta_d1",
    "cutoff_eta_d2",
    "select_seed",
    "boundary_potential",
    "search_R",
]

NONINTEGRABILITY_THRESHOLD = 1e-6
# Points per batch of every point pass: a LocalGeometry, the near-set sweep
# of the grid, or (in whole rows of grid axis 0, at least one) the seed's
# grid F.
SCAN_CHUNK = 8_192


# ---------------------------------------------------------------------------
# Cut-off function: 1 on [0,1/2], quintic smoothstep down to 0 at 1.

def cutoff_eta(r):
    r = np.asarray(r, dtype=float)
    u = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    return 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)


def cutoff_eta_d1(r):
    r = np.asarray(r, dtype=float)
    u = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    return -60.0 * u**2 * (1.0 - u) ** 2


def cutoff_eta_d2(r):
    r = np.asarray(r, dtype=float)
    u = np.clip(2.0 * r - 1.0, 0.0, 1.0)
    return -240.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


def _safe_div(num, den, fill=0.0):
    out = np.full(np.broadcast_shapes(num.shape, den.shape), fill)
    mask = den != 0.0
    np.divide(num, den, out=out, where=mask)
    return out


# ---------------------------------------------------------------------------
# Bump geometry.

def _pair_radii(w):
    """|zeta_a| of chart points w (m, 2n), shape (m, n)."""
    return np.hypot(w[:, 0::2], w[:, 1::2])


def _cutoff_jet(w, a, k):
    """r_a = |zeta_a| and eta(k r_a) with its r-derivatives k eta', k^2 eta''."""
    r = np.hypot(w[:, 2 * a], w[:, 2 * a + 1])
    return r, cutoff_eta(k * r), k * cutoff_eta_d1(k * r), k**2 * cutoff_eta_d2(k * r)


def _prod_except(qs, skip):
    """Product of the factors qs[b] with b not in skip (ones if none remain)."""
    out = np.ones_like(qs[0])
    for b, q in enumerate(qs):
        if b not in skip:
            out = out * q
    return out


def _add_radial_hessian(H, a, w, g1, curv, weight=1.0):
    """H += weight * (g1 I + (curv/r_a^2) w_a w_a^T) on the block of pair a:
    the chart Hessian of f(r_a), given g1 = f'/r and curv = f'' - f'/r."""
    u = w[:, 2 * a]
    v = w[:, 2 * a + 1]
    frac = _safe_div(curv, u**2 + v**2)
    H[2 * a, 2 * a] += weight * (g1 + frac * u * u)
    H[2 * a + 1, 2 * a + 1] += weight * (g1 + frac * v * v)
    off = weight * frac * u * v
    H[2 * a, 2 * a + 1] += off
    H[2 * a + 1, 2 * a] += off


def _chart_matrix(frame, scale):
    """Real (2n, 2n) matrix of the polydisk chart w -> x: columns
    2*scale*Re(e_a) and -2*scale*Im(e_a) for the frame rows e_a."""
    n = frame.shape[0]
    M = np.zeros((2 * n, 2 * n))
    for a in range(n):
        M[:, 2 * a] = 2.0 * scale * frame[a].real
        M[:, 2 * a + 1] = -2.0 * scale * frame[a].imag
    return M


@dataclass
class BumpSpec:
    """Parameters of psi_R in the p0-adapted chart."""

    R: float
    center: np.ndarray          # (2n,) torus coordinates of p0
    frame: np.ndarray           # (n, 2n) complex: rotated frame e_a at p0
    lam: np.ndarray             # (n,) eigenvalues lambda_a(0) of H(phi)(p0)
    scale: float                # polydisk radius rho in torus units

    def __post_init__(self):
        if self.R <= 2.0:
            raise ConfigurationError(f"bump radius R must exceed 2, got {self.R}")
        self.center = np.asarray(self.center, dtype=float)
        self.frame = np.asarray(self.frame, dtype=complex)
        self.lam = np.asarray(self.lam, dtype=float)


class BumpField:
    """psi_R with closed-form chart and torus derivatives.

    Chart points are real interleaved coordinates w = (u_1,v_1,...,u_n,v_n)
    of zeta, shape (m, 2n); derivative arrays keep the point axis last.
    """

    def __init__(self, spec: BumpSpec):
        self.spec = spec
        self.M = _chart_matrix(spec.frame, spec.scale)
        self.Minv = np.linalg.inv(self.M)
        self.half_dim = spec.frame.shape[0]

    # -- chart <-> torus -----------------------------------------------------
    def chart_to_torus(self, w):
        w = np.asarray(w, dtype=float)
        return np.mod(self.spec.center + w @ self.M.T, 1.0)

    def torus_to_chart(self, points):
        points = np.asarray(points, dtype=float)
        delta = np.mod(points - self.spec.center + 0.5, 1.0) - 0.5
        return delta @ self.Minv.T

    def chart_eval(self, w, order=2):
        """(value, grad (2n,m), hess (2n,2n,m)) of psi_R = Phi_R * prod_a q_a in
        chart coordinates, with Phi_R = sum_{i<2} (lam_i/2) r_i^2 eta(R^2 r_i)
        and q_a = eta(R r_a)."""
        w = np.asarray(w, dtype=float)
        m = w.shape[0]
        n = self.half_dim
        R = self.spec.R
        # Per radial factor: pair index, f'(r)/r (finite at 0) and f'' - f'/r.
        vals, phi_parts = [], []
        for i in range(min(2, n)):
            r, e, d1, d2 = _cutoff_jet(w, i, R**2)
            c = 0.5 * self.spec.lam[i]
            g1 = c * (2.0 * e + r * d1)
            fpp = c * (2.0 * e + 4.0 * r * d1 + r**2 * d2)
            vals.append(c * r**2 * e)
            phi_parts.append((i, g1, fpp - g1))
        qs, q_parts = [], []
        for a in range(n):
            r, q, d1, d2 = _cutoff_jet(w, a, R)
            g1 = _safe_div(d1, r)                    # zero wherever d1 = 0
            qs.append(q)
            q_parts.append((a, g1, d2 - g1))

        Phi = sum(vals)
        eta = _prod_except(qs, ())
        psi = Phi * eta
        if order == 0:
            return psi, None, None

        loo = [_prod_except(qs, (a,)) for a in range(n)]
        gPhi = np.zeros((2 * n, m))
        for i, g1, _ in phi_parts:
            gPhi[2 * i : 2 * i + 2] = g1 * w[:, 2 * i : 2 * i + 2].T
        gEta = np.zeros((2 * n, m))
        for a, g1, _ in q_parts:
            gEta[2 * a : 2 * a + 2] = loo[a] * g1 * w[:, 2 * a : 2 * a + 2].T
        grad = gPhi * eta + Phi * gEta
        if order == 1:
            return psi, grad, None

        HPhi = np.zeros((2 * n, 2 * n, m))
        for i, g1, curv in phi_parts:
            _add_radial_hessian(HPhi, i, w, g1, curv)
        HEta = np.zeros((2 * n, 2 * n, m))
        for a, g1, curv in q_parts:
            _add_radial_hessian(HEta, a, w, g1, curv, loo[a])
            for b, gb, _ in q_parts[a + 1 :]:
                # product of the two radial gradients, remaining factors
                rest = _prod_except(qs, (a, b)) * g1 * gb
                for pa in (2 * a, 2 * a + 1):
                    for pb in (2 * b, 2 * b + 1):
                        val = rest * w[:, pa] * w[:, pb]
                        HEta[pa, pb] += val
                        HEta[pb, pa] += val

        hess = (
            HPhi * eta
            + gPhi[:, None, :] * gEta[None, :, :]
            + gEta[:, None, :] * gPhi[None, :, :]
            + Phi * HEta
        )
        return psi, grad, hess

    # -- torus-side evaluation -------------------------------------------------
    def torus_eval(self, points, order=2):
        """(value, coordinate grad (2n,m), coordinate hess (2n,2n,m)) at torus points."""
        w = self.torus_to_chart(points)
        psi, grad, hess = self.chart_eval(w, order=order)
        if grad is not None:
            grad = self.Minv.T @ grad
        if hess is not None:
            hess = np.einsum("ki,klm,lj->ijm", self.Minv, hess, self.Minv)
        return psi, grad, hess


# ---------------------------------------------------------------------------
# Seed selection.

@dataclass
class SeedPotential:
    """Scaled candidate with certified nonvanishing tau_12 near p0."""

    potential: cy.Potential
    epsilon1: float
    basepoint: tuple               # grid index of p0
    lam: np.ndarray                # eigenvalues of H(phi)(p0), ascending
    candidate: AnalyticPotential = None
    scale_c: float = 1.0
    pair: tuple = (0, 1)
    p0: np.ndarray = None          # torus coordinates of p0
    U: np.ndarray = None           # unitary diagonalizing H(phi)(p0)
    chart_scale: float = 0.1
    margin: float = 0.0

    def analytic_grad(self, points):
        return self.scale_c * self.candidate.grad(points)

    def analytic_hess(self, points):
        return self.scale_c * self.candidate.hess(points)


def _chart_scale_bound(frame):
    """(rho_max, reach): largest rho keeping the chart image inside a quarter
    period, and the per-unit-rho coordinate reach of the unit polydisk."""
    reach = float(np.abs(_chart_matrix(frame, 1.0)).sum(axis=1).max())
    return 0.25 / reach, reach


def _box_indices(chart, p0_idx, halfwidth):
    """Slices (as index arrays) of the coordinate box p0 +- halfwidth, wrapped."""
    sels = []
    for d in range(chart.dim):
        N = chart.resolution[d]
        radius = int(np.ceil(halfwidth * N))
        idx = (p0_idx[d] + np.arange(-radius, radius + 1)) % N
        sels.append(np.unique(idx))
    return sels


def _constant_axes_cut(v):
    """v cut to its first index along every axis on which it is exactly
    constant: the same values, read by broadcasting.  A cut is a copy, so
    v itself can be freed."""
    cut = v
    for axis in range(v.ndim):
        first = cut[(slice(None),) * axis + (slice(0, 1),)]
        if cut.shape[axis] > 1 and np.array_equal(cut, np.broadcast_to(first, cut.shape)):
            cut = first
    return v if cut is v else cut.copy()


def select_seed(s):
    """Pick the default candidate, scaling, frame pair (a, b), basepoint and
    polydisk maximizing the certified lower bound epsilon1 of |tau_ab| near
    the basepoint; tau is read off d(J dphi) on build_frame's lattice frame
    (tau_at).

    Each candidate is cut along the grid axes on which its values are
    exactly constant (_constant_axes_cut), so d(J dphi), h, the pencil and
    tau run on the broadcast lattice of J and the candidate.  Differences
    along a cut axis are exact zeros on the grid too (Chart.diff), so every
    value is bitwise that of the whole grid."""
    if nijenhuis_max_norm(s) <= NONINTEGRABILITY_THRESHOLD:
        raise NoSeedError(
            "structure is integrable (Nijenhuis tensor vanishes): tau is "
            "identically zero and no seed potential exists"
        )
    n = s.half_dim
    chart = s.chart

    f = build_frame(s)
    rho_max, reach = _chart_scale_bound(f.e[(...,) + (0,) * chart.dim])

    best = None
    diagnostics = []
    X = chart.grid_points()
    for cand in default_candidates(n):
        vals = _constant_axes_cut(cand.value(X))
        B = cy.deformation_form(s, vals)
        # Rank by the closed-form amplitude, skipping directions that stay
        # taming past AMPLITUDE_MAX; only the winner is certified.
        amp = cy._pencil_critical_scale(s.g, cy.h_matrix(s.J, B.comps))
        if not amp <= cy.AMPLITUDE_MAX:
            continue
        c = 0.9 * amp
        tau = tau_at(B.comps, f.e)
        for a in range(n):
            for b in range(a + 1, n):
                mag = np.abs(c) * np.abs(tau[a, b])   # |tau_ab(c*vals)|
                mag = np.broadcast_to(mag, chart.shape)
                # Symmetric twins tie up to rounding: take the lowest flat
                # index within a relative 64 eps of the maximum.
                flat = int(np.argmax(mag >= mag.max() * (1.0 - 64 * np.finfo(float).eps)))
                p0_idx = np.unravel_index(flat, chart.shape)
                peak = float(mag[p0_idx])
                if peak <= 1e-12:
                    continue
                options = []
                for frac in (1.0, 0.75, 0.5, 0.25):
                    rho_try = rho_max * frac
                    halfwidth = 1.05 * rho_try * reach
                    sels = _box_indices(chart, p0_idx, halfwidth)
                    e1 = float(mag[np.ix_(*sels)].min())
                    options.append((rho_try, e1))
                    diagnostics.append((cand.name, (a, b), frac, e1))
                e1_best = max(e1 for _, e1 in options)
                # Largest polydisk whose certified bound stays comparable:
                # bigger rho eases grid/support resolution downstream.
                rho, eps1 = next(
                    opt for opt in options if opt[1] >= 0.25 * e1_best
                )
                score = eps1
                if best is None or score > best["eps1"]:
                    best = {
                        "cand": cand,
                        "vals": vals,
                        "pair": (a, b),
                        "p0_idx": tuple(int(i) for i in p0_idx),
                        "rho": rho,
                        "eps1": eps1,
                    }
    if best is None or best["eps1"] <= 1e-9:
        raise SeedSearchError(
            f"no candidate produced a usable tau component; tried {diagnostics}"
        )

    del X
    cand, vals = best["cand"], best["vals"]
    c = 0.9 * cy.positivity_amplitude(s, vals)
    p0 = chart.index_to_point(best["p0_idx"])
    margin = cy.taming_margin(s, c * vals)
    if margin <= cy.TAMING_THRESHOLD:
        raise SeedSearchError(f"seed scaling failed to keep taming margin > 0 ({margin})")

    # H(phi)(p0) in the frame basis, via the exact pointwise path.
    lg = LocalGeometry(s, p0[None, :])
    B0 = deformation_at(lg.J, lg.dJ, c * cand.grad(p0[None, :]), c * cand.hess(p0[None, :]))
    M0 = hermitian_at(B0, lg.e)[..., 0]
    lamvals, U = np.linalg.eigh(0.5 * (M0 + M0.conj().T))
    if lamvals.min() <= 0:
        raise SeedSearchError(f"H(phi)(p0) not positive definite: eigenvalues {lamvals}")

    pot = cy.Potential(chart, c * np.broadcast_to(vals, chart.shape))
    return SeedPotential(
        potential=pot,
        epsilon1=best["eps1"],
        basepoint=best["p0_idx"],
        lam=lamvals,
        candidate=cand,
        scale_c=c,
        pair=best["pair"],
        p0=p0,
        U=U,
        chart_scale=best["rho"],
        margin=margin,
    )


# ---------------------------------------------------------------------------
# Pointwise geometry of the seed and the bump at scan points.

def _batches(m):
    """Point ranges [a, b) of at most SCAN_CHUNK points, in point order."""
    return [(a, min(a + SCAN_CHUNK, m)) for a in range(0, m, SCAN_CHUNK)]


def _scan_batch(s, seed, bump, points):
    """The per-point arrays _ScanGeometry keeps, on one batch of points; the
    batch's seed-rotated LocalGeometry is dropped on return."""
    lg = LocalGeometry(s, points, seed.U)
    Bphi = deformation_at(lg.J, lg.dJ, seed.analytic_grad(points), seed.analytic_hess(points))
    _, gpsi, hpsi = bump.torus_eval(points, order=2)
    Bpsi = deformation_at(lg.J, lg.dJ, gpsi, hpsi)
    return {
        "tau_phi": tau_at(Bphi, lg.e)[seed.pair],
        "tau_psi": tau_at(Bpsi, lg.e)[seed.pair],
        "Bphi": Bphi,
        "Bpsi": Bpsi,
        "base": lg.g + cy.h_matrix(lg.J, Bphi),
        "delta": cy.h_matrix(lg.J, Bpsi),
    }


class _ScanGeometry:
    """Seed phi and bump psi at the scan points, as the per-point arrays the
    witness reads: Bphi and Bpsi, their d(J d.) in pair components, for F;
    their tau_ab = B(e_a, e_b) on the seed's pair (a, b) in the seed-rotated
    frame (tau_12 at n = 2); and the taming pencil
    h(phi + s psi) = base + s * delta.

    The seed-rotated LocalGeometry is built one SCAN_CHUNK batch at a time,
    in point order, reduced to these arrays and dropped: memory grows with
    the scan set only through them (384 bytes per point at n = 2, 848 at
    n = 3), and they are bitwise those of one geometry on all the points.
    """

    def __init__(self, s, seed, bump, points):
        self.s = s
        m = points.shape[0]
        for a, b in _batches(m):
            for key, value in _scan_batch(s, seed, bump, points[a:b]).items():
                if a == 0:
                    setattr(self, key, np.empty(value.shape[:-1] + (m,), value.dtype))
                getattr(self, key)[..., a:b] = value

    def tau12(self, amp):
        return self.tau_phi + amp * self.tau_psi

    def F(self, amp):
        """F(phi + amp psi) at the scan points, by the grid's top power."""
        return cy._F_of(self.s, self.Bphi + amp * self.Bpsi)


def _seed_bump(s, seed, R):
    """psi_R in the polydisk chart at seed.p0, whose frame is rotated so that
    H(phi)(p0) is diagonal."""
    frame = LocalGeometry(s, seed.p0[None, :], seed.U).e[..., 0]
    return BumpField(BumpSpec(R, seed.p0, frame, seed.lam, seed.chart_scale))


def _scan_lattice(bump, R, rng):
    """Chart-coordinate scan set: inner core, support slabs, mid lattice,
    random fill of the polydisk, and the center."""
    n = bump.half_dim
    dim = 2 * n
    pts = [np.zeros((1, dim))]

    def mesh(ranges):
        grids = np.meshgrid(*ranges, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    core = np.linspace(-1.1 / R**2, 1.1 / R**2, 7)
    mid = np.linspace(-1.05 / R, 1.05 / R, 9)
    pts.append(mesh([core] * dim))
    pts.append(mesh([mid] * dim))
    slab_core = np.linspace(-1.1 / R**2, 1.1 / R**2, 5)
    slab_mid = np.linspace(-1.05 / R, 1.05 / R, 7)
    for i in range(min(2, n)):
        ranges = []
        for a in range(n):
            ranges.extend([slab_core, slab_core] if a == i else [slab_mid, slab_mid])
        pts.append(mesh(ranges))
    rand = rng.uniform(-1.0 / R, 1.0 / R, size=(8000, dim))
    pts.append(rand)
    return np.concatenate(pts, axis=0)


def _grid_near(s, bump):
    """(flat indices, torus points, chart points) of the grid points whose
    chart image lies in the dilated polydisk max_a |zeta_a| <= 1.5/R.

    The one pass that maps grid points into the bump chart: psi_R and all its
    derivatives vanish identically off the support, which this set contains.
    """
    chart = s.chart
    pts = chart.grid_points().reshape(-1, chart.dim)
    idx, w = [], []
    for a, b in _batches(pts.shape[0]):
        w_block = bump.torus_to_chart(pts[a:b])
        keep = np.flatnonzero(_pair_radii(w_block).max(axis=1) <= 1.5 / bump.spec.R)
        idx.append(a + keep)
        w.append(w_block[keep])
    idx = np.concatenate(idx)
    return idx, pts[idx], np.concatenate(w, axis=0)


def _seed_grid_F(s, seed):
    """F(phi) at every grid point, the top power of omega + d(J dphi) with
    d(J dphi) from the exact pointwise path, cached with its seed (an id()
    key could hit for a new seed at a freed one's address).

    J_at depends on a point only through the profile axes, so J and dJ come
    from one LocalGeometry on J's broadcast-reduced lattice (cached on s),
    whose rows broadcast against the grid rows of the seed's derivatives."""

    def _build():
        chart = s.chart
        lattice = s.cache(
            "lattice_geometry", lambda: LocalGeometry(s, chart.lattice_points(s.bshape))
        )
        pts = chart.grid_points()
        out = np.empty(chart.shape)
        rows = max(1, SCAN_CHUNK // math.prod(chart.shape[1:]))
        for a in range(0, chart.shape[0], rows):
            b = min(a + rows, chart.shape[0])
            J, dJ = (forms.axis_rows(v, v.ndim - chart.dim, a, b) for v in (lattice.J, lattice.dJ))
            B = deformation_at(J, dJ, seed.analytic_grad(pts[a:b]), seed.analytic_hess(pts[a:b]))
            out[a:b] = cy._F_of(s, B)
        return out.reshape(-1)

    entry = s.cache("seed_grid_F", lambda: [None, None])
    if entry[0] is not seed:
        entry[:] = seed, _build()
    return entry[1]


@dataclass
class BoundaryReport:
    R0: float
    amplitude: float
    epsilon1: float
    margin: float
    minF: float
    minF1_near_p0: float
    p0: tuple
    lam: list
    min_eig_in_disk: bool = True
    amplitude_in_range: bool = True
    tau12_bound: float = None
    diagnostics: dict = field(default_factory=dict)
    F: np.ndarray = field(default=None, repr=False)   # F(phi_R) on the grid; not in as_dict

    def as_dict(self):
        return {
            "R0": self.R0,
            "amplitude": self.amplitude,
            "epsilon1": self.epsilon1,
            "margin": self.margin,
            "minF": self.minF,
            "minF1_near_p0": self.minF1_near_p0,
            "p0": list(self.p0),
            "lambda": [float(v) for v in self.lam],
            "min_eig_in_disk": self.min_eig_in_disk,
            "amplitude_in_range": self.amplitude_in_range,
            "tau12_bound": self.tau12_bound,
        }


def boundary_potential(s, seed, R, rng_seed=7):
    """phi_R = phi + a*psi_R with a the positivity amplitude of the bump
    direction on the scan set (cy.pencil_amplitude); returns the potential
    and a BoundaryReport.

    All certification (margin, minF, tau_12) runs on the analytic scan set,
    which contains every grid point inside the bump support; the uniform grid
    itself never needs to resolve the 1/R^2 core.
    """
    if s.half_dim != 2:
        raise PreconditionError("boundary construction implemented for n = 2")

    bump = _seed_bump(s, seed, R)

    rng = np.random.default_rng(rng_seed)
    w_scan = _scan_lattice(bump, R, rng)
    scan_pts = bump.chart_to_torus(w_scan)
    near_idx, near_pts, w_near = _grid_near(s, bump)
    all_pts = np.concatenate([scan_pts, near_pts], axis=0)

    geo = _ScanGeometry(s, seed, bump, all_pts)
    base, delta = geo.base, geo.delta

    m0, _ = cy.min_eigenvalue_field(base)
    if m0 <= cy.TAMING_THRESHOLD:
        raise PreconditionError(
            f"seed potential is not strictly taming on the scan set (margin {m0:.3e})"
        )
    a = cy.pencil_amplitude(base, delta)
    margin_final, loc = cy.min_eigenvalue_field(delta, a, base)
    rmax = _pair_radii(bump.torus_to_chart(all_pts[loc][None, :])).max()
    min_eig_in_disk = bool(rmax <= 1.0 / R + 1e-9)

    psi = np.zeros(s.chart.shape)
    psi.flat[near_idx] = bump.chart_eval(w_near, order=0)[0]
    phi_R = cy.project_zero_mean(s, seed.potential.values + a * psi)

    # Off the near set psi_R has zero value and derivatives, so F(phi_R) is
    # the seed's F there; on it, the scan geometry evaluates it.
    F_scan = geo.F(a)
    F_R = _seed_grid_F(s, seed).copy()
    F_R[near_idx] = F_scan[len(w_scan) :]
    minF = float(min(F_scan.min(), F_R.min()))
    near = np.max(np.abs(w_scan), axis=1) <= 1.2 / R**2
    tau12_near = geo.tau12(a)[: len(w_scan)][near]
    minF1 = float(np.min(np.abs(tau12_near) ** 2))

    # lower bound on |tau12| over s in [0,1] on the Delta_R image; tau12 is
    # affine in s so the sampled minimum is cheap on the existing geometry.
    in_disk = _pair_radii(bump.torus_to_chart(all_pts)).max(axis=1) <= 1.0 / R + 1e-12
    tau12_phi = geo.tau12(0.0)
    c_phi = tau12_phi[in_disk]
    c_psi = (geo.tau12(1.0) - tau12_phi)[in_disk]
    tau12_bound = min(
        float(np.abs(c_phi + sv * c_psi).min()) for sv in np.linspace(0.0, 1.0, 11)
    )

    report = BoundaryReport(
        R0=R,
        amplitude=a,
        epsilon1=seed.epsilon1,
        margin=margin_final,
        minF=minF,
        minF1_near_p0=minF1,
        p0=seed.basepoint,
        lam=list(seed.lam),
        min_eig_in_disk=min_eig_in_disk,
        amplitude_in_range=a <= 1.0 + 1e-8,
        tau12_bound=tau12_bound,
        diagnostics={"scan_points": int(all_pts.shape[0])},
        F=F_R.reshape(s.chart.shape),
    )
    return phi_R, report


def epsilon0_floor(seed, half_dim):
    """Acceptance floor mirroring the proof's bound 2^{-n} eps1^2 prod lam."""
    extra = 1.0
    for lam in seed.lam[2:]:
        extra *= lam
    return 0.5 * (seed.epsilon1 / 2.0) ** 2 * extra * 2.0 ** (-half_dim)


def witness_density(s, report):
    """F(phi_R) of a boundary report at every grid point, normalized to unit
    mass; the positive target density realized by the boundary potential."""
    return report.F / forms.integrate(s, report.F)


def search_R(s, seed, R_list):
    """First R whose boundary potential has min F > 0 and F_1 above the floor."""
    if not R_list:
        raise ConfigurationError("empty R list")
    floor = epsilon0_floor(seed, s.half_dim)
    diagnostics = []
    for R in R_list:
        phi_R, report = boundary_potential(s, seed, R)
        entry = {
            "R": R,
            "minF": report.minF,
            "minF1_near_p0": report.minF1_near_p0,
            "margin": report.margin,
            "amplitude": report.amplitude,
            "tau12_bound": report.tau12_bound,
        }
        diagnostics.append(entry)
        if (
            report.minF > 0.0
            and report.minF1_near_p0 >= floor
            and report.tau12_bound >= seed.epsilon1 / 2.0
        ):
            report.diagnostics["sweep"] = diagnostics
            report.diagnostics["epsilon0_floor"] = floor
            return R, phi_R, report
    raise SearchFailure(
        f"no R in {list(R_list)} produced a positive-F boundary potential "
        f"(floor {floor:.3e})",
        diagnostics=diagnostics,
    )
