"""d(J dphi), the bidegree parts of the deformed form omega(phi) = omega +
d(J dphi), the operators F_j and F, taming margins, and the positivity
amplitude.

Everything here is computed in coordinates on the grid; the frame module
reads tau and H of d(J dphi) on a unitary frame (tau_at, hermitian_at).  F
is always computed along two paths from one evaluation of d(J dphi) (direct
top wedge power versus the component sum over F_j) and any disagreement
raises, since that identity is the sharpest trap for sign or normalization
errors.

Memory notes: all bidegree algebra and h run on increasing-pair component
storage through forms.contract_pairs (never the full 2n x 2n matrix field of
the form); its coefficients live on J's broadcast lattice, are summed there
per (output, pair) and built one output at a time, and beside its output it
holds one grid-size product buffer.  h_matrix fills only the upper triangle
of its output and copies it to the lower one, with no second h-size array;
min_eigenvalue_field forms each block's pencil in place (_pencil).  F_j
reads the J-anti-invariant part Bm = tau + conj(tau) of d(J dphi) alone, with
no complex intermediate: at top degree the terms of Bm^(2j) with unequal
powers of tau and conj(tau) vanish by type, so Bm^(2j) ^ H^(n-2j) =
C(2j, j) (tau^taubar)^j ^ H^(n-2j).  d(J dphi) is filled in slabs of grid
axis 0 of about SLAB_POINTS points (_deformation_slabs), each row of J dphi built
once and its last two rows handed on to the next slab, so its gradient and
J-gradient are only slab-size.  The taming margin and F with its component
check are reduced over the same row slabs of one d(J dphi) (_margin_of,
_F_total): h, the F_j and their intermediates are slab-size, and only
d(J dphi) itself and F are grid-size.  The one exception is
analyze_potential with the amplitude, which needs the grid-size
Delta = h_matrix(J, d(J dphi)) as the amplitude direction anyway: it
builds Delta once, releases d(J dphi), and reads the margin off Delta
(g + 1*Delta) instead of contracting h a second time over the slabs.  The
taming matrix is g + h_matrix(J, B); min_eigenvalue_field sweeps any pencil
of it, g + h_matrix(J, B) + t*delta, block by block, never at grid size.
The critical scale of a pencil g + s*delta (_pencil_critical_scale) is
read off the whitened direction W delta W^T, with W = L^-1, g = L L^T,
factored once on g's own points (J's lattice for the metric, the scan
points for a witness base): per grid point two batched matrix products,
and the least eigenvalue of each kernel call's whitened stack by a nested
_pruned_min, the one probe-and-prune loop of every taming question, so
eigvalsh runs only where the whitened matrix's Gershgorin bound can still
hold the minimum; no point reaches a kernel twice in one sweep.
pencil_amplitude certifies that closed-form scale with one full sweep
just below it and, just above it, one point: the argmin of the sweep
below.

Threads: these row-slab loops (d(J dphi), the margin, F, h on a grid and
both passes of the eigenvalue sweeps) run in contiguous row groups, one
per CPU of the process's affinity mask (_in_groups), each cut in slabs of
SLAB_POINTS / groups points, so the slab points in flight are those of one
serial sweep.  A grid of fewer than two full slabs runs the serial loop,
and a sweep inside a group runs serially.  Every value is bitwise the same
on any number of CPUs.  The L apply and the FFT preconditioner (solver)
run in the same row groups.  The pencil kernel's matrix products and
eigvalsh gain from the second group; its whitener is factored before the
groups start.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import forms
from .errors import AmplitudeError, ConsistencyError, NumericalError, PreconditionError

__all__ = [
    "Potential",
    "PotentialReport",
    "deformation_form",
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
# relative offset of the two scales that certify the closed-form amplitude.
AMPLITUDE_MAX = 1e6
AMPLITUDE_RTOL = 1e-9
SLAB_POINTS = 1 << 16    # points per slab along grid axis 0 (_row_slabs)
PROBE = 64               # lowest-bound points per block evaluated first
# Allowance, relative to the largest absolute row sum, by which a Gershgorin
# bound is lowered so that it also bounds the rounded kernel value: LAPACK's
# Cholesky, inverse and symmetric eigensolver and the matrix products on
# k <= 6 are backward stable with errors of a small multiple of
# k*eps*||A|| (Higham, Accuracy and Stability of Numerical Algorithms,
# ch. 10; Golub & Van Loan, ch. 8).
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


def _point_blocks(fields, lo, hi):
    """(flat index of the first point, grid shape of the block, one view per
    field) over the _row_slabs in rows [lo, hi) of matrix fields (matrix
    axes first, grid axes broadcast).  A view keeps its field's size-1 axes,
    so a broadcast field (the metric) is never copied to grid size."""
    grid = np.broadcast_shapes(*(M.shape for M in fields))[2:]
    per_row = math.prod(grid[1:])
    for a, b in _row_slabs(grid, lo, hi):
        yield a * per_row, (b - a,) + grid[1:], [_rows(M, 2, a, b) for M in fields]


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


def _pruned_min(fields, bound, kernel, limit=np.inf):
    """(min over points of kernel, first flat argmin) over _point_blocks,
    each point sent to the kernel at most once.

    bound(*views) is a per-point lower bound of the computed kernel value.
    The kernel first runs on the PROBE points of lowest bound in each block
    with more than PROBE points whose bound is not above limit, whose values
    the block keeps; it then runs only on the block's other points whose
    bound is not above the least value found so far, since no other point
    can hold or tie the minimum.  A call gets its points in flat order and
    must return the least value of the call at its first point holding it
    and no smaller value elsewhere (+inf will do), so min and argmin equal
    those of a sweep over every point whenever the minimum is not above
    limit (a value the caller already holds); otherwise the result is some
    value above limit, or (inf, 0) if no point can reach it.

    Both passes run in row groups (_in_groups): each group bounds and probes
    its blocks, and every group's kernel pass starts from the least probe
    value of all of them.  A group's own minimum is then exact whenever it
    can be the grid's, and ties go to the earliest group.
    """
    grid = np.broadcast_shapes(*(M.shape for M in fields))[2:]

    def evaluate(shape, views, points):
        idx = np.unravel_index(points, shape)
        return kernel(*(_take(V, idx, shape) for V in views))

    def bound_pass(lo, hi):
        blocks, probed = [], limit
        for first, shape, views in _point_blocks(fields, lo, hi):
            lb = np.broadcast_to(bound(*views), shape).ravel()
            seen, val = np.empty(0, dtype=np.intp), np.empty(0)
            if np.count_nonzero(lb <= probed) > PROBE:
                seen = np.sort(np.argpartition(lb, PROBE - 1)[:PROBE])
                val = evaluate(shape, views, seen)
                probed = min(probed, float(val.min()))
            blocks.append((first, shape, views, lb, seen, val))
        return lo, (blocks, probed)

    groups = dict(_in_groups(grid, bound_pass))
    start = min(probed for _, probed in groups.values())

    def kernel_pass(lo, hi):
        best, best_idx = np.inf, 0
        for first, shape, views, lb, seen, val in groups[lo][0]:
            keep = lb <= min(start, best)
            keep[seen] = False
            new = np.flatnonzero(keep)
            if new.size:
                seen = np.concatenate((seen, new))
                val = np.concatenate((val, evaluate(shape, views, new)))
            if seen.size and val.min() < best:
                best = float(val.min())
                best_idx = first + int(seen[val == best].min())
        return best, best_idx

    return min(_in_groups(grid, kernel_pass), key=lambda result: result[0])


def _eigen_bound(M):
    low, norm = _gershgorin(M)
    return low - GERSHGORIN_ROUNDING * norm


def _min_eigenvalue(M):
    return np.linalg.eigvalsh(M)[:, 0]


def _pencil(M, t, base):
    """t*M + base, formed in place as P = t*M; P += base at the broadcast
    shape of M and base."""
    P = np.empty(np.broadcast_shapes(M.shape, base.shape), dtype=np.result_type(t, M, base))
    np.multiply(t, M, out=P)
    P += base
    return P


def min_eigenvalue_field(M, t=1.0, base=None, limit=np.inf):
    """(min eigenvalue, first flat argmin) over the points of base + t*M, or
    of M when base is None; fields have matrix axes first, and base may
    broadcast (the metric).  _pruned_min forms the pencil (_pencil) block by
    block in its bound and kernel, so it is never grid-size.  Exact when the
    minimum is not above limit, a least value known from elsewhere."""
    if base is None:
        return _pruned_min((M,), _eigen_bound, _min_eigenvalue, limit)
    return _pruned_min((M, base), lambda Mv, bv: _eigen_bound(_pencil(Mv, t, bv)),
                       lambda Mp, bp: _min_eigenvalue(_pencil(Mp, t, bp)), limit)


def deformation_form(s, phi):
    """d(J d phi) as a real 2-form, filled slab by slab (_deformation_slabs)."""
    u = _values(phi)
    u = u.reshape((1,) * (s.chart.dim - u.ndim) + u.shape)
    grid = np.broadcast_shapes(s.J.shape[2:], u.shape)
    npairs = len(forms.multi_indices(s.chart.dim, 2))
    comps = np.zeros((npairs,) + grid, dtype=np.result_type(s.J, u, 1.0))

    _in_groups(grid, lambda lo, hi: _deformation_slabs(s, u, comps, lo, hi))
    return forms.FormField(s.chart, 2, comps)


def _cpus():
    """CPUs this process may run on: its affinity mask, else the count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_GROUP = threading.local()    # .slab_points while a thread runs a row group
_POOL = None                  # (workers, executor), made at the first fan-out


def _row_groups(grid):
    """Row ranges [lo, hi) of grid axis 0, one per CPU: min(_cpus(), full
    SLAB_POINTS slabs of grid) of them, and at most one per row.  One
    range, the whole axis, inside a row group or for a grid of fewer than
    two full slabs."""
    if hasattr(_GROUP, "slab_points"):
        return [(0, grid[0])]
    k = max(1, min(_cpus(), math.prod(grid) // SLAB_POINTS, grid[0]))
    return [(i * grid[0] // k, (i + 1) * grid[0] // k) for i in range(k)]


def _run_group(slab, work, lo, hi):
    _GROUP.slab_points = slab
    try:
        return work(lo, hi)
    finally:
        del _GROUP.slab_points


def _in_groups(grid, work):
    """[work(lo, hi) for each of the _row_groups of grid], in group order.

    With one group this is the serial sweep.  Otherwise the calling thread
    runs the first group and a pool of one thread per further CPU the
    others, each group cut in slabs of SLAB_POINTS / groups points
    (_row_slabs), so the slab points in flight are those of one serial
    sweep; a sweep called inside a group runs serially in it.  Every group
    finishes before an error of any of them is raised, the earliest
    group's first."""
    global _POOL
    groups = _row_groups(grid)
    if len(groups) == 1:
        return [work(*groups[0])]
    from concurrent.futures import ThreadPoolExecutor, wait
    if _POOL is None or _POOL[0] < len(groups) - 1:
        if _POOL is not None:
            _POOL[1].shutdown(wait=False)
        _POOL = (len(groups) - 1, ThreadPoolExecutor(len(groups) - 1, "akcy-rows"))
    slab = SLAB_POINTS // len(groups)
    futures = [_POOL[1].submit(_run_group, slab, work, lo, hi) for lo, hi in groups[1:]]
    try:
        first = _run_group(slab, work, *groups[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _row_slabs(grid, lo=0, hi=None):
    """Row ranges [a, b) of grid axis 0 inside [lo, hi) (default: all rows)
    holding about SLAB_POINTS points each, or the slab points of the row
    group this thread runs (_row_groups)."""
    hi = grid[0] if hi is None else hi
    rows = max(1, getattr(_GROUP, "slab_points", SLAB_POINTS) // math.prod(grid[1:]))
    return [(a, min(a + rows, hi)) for a in range(lo, hi, rows)]


_rows = forms.axis_rows


def _wrapped_rows(f, axis, lo, hi):
    """Rows [lo, hi) of f along axis, wrapped periodically: a view unless
    the range wraps; a size-1 (broadcast) axis is returned whole."""
    if f.shape[axis] == 1 or (0 <= lo and hi <= f.shape[axis]):
        return _rows(f, axis, lo, hi)
    return np.take(f, np.arange(lo, hi), axis=axis, mode="wrap")


def _delta_rows(f, out):
    """Unscaled centred differences f[i+1] - f[i-1] along grid axis 0
    (leading) of f's interior rows, into out; zero if f has one (broadcast)
    row."""
    if f.shape[0] == 1:
        out[...] = 0
    else:
        np.subtract(f[2:], f[:-2], out=out)
    return out


def _diff_rows(chart, f, out):
    """_delta_rows divided by 2h, by Chart.diff's operations."""
    _delta_rows(f, out)
    out /= 2.0 * chart.spacing[0]
    return out


def _j_gradient_rows(chart, J, u, lo, hi, out, scaled=True):
    """sum_k J[k, i] g_k on rows [lo, hi) of grid axis 0, wrapped, into out,
    with g = du, or with the unscaled differences g_k = u(x + h e_k) -
    u(x - h e_k) when not scaled.  It reads u's rows [lo-1, hi+1); the
    axis-0 differences are interior slice differences, the others
    Chart.delta, divided by 2h as Chart.diff divides them."""
    ue = _wrapped_rows(u, 0, lo - 1, hi + 1)
    mid = ue[1:-1] if ue.shape[0] > 1 else ue
    g = np.empty((chart.dim,) + mid.shape, dtype=np.result_type(u, 1.0))
    _delta_rows(ue, g[0])
    for d in range(1, chart.dim):
        chart.delta(mid, d, out=g[d])
    if scaled:
        for d in range(chart.dim):
            g[d] /= 2.0 * chart.spacing[d]
    del ue, mid
    forms.j_oneform_comps(_wrapped_rows(J, 2, lo, hi), g, out=out)


def _halo_slabs(grid, ncomp, dtype, build, lo=0, hi=None):
    """Yield (a, b, rows) over _row_slabs(grid, lo, hi): rows holds ncomp
    fields on rows [a-1, b+1) of grid axis 0, wrapped (the one row of a
    broadcast axis), and build(lo, hi, out) fills rows [lo, hi) of them,
    reading the rows beside them too.

    Each row is built once, in one buffer of slab size: the first slab
    builds all of its rows, every later one takes rows [a-1, a+1) from the
    slab before (the halo) and builds only [a+1, b+1).  A chain over part
    of the axis (a row group) builds its two edge rows once more than the
    chains beside it, with the same values.  A chain of more than one slab
    keeps build's transients below its slab's: the first slab builds its
    halo rows apart from its body, and the rows whose neighbours wrap
    round the axis are built one at a time (_edge_rows_apart).  A chain of
    one slab builds its rows in one call.
    """
    slabs = _row_slabs(grid, lo, hi)
    halo = 2 if grid[0] > 1 else 0     # one broadcast row has no neighbours
    rows = slabs[0][1] - slabs[0][0]
    buf = np.empty((ncomp, rows + halo) + grid[1:], dtype=dtype)
    if len(slabs) > 1:
        build = _edge_rows_apart(grid[0], build)
    built = 0                          # rows of buf the slab before holds
    for a, b in slabs:
        body = buf[:, halo:b - a + halo]
        if built:
            buf[:, :halo] = buf[:, built - halo:built]
            build(a + 1, b + 1, body)
        elif len(slabs) > 1:
            build(a - 1, a + 1, buf[:, :halo])
            build(a + 1, b + 1, body)
        else:
            build(a - 1, b + 1, buf[:, :b - a + halo])
        built = b - a + halo
        yield a, b, buf[:, :built]


def _edge_rows_apart(n, build):
    """build over rows [r0, r1) of an axis of n rows, with each row whose
    neighbours wrap (the first and last row and any beyond) built alone, so
    that only those rows' reads are wrapped copies (_wrapped_rows)."""
    def split(r0, r1, out):
        a = r0
        while a < r1:
            b = a + 1 if a < 1 or a >= n - 1 else min(r1, n - 1)
            build(a, b, out[:, a - r0:b - r0])
            a = b
    return split


def _deformation_slabs(s, u, out, lo, hi):
    """Add d(J du) into rows [lo, hi) of grid axis 0 of out (zeros, pair
    axis first, on the broadcast grid of u and J), one _row_slabs slab
    [a, b) at a time.

    The slab [a, b) differences J du on rows [a-1, b+1), each row built once
    (_halo_slabs).  d is taken with axis-0 differences as interior slice
    differences, the others Chart.diff, and the terms added in
    exterior_derivative's order, so every value is bitwise that of d_scalar
    -> apply_J_oneform -> exterior_derivative on the whole grid.
    """
    chart = s.chart
    grid = np.broadcast_shapes(s.J.shape[2:], u.shape)
    dtype = np.result_type(s.J, u, 1.0)
    diff = None
    for a, b, Jg_rows in _halo_slabs(grid, chart.dim, dtype, lambda r0, r1, Jg: (
            _j_gradient_rows(chart, s.J, u, r0, r1, Jg)), lo, hi):
        Jg_mid = Jg_rows[:, 1:-1] if Jg_rows.shape[1] > b - a else Jg_rows
        if diff is None:               # the first slab is the largest
            diff = np.empty((b - a,) + grid[1:], dtype=dtype)
        d_rows = diff[:b - a]
        forms.add_d_terms(out[:, a:b], chart.dim, 1, lambda i, d: (
            _diff_rows(chart, Jg_rows[i], d_rows) if d == 0
            else chart.diff(Jg_mid[i], d, out=d_rows)))


def h_matrix(J, comps):
    """Coordinate matrix of the symmetric form h associated with the real
    (1,1)-tamed 2-form B given in pair components: h = (B J - J^T B)/2.

    J has its matrix axes first (2n, 2n, *b), comps its pair axis first; the
    trailing axes broadcast.  For B = omega and J = s.J this returns g exactly.
    Only the upper triangle is contracted, h_il = (BJ)_il/2 + (BJ)_li/2 for
    i <= l, and it is copied to the lower one, so h is exactly symmetric.
    Each row group (_in_groups) contracts its rows straight into h.
    """
    dim = J.shape[0]
    shape = np.broadcast_shapes(J.shape[2:], comps.shape[1:])
    h = np.empty((dim, dim) + shape, dtype=np.result_type(J.dtype, comps.dtype))

    def fill(lo, hi):
        forms.contract_pairs(J, comps, (dim, dim), (
            t for i in range(dim) for l in range(i, dim)
            for t in forms.bj_terms(J, i, l, (i, l))
        ), out=h, rows=(lo, hi))
        for i in range(dim):
            for l in range(i + 1, dim):
                h[l, i, lo:hi] = h[i, l, lo:hi]

    _in_groups(shape, fill)
    return h


def taming_margin(s, phi):
    """Grid-min over points of the smallest eigenvalue of h(phi) =
    g + h_matrix(J, d(J dphi)); h(phi) is positive definite exactly where
    omega(phi) tames J."""
    return _margin_of(s, deformation_form(s, phi))


def _margin_of(s, B):
    """taming_margin from B = d(J dphi): the least min_eigenvalue_field over
    _row_slabs of h = h_matrix(J, B) + g, so h is only ever slab-size.  Each
    slab's sweep is limited by the least margin of the slabs before it in
    its row group (_in_groups), so a slab that cannot hold the minimum runs
    no eigenvalue kernel."""
    grid = B.comps.shape[1:]

    def sweep(lo, hi):
        margin = np.inf
        for a, b in _row_slabs(grid, lo, hi):
            h = h_matrix(_rows(s.J, 2, a, b), B.comps[:, a:b])
            h += _rows(s.g, 2, a, b)
            margin = min(margin, min_eigenvalue_field(h, limit=margin)[0])
            del h
        return margin

    return min(_in_groups(grid, sweep))


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

    F_j is read off the J-anti-invariant part Bm = tau + conj(tau) of
    d(J dphi) as C(n, 2j) Bm^(2j) ^ H^(n-2j) / omega^n: at top degree only
    the C(2j, j) terms (tau^taubar)^j of Bm^(2j) survive, and
    C(n, 2j) C(2j, j) = c_j.  Their sum is checked against the top power as
    in F_total.
    """
    return _F_total(s, deformation_form(s, phi), return_components=True)[1]


def _F_components(s, J, B):
    """F_components from the pair components B of d(J dphi) and J on the
    same points (matrix axes first; the point axes broadcast)."""
    n = s.half_dim
    chart = s.chart
    P11, Bm = forms.bidegree_parts(J, B, chart.dim)
    del B
    P11 += forms.omega_form(s).comps  # broadcast add; P11 is now H(phi)
    H = forms.FormField(chart, 2, P11)
    BmF = forms.FormField(chart, 2, Bm)
    Bm2 = forms.wedge(BmF, BmF)
    del Bm, BmF

    out = []
    for j in range(n // 2 + 1):
        top = None
        if j > 0:
            top = _wedge_power(Bm2, j)
        if n - 2 * j > 0:
            Hp = _wedge_power(H, n - 2 * j)
            top = Hp if top is None else forms.wedge(top, Hp)
        out.append(math.comb(n, 2 * j) * forms.top_ratio(s, top))
    return out


def F_total(s, phi, return_components=False):
    """F(phi) = omega(phi)^n / omega^n, dual-path checked against sum F_j.

    Both paths start from one evaluation of d(J dphi) and run slab by slab.
    """
    return _F_total(s, deformation_form(s, phi), return_components)


def _F_of(s, B):
    """F = (omega + B)^n / omega^n pointwise, from the pair components of B
    (pair axis first).  The point axes may be the grid, J's broadcast
    lattice or a batch of any shape of at most the grid's rank: they are
    padded with trailing size-1 axes (a batch of m points runs along grid
    axis 0), and F keeps B's point shape."""
    points = B.shape[1:]
    B = forms.FormField(s.chart, 2, B.reshape(B.shape + (1,) * (s.chart.dim - len(points))))
    return forms.top_ratio(s, _wedge_power(forms.omega_form(s) + B, s.half_dim)).reshape(points)


def _F_total(s, B, return_components):
    """F_total from B = d(J dphi), over _row_slabs of B: each slab's F
    (_F_of) and F_j (_F_components) are slab-size, and the two paths must
    agree to F_CONSISTENCY_RTOL relative to max(1, max |F|) over the grid,
    both maxima taken per row group (_in_groups) and then over the groups.
    The F_j fields are kept only when returned."""
    grid = B.comps.shape[1:]
    direct = np.empty(grid)
    comps = [np.empty(grid) for _ in range(s.half_dim // 2 + 1)] if return_components else []

    def sweep(lo, hi):
        peak = defect = 0.0
        for a, b in _row_slabs(grid, lo, hi):
            Bs = B.comps[:, a:b]
            F = direct[a:b]
            F[...] = _F_of(s, Bs)
            parts = _F_components(s, _rows(s.J, 2, a, b), Bs)
            total = sum(parts[1:], parts[0])
            peak = max(peak, float(np.abs(F).max()))
            defect = max(defect, float(np.abs(F - total).max()))
            for Fj, part in zip(comps, parts):
                Fj[a:b] = part
        return peak, defect

    peaks, defects = zip(*_in_groups(grid, sweep))
    peak, defect = max(peaks), max(defects)
    scale = max(1.0, peak)
    if defect > F_CONSISTENCY_RTOL * scale:
        raise ConsistencyError(
            f"top-power and component-sum paths for F disagree by {defect:.3e} "
            f"(relative tolerance {F_CONSISTENCY_RTOL})"
        )
    if return_components:
        return direct, comps
    return direct


def _whitener(G):
    """W = L^-1 with G = L L^T, on G's own points (matrix axes first, as G).

    The entries are checked first (_gershgorin), so a non-finite entry
    raises NumericalError rather than the Cholesky's LinAlgError; a finite
    G that is not positive definite at some point raises LinAlgError."""
    _gershgorin(G)
    L = np.linalg.cholesky(np.moveaxis(G, (0, 1), (-2, -1)))
    return np.moveaxis(np.linalg.inv(L), (-2, -1), (0, 1))


def _whitened_bound(G, W, D):
    """Lower bound of lambda_min(W D W^T), W = L^-1 with G = L L^T: the
    Rayleigh quotient x'Dx / x'Gx is at least min(lb(D), 0) / lb(G) when
    lb(G) > 0.  lb(D) is D's Gershgorin bound.  When G broadcasts to fewer
    points than D (the metric on J's lattice), lb(G) is G's smallest
    eigenvalue, taken on G's own points at almost no cost; otherwise (a base
    on the scan set, as large as D) it is G's Gershgorin bound.  Both are
    lowered by the rounding allowance."""
    low_g, norm_g = _gershgorin(G)
    low_d, norm_d = _gershgorin(D)
    if G[0, 0].size < D[0, 0].size:
        low_g = np.linalg.eigvalsh(np.moveaxis(G, (0, 1), (-2, -1)))[..., 0]
    den = low_g - GERSHGORIN_ROUNDING * norm_g
    with np.errstate(divide="ignore", invalid="ignore"):
        lb = (np.minimum(low_d, 0.0) - GERSHGORIN_ROUNDING * norm_d) / den
    return np.where(den > 0.0, lb, -np.inf)


def _whitened_min_eigenvalue(G, W, D):
    """lambda_min of the whitened K = W D W^T, symmetrised, of (p, k, k)
    stacks, at the first point where it is least; +inf elsewhere (the
    kernel contract of _pruned_min).

    The least value is a _pruned_min sweep of K as a (k, k, p) field with
    K's Gershgorin bound, lowered by the rounding allowance (_eigen_bound),
    and eigvalsh, so the min and first argmin are those of eigvalsh on
    every point."""
    K = W @ D @ np.swapaxes(W, -1, -2)
    K = 0.5 * (K + np.swapaxes(K, -1, -2))
    lam, at = _pruned_min((np.moveaxis(K, 0, -1),), _eigen_bound, _min_eigenvalue)
    return np.where(np.arange(len(K)) == at, lam, np.inf)


def _pencil_critical_scale(g, delta):
    """min over points of sup{s : g + s*delta positive definite}, inf if none.

    Whitens the pencil by W = L^-1, g = L L^T, formed once on g's own points
    (_whitener): J's lattice for the metric, the scan points for a witness
    base.  The critical scale per point is -1/lambda_min of the whitened
    delta W delta W^T when that eigenvalue is negative, so the grid minimum
    comes from the least lambda_min (division rounds monotonically).  The
    kernel is two batched matrix products and eigvalsh only where the
    whitened matrix's Gershgorin bound can still hold the minimum
    (_whitened_min_eigenvalue); no Cholesky or solve runs per grid point.
    g may be a broadcastable field (the metric); see _point_blocks.
    """
    lam, _ = _pruned_min((g, _whitener(g), delta), _whitened_bound, _whitened_min_eigenvalue)
    return -1.0 / lam if lam < 0.0 else np.inf


def pencil_amplitude(base, delta):
    """a = sup{ s > 0 : base + s*delta positive definite at every point }.

    The pencil is affine in s per point, so a is the closed-form critical
    scale of the symmetric-definite pencil (Golub & Van Loan 8.7), reduced
    by the inverse Cholesky factor of base, formed once on base's own points
    (_pencil_critical_scale).  A certificate checks it: the margin must be
    positive at a*(1 - 1e-9) and non-positive at a*(1 + 1e-9).  The first
    is a full eigenvalue sweep; the second is read at that sweep's argmin
    with the sweep's own kernel, since a value there bounds the minimum
    from above.  Only when that point does not decide does a full sweep
    run, also before ConsistencyError, so its message gives the two sweep
    minima.
    """
    a = _pencil_critical_scale(base, delta)
    if not np.isfinite(a) or a > AMPLITUDE_MAX:
        raise AmplitudeError(
            f"no taming sign change up to {AMPLITUDE_MAX:.1e}; amplitude unbounded"
        )
    t_above = a * (1.0 + AMPLITUDE_RTOL)
    below, at = min_eigenvalue_field(delta, a * (1.0 - AMPLITUDE_RTOL), base)
    grid = np.broadcast_shapes(delta.shape, base.shape)[2:]
    idx = np.unravel_index([at], grid)
    above = float(_min_eigenvalue(_pencil(_take(delta, idx, grid), t_above,
                                          _take(base, idx, grid)))[0])
    if not (below > 0.0 and above <= 0.0):
        above, _ = min_eigenvalue_field(delta, t_above, base)
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


def _is_constant(phi):
    return float(np.ptp(_values(phi))) == 0.0


def _require_nonconstant(phi):
    if _is_constant(phi):
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
    feeds F, the margin and the amplitude direction.  With the amplitude of
    a non-constant potential, Delta = h_matrix(J, d(J dphi)) is built once
    and d(J dphi) released: the margin is the sweep of the pencil g + 1*Delta,
    bitwise the slab margin (1*Delta + g is h + g), and Delta is the
    amplitude direction.  Otherwise (no amplitude, or a constant potential,
    which has none) the margin is taken slab by slab (_margin_of) and no
    grid-size h is built.
    """
    B = deformation_form(s, phi)
    direct, comps = _F_total(s, B, return_components=True)
    components = [
        {"j": j, "min": float(c.min()), "max": float(c.max())}
        for j, c in enumerate(comps)
    ]
    del comps
    amplitude = None
    if compute_amplitude and not _is_constant(phi):
        delta = h_matrix(s.J, B.comps)
        del B
        margin = min_eigenvalue_field(delta, 1.0, s.g)[0]
        try:
            amplitude = pencil_amplitude(s.g, delta)
        except AmplitudeError:
            pass
    else:
        margin = _margin_of(s, B)
    return PotentialReport(
        F_min=float(direct.min()),
        F_max=float(direct.max()),
        F_integral=float(forms.integrate(s, direct)),
        margin=margin,
        amplitude=amplitude,
        components=components,
        F=direct,
    )
