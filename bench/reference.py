"""Workload inputs and independent reference computations.

Nothing in this module imports akcy.  The structure, the potentials, the
field-file format and the discrete operator are re-derived here from their
definitions, so the checks in `checks.py` compare the program against a
second implementation rather than against itself:

* the twisted structure J = A J0 A^-1 with A = expm(eps t(x) S), where the
  generator S = Omega^-1 M is fixed below and handed to the program
  explicitly in every config;
* potentials as finite sums of plane waves, evaluated in closed form;
* centred periodic differences built on np.roll, the Pfaffian density
  F = Pf(omega + d(J^T dphi)) for n = 2, and the taming form
  h(B) = (B J - J^T B)/2, whose positive definiteness is omega(phi) taming J.
"""

from __future__ import annotations

import struct

import numpy as np
import scipy.linalg

HALF_DIM = 2
DIM = 2 * HALF_DIM
EPSILON = 0.12
PROFILE = "sin_x1_cos_y2"
TWO_PI = 2.0 * np.pi

# Pair components of a 2-form in 4 dimensions, in increasing order.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def omega_matrix():
    """omega = dx1^dy1 + dx2^dy2 with coordinates (x1, y1, x2, y2)."""
    O = np.zeros((DIM, DIM))
    for a in range(HALF_DIM):
        O[2 * a, 2 * a + 1] = 1.0
        O[2 * a + 1, 2 * a] = -1.0
    return O


def standard_j():
    """J0 sends d/dx_a to d/dy_a."""
    J = np.zeros((DIM, DIM))
    for a in range(HALF_DIM):
        J[2 * a + 1, 2 * a] = 1.0
        J[2 * a, 2 * a + 1] = -1.0
    return J


def generator():
    """Infinitesimally symplectic S = Omega^-1 M (M symmetric), not commuting
    with J0, so the conjugated structure is non-integrable."""
    M = np.zeros((DIM, DIM))
    M[0, 0] = 0.5
    M[0, 2] = M[2, 0] = 1.0
    M[3, 3] = -0.3
    return np.linalg.solve(omega_matrix(), M)


def structure_config(N):
    """akcy "structure" config section of the workload structure at N^4."""
    return {
        "kind": "twisted",
        "n": HALF_DIM,
        "resolution": [N] * DIM,
        "epsilon": EPSILON,
        "generator": generator().tolist(),
        "profile": PROFILE,
    }


def axis_coords(N, d):
    shape = [1] * DIM
    shape[d] = N
    return (np.arange(N) / N).reshape(shape)


def j_field(N):
    """J as a (4, 4, N, 1, 1, N) field: the twist profile
    t = sin(2 pi x1) + cos(2 pi y2)/2 depends on x1 and y2 only."""
    S = generator()
    J0 = standard_j()
    x = np.arange(N) / N
    J = np.empty((DIM, DIM, N, 1, 1, N))
    for i in range(N):
        for l in range(N):
            t = np.sin(TWO_PI * x[i]) + 0.5 * np.cos(TWO_PI * x[l])
            A = scipy.linalg.expm(EPSILON * t * S)
            J[:, :, i, 0, 0, l] = A @ J0 @ np.linalg.inv(A)
    return J


class TrigPotential:
    """sum_t amp_t sin(2 pi k_t . x + phase_t), zero mean when every k_t != 0."""

    def __init__(self, terms):
        self.terms = [(float(a), tuple(int(v) for v in k), float(p)) for a, k, p in terms]

    def scaled(self, c):
        return TrigPotential([(c * a, k, p) for a, k, p in self.terms])

    def on_grid(self, N):
        out = np.zeros((N,) * DIM)
        for amp, k, phase in self.terms:
            arg = phase + sum(TWO_PI * k[d] * axis_coords(N, d) for d in range(DIM))
            out += amp * np.sin(arg)
        return out


def newton_potential(rng):
    """Manufactured solution phi* for newton-24: the product
    sin(2 pi x2) cos(2 pi y1) split into two waves, at amplitude 0.01, with
    phases drawn from the seed.  x2 and y1 are axes the twist does not use,
    so every seed poses a problem of the same difficulty."""
    p1, p2 = rng.uniform(0.0, TWO_PI, size=2)
    return TrigPotential([(0.005, (0, 1, 1, 0), p1), (0.005, (0, -1, 1, 0), p2)])


def analyze_potential(rng, num_terms=3):
    """Random plane-wave potential for analyze-32, waves in {-1,0,1}^4."""
    terms = []
    for _ in range(num_terms):
        k = np.zeros(DIM, dtype=int)
        while not k.any():
            k = rng.integers(-1, 2, size=DIM)
        terms.append((rng.uniform(0.3, 1.0), tuple(k), rng.uniform(0.0, TWO_PI)))
    return TrigPotential(terms)


# ---------------------------------------------------------------------------
# Discrete operator, re-derived.

def diff(f, d, N):
    """Centred periodic difference along grid axis d (trailing 4 axes)."""
    axis = f.ndim - DIM + d
    if f.shape[axis] == 1:
        return np.zeros_like(f)
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) * (N / 2.0)


def deformation(phi, J, N):
    """Pair components D[(p,q)] = d_p a_q - d_q a_p of d(J^T dphi),
    a_i = sum_k J[k,i] d_k phi."""
    grad = [diff(phi, k, N) for k in range(DIM)]
    a = [sum(J[k, i] * grad[k] for k in range(DIM)) for i in range(DIM)]
    del grad
    return np.stack([diff(a[q], p, N) - diff(a[p], q, N) for p, q in PAIRS])


def pfaffian_density(D):
    """F = Pf(omega + D) = omega(phi)^2 / omega^2 for n = 2."""
    B = dict(zip(PAIRS, D))
    B[(0, 1)] = B[(0, 1)] + 1.0
    B[(2, 3)] = B[(2, 3)] + 1.0
    return B[(0, 1)] * B[(2, 3)] - B[(0, 2)] * B[(1, 3)] + B[(0, 3)] * B[(1, 2)]


def _matrix(D):
    """Antisymmetric 4x4 matrix field from pair components."""
    B = np.zeros((DIM, DIM) + D.shape[1:])
    for m, (p, q) in enumerate(PAIRS):
        B[p, q] = D[m]
        B[q, p] = -D[m]
    return B


def taming_pencil(D, J):
    """(g, delta) with h(s phi) = g + s delta, h(B) = (B J - J^T B)/2."""
    O = omega_matrix()
    g = np.einsum("ij,jl...->il...", O, J)
    B = _matrix(D)
    delta = 0.5 * (np.einsum("ij...,jl...->il...", B, J) - np.einsum("ji...,jl...->il...", J, B))
    return g, delta


def min_taming_eigenvalue(g, delta, s):
    """Grid minimum of the smallest eigenvalue of h(s phi) = g + s delta,
    one slab of the first grid axis at a time."""
    best = np.inf
    for i in range(delta.shape[2]):
        h = g[:, :, min(i, g.shape[2] - 1)] + s * delta[:, :, i]
        block = np.moveaxis(h.reshape(DIM, DIM, -1), -1, 0)
        best = min(best, float(np.linalg.eigvalsh(block)[:, 0].min()))
    return best


def amplitude(g, delta, rtol):
    """sup{s > 0 : h(s phi) > 0 on the grid} to relative accuracy rtol: find
    the octave by doubling or halving from 1, then bisect."""
    def taming(s):
        return min_taming_eigenvalue(g, delta, s) > 0.0

    lo = hi = 1.0
    if taming(hi):
        while taming(2.0 * hi):
            hi *= 2.0
        lo, hi = hi, 2.0 * hi
    else:
        while not taming(0.5 * lo):
            lo *= 0.5
        lo, hi = 0.5 * lo, lo
    while hi - lo > rtol * lo:
        mid = 0.5 * (lo + hi)
        if taming(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Flat binary field files (the format of akcy.serialize): 8-byte magic, five
# little-endian uint32 (version, ndim, degree, ncomp, dtype tag), the grid
# dims as uint32, then row-major little-endian float64 values.

FIELD_MAGIC = b"AKFLD001"


def write_field(path, values):
    arr = np.ascontiguousarray(values, dtype="<f8")
    header = struct.pack("<5I", 1, arr.ndim, 0, 1, 0) + struct.pack(f"<{arr.ndim}I", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC + header + arr.tobytes())


def read_field(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != FIELD_MAGIC:
        raise ValueError(f"{path} is not a field file")
    version, ndim, degree, ncomp, tag = struct.unpack_from("<5I", data, 8)
    if (version, degree, ncomp, tag) != (1, 0, 1, 0):
        raise ValueError(f"{path} is not a float64 scalar field")
    shape = struct.unpack_from(f"<{ndim}I", data, 28)
    values = np.frombuffer(data, dtype="<f8", offset=28 + 4 * ndim)
    if values.size != int(np.prod(shape)):
        raise ValueError(f"{path} is truncated")
    return values.reshape(shape)
