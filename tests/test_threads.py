"""Row groups: the grid sweeps and Newton's Krylov loop give the same bits
on any number of CPUs, a sweep inside a group stays serial, and errors wait
for every group."""

import threading
import time

import numpy as np
import pytest

from akcy import cy_operator as cy
from akcy import potentials
from akcy import solver as sv
from akcy.errors import ConsistencyError, NumericalError

from conftest import make_twisted, set_slab_rows

WORKERS = (1, 2, 3)
THREAD_GRIDS = {
    "tw12": lambda: make_twisted([12] * 4),
    "tw_8x9x10x11": lambda: make_twisted([8, 9, 10, 11]),
    "tw8_n3": lambda: make_twisted([8] * 6, profile="sin_x1"),
}


def _sweeps(s, phi):
    """Every grid sweep of cy_operator on phi, L(phi) and the preconditioner
    on phi, and a Newton solve toward F(phi / 250), as bytes and exact
    floats."""
    B = cy.deformation_form(s, phi)
    direct, comps = cy.F_total(s, phi, return_components=True)
    delta = cy.h_matrix(s.J, B.comps)
    h = delta + s.g
    report = cy.analyze_potential(s, phi)
    target = cy.F_total(s, cy.project_zero_mean(s, phi / 250).values)
    pot, newton = sv.newton_solve(s, target, tol=1e-9)
    return {
        "L_apply": sv.make_handle(s, phi).apply(phi).tobytes(),
        "preconditioner": sv._Preconditioner(s.chart)(phi).tobytes(),
        "newton_iterate": pot.values.tobytes(),
        "newton_report": (newton.as_dict(), newton.trace),
        "deformation_form": B.comps.tobytes(),
        "margin": cy._margin_of(s, B),
        "F": direct.tobytes(),
        "F_j": [c.tobytes() for c in comps],
        "h_matrix": delta.tobytes(),
        "min_eigenvalue_field": cy.min_eigenvalue_field(h),
        "pencil_sweep": cy.min_eigenvalue_field(delta, 0.5, s.g),
        "pencil_amplitude": cy.pencil_amplitude(s.g, delta),
        "analyze_potential": (report.as_dict(), report.F.tobytes()),
    }


@pytest.mark.parametrize("grid", THREAD_GRIDS)
def test_sweeps_are_bitwise_the_same_on_any_number_of_cpus(monkeypatch, grid):
    """One, two and three row groups, with two-row slabs, give the bytes of
    d(J dphi), F with its components, h, the analyze report, L(phi)phi, the
    preconditioned phi and a Newton iterate, and the exact margin, minima,
    argmins, amplitude and Newton trace."""
    s = THREAD_GRIDS[grid]()
    shape = s.chart.shape
    set_slab_rows(monkeypatch, shape, 2)
    rng = np.random.default_rng(25)
    phi = 0.05 * potentials.random_potential(s.half_dim, rng).sample(s.chart)
    phi += 1e-4 * rng.standard_normal(shape)
    results = {}
    for workers in WORKERS:
        monkeypatch.setattr(cy, "_cpus", lambda: workers)
        assert len(cy._row_groups(shape)) == workers
        results[workers] = _sweeps(s, phi)
    for workers in WORKERS[1:]:
        for key, want in results[1].items():
            assert results[workers][key] == want, (workers, key)
    assert np.isfinite(results[1]["pencil_amplitude"])


def test_row_groups_follow_cpus_and_full_slabs(monkeypatch):
    """min(CPUs, full slabs) contiguous groups; one slab is the serial loop."""
    monkeypatch.setattr(cy, "_cpus", lambda: 2)
    assert cy._row_groups((14,) * 4) == [(0, 14)]
    assert cy._row_groups((24,) * 4) == [(0, 12), (12, 24)]
    monkeypatch.setattr(cy, "SLAB_POINTS", 100)
    monkeypatch.setattr(cy, "_cpus", lambda: 8)
    assert cy._row_groups((3, 100)) == [(0, 1), (1, 2), (2, 3)]
    assert cy._row_groups((5, 50)) == [(0, 2), (2, 5)]
    assert cy._row_groups((1, 1000)) == [(0, 1)]


def _symmetric_field(rng, k, grid):
    A = rng.standard_normal((k, k) + grid)
    return 0.5 * (A + np.swapaxes(A, 0, 1)) + 3.0 * np.eye(k).reshape((k, k) + (1,) * len(grid))


def test_a_sweep_inside_a_group_runs_serially_and_finishes(monkeypatch):
    """Each group sweeps a field of several full slabs, which alone would
    fan out: inside the group it runs serially, over several point blocks,
    gives the sweep's result, and no group waits on the pool."""
    M = _symmetric_field(np.random.default_rng(4), 4, (6, 100))
    monkeypatch.setattr(cy, "SLAB_POINTS", 200)
    monkeypatch.setattr(cy, "_cpus", lambda: 2)
    want = cy.min_eigenvalue_field(M)
    blocks = []
    point_blocks = cy._point_blocks

    def counted(fields, lo, hi):
        for block in point_blocks(fields, lo, hi):
            blocks.append(threading.get_ident())
            yield block

    monkeypatch.setattr(cy, "_point_blocks", counted)

    def nested(lo, hi):
        assert cy._row_groups(M.shape[2:]) == [(0, 6)]
        return cy.min_eigenvalue_field(M)

    out = []
    runner = threading.Thread(target=lambda: out.append(cy._in_groups(M.shape[2:], nested)),
                              daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "a nested sweep did not finish"
    assert out == [[want, want]]
    # Two groups, each a serial sweep over six one-row blocks.
    assert len(blocks) == 2 * 6 and len(set(blocks)) == 2


def _log_groups(monkeypatch, slow_lo):
    """Record each group's first row as it ends; the group starting at
    slow_lo sleeps first, so it ends last."""
    ended = []
    run = cy._run_group

    def logged(slab, work, lo, hi):
        if lo == slow_lo:
            time.sleep(0.3)
        try:
            return run(slab, work, lo, hi)
        finally:
            ended.append(lo)

    monkeypatch.setattr(cy, "_run_group", logged)
    return ended


@pytest.mark.parametrize("bad_row, slow_lo", [(2, 4), (0, 4), (4, 0)])
def test_a_nan_raises_only_after_every_group_ends(monkeypatch, bad_row, slow_lo):
    """A non-finite entry in any group, the calling thread's included,
    raises NumericalError once all three groups have ended."""
    M = _symmetric_field(np.random.default_rng(7), 4, (6, 100))
    M[1, 2, bad_row, 50] = np.nan
    monkeypatch.setattr(cy, "SLAB_POINTS", 100)
    monkeypatch.setattr(cy, "_cpus", lambda: 3)
    ended = _log_groups(monkeypatch, slow_lo)
    with pytest.raises(NumericalError):
        cy.min_eigenvalue_field(M)
    assert sorted(ended) == [0, 2, 4]   # the bound pass; no kernel pass ran


def test_a_component_defect_in_a_later_group_raises_after_every_group(monkeypatch):
    """A defect in the F_j of the middle group's rows fails the grid-wide
    consistency check, after the slow last group has ended too."""
    s = make_twisted([9] * 4)
    set_slab_rows(monkeypatch, s.chart.shape, 1)
    monkeypatch.setattr(cy, "_cpus", lambda: 3)
    phi = 1e-3 * np.random.default_rng(3).standard_normal(s.chart.shape)
    B = cy.deformation_form(s, phi)
    row4 = B.comps[:, 4:5]
    components = cy._F_components

    def perturbed(s, J, B):
        out = components(s, J, B)
        if np.array_equal(B, row4):
            out[0].flat[17] += 1e-8
        return out

    monkeypatch.setattr(cy, "_F_components", perturbed)
    ended = _log_groups(monkeypatch, slow_lo=6)
    with pytest.raises(ConsistencyError, match="disagree by 1.000e-08"):
        cy._F_total(s, B, return_components=False)
    assert sorted(ended) == [0, 3, 6]

