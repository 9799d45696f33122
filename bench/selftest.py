"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs each workload once on a small grid, confirms that its check accepts
the real outputs, then corrupts one output at a time and confirms that the
check rejects it under the expected name.  Exits 1 if any corruption is
accepted or any real output is rejected.  Run from the root of a source
checkout, like run.py.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import reference as ref
import run

SIZES = {"newton-24": 10, "shadow-14": 14, "analyze-32": 12}


def _edit_report(name, **changes):
    def corrupt(out):
        path = out / name
        doc = json.loads(path.read_text())
        for key, value in changes.items():
            doc[key] = value(doc[key]) if callable(value) else value
        path.write_text(json.dumps(doc))
    return corrupt


def _edit_field(name, edit):
    def corrupt(out):
        values = ref.read_field(out / name).copy()
        edit(values)
        ref.write_field(out / name, values)
    return corrupt


def _bump_one_point(amount):
    def edit(values):
        values.flat[values.size // 3] += amount
    return edit


def _shift_all(amount):
    def edit(values):
        values += amount
    return edit


CORRUPTIONS = {
    "newton-24": [
        ("solution", _edit_field("phi_solution.bin", _bump_one_point(1e-5))),
        ("converged", _edit_report("solve_report.json", converged=False)),
    ],
    "analyze-32": [
        ("F_field", _edit_field("F_field.bin", _bump_one_point(1e-8))),
        ("mass", _edit_field("F_field.bin", _shift_all(5e-12))),
        ("amplitude", _edit_report("potential_report.json", amplitude=lambda a: a * (1 + 1e-5))),
        ("amplitude", _edit_report("potential_report.json", amplitude=lambda a: a * (1 - 1e-5))),
    ],
    "shadow-14": [
        ("scan_margin", _edit_report("boundary_report.json", margin=1e-6)),
        ("amplitude", _edit_report("boundary_report.json", amplitude=1.5)),
        ("minF", _edit_report("boundary_report.json", minF=-0.1)),
        ("min_eig_in_disk", _edit_report("boundary_report.json", min_eig_in_disk=False)),
        ("t_reached", _edit_report("solve_report.json", t_reached=0.8, converged=False)),
        ("endpoint", _edit_field("phi_solution.bin", _bump_one_point(1e-5))),
    ],
}


def main():
    root = Path.cwd()
    workdir = root / run.OUT_DIR / "selftest"
    ok = True
    try:
        for workload, N in SIZES.items():
            inputs = workdir / workload / "inputs"
            out = workdir / workload / "out"
            check = run.make_inputs(workload, 0, inputs, N=N)
            code, _, result, _, err = run.launch(root, workload, inputs, out, [], 600)
            if code != 0 or result is None:
                print(f"FAIL {workload}: the program exited {code}\n{err}")
                ok = False
                continue
            failures = check(out)
            print(f"{'PASS' if not failures else 'FAIL'} {workload} at {N}^4: real outputs "
                  f"{'accepted' if not failures else f'rejected: {failures}'}")
            ok &= not failures
            for name, corrupt in CORRUPTIONS[workload]:
                bad = workdir / workload / "corrupt"
                shutil.rmtree(bad, ignore_errors=True)
                shutil.copytree(out, bad)
                corrupt(bad)
                caught = [n for n, _ in check(bad)]
                hit = name in caught
                print(f"{'PASS' if hit else 'FAIL'} {workload}: corrupted {name} -> rejected by {caught}")
                ok &= hit
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
