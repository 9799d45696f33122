"""Benchmark of akcy: three workloads, each run in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's inputs (an akcy
config and `file:` fields) are generated from --seed; the program sees only
those.  A run first launches the workload process SETUP_LAUNCHES times in
set-up-only mode, then runs whole rounds of the operation, each in a new
process, until --seconds of operation time have passed (at least one
round).  Every round's outputs are checked after timing.

The last line of standard output is one JSON object: `correct`, `attempted`
and `failed` operations, and the metrics.  With --trace 0 these are the
end-to-end metrics (medians over the run's samples):

    setup_s      launch of a workload process until its inputs are ready
    run_s        wall time of the workload's operation
    peak_rss_mb  peak resident memory of the operation's process

With --trace 1 the rounds run with per-layer tracing (see tracer.py) and
the metrics are the per-layer ones.

Every process gets one BLAS/OpenMP thread, set here before numpy loads in
this process or in any process it starts.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402

BENCH = Path(__file__).resolve().parent
SETUP_LAUNCHES = 6
DEADLINE_S = 170.0          # a run must end within 180 s
OUT_DIR = ".bench_out"


# ---------------------------------------------------------------------------
# Workloads: inputs from the seed, and the check of one round's outputs.

def newton_inputs(rng, inputs, N=24):
    """`akcy solve`, damped Newton toward F(phi*) for a manufactured phi*."""
    potential = ref.newton_potential(rng)
    path = inputs / "phi_star.bin"
    ref.write_field(path, potential.on_grid(N))
    config = {
        "structure": ref.structure_config(N),
        "solve": {"target": "manufactured", "potential": f"file:{path}",
                  "method": "newton", "tol": 1e-9, "max_iter": 12},
    }
    return config, None, lambda out: checks.check_newton(out, potential, N)


# positivity_amplitude bisects from a +-1e-9 relative bracket down to 1e-10
# absolute, so its step count grows with log2 of the amplitude.  Scaling each
# drawn potential to an amplitude of about 2.26 (the geometric middle of
# (1.6, 3.2], where that count is constant) gives every seed the same work.
TARGET_AMPLITUDE = 2.26
SCALE_GRID = 12


def analyze_inputs(rng, inputs, N=32):
    """`akcy analyze` with amplitude, on a potential drawn from the seed."""
    raw = ref.analyze_potential(rng)
    J = ref.j_field(SCALE_GRID)
    g, delta = ref.taming_pencil(ref.deformation(raw.on_grid(SCALE_GRID), J, SCALE_GRID), J)
    potential = raw.scaled(ref.amplitude(g, delta, rtol=1e-2) / TARGET_AMPLITUDE)
    path = inputs / "phi.bin"
    ref.write_field(path, potential.on_grid(N))
    config = {
        "structure": ref.structure_config(N),
        "analyze": {"potential": f"file:{path}", "amplitude": True},
    }
    return config, None, lambda out: checks.check_analyze(out, potential, N)


def shadow_inputs(rng, inputs, N=14):
    """Criterion-12 pipeline; the seed draws the random part of the scan set."""
    config = {"structure": ref.structure_config(N)}
    pipeline = {"R": 8.0, "scan_seed": int(rng.integers(2**31)), "steps": 5,
                "tol": 1e-8, "max_iter": 8}
    return config, pipeline, checks.check_shadow


WORKLOADS = {
    "newton-24": newton_inputs,
    "shadow-14": shadow_inputs,
    "analyze-32": analyze_inputs,
}


def make_inputs(workload, seed, inputs, **size):
    """Write config.json (and pipeline.json) into inputs; return the check."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    config, pipeline, check = WORKLOADS[workload](rng, inputs, **size)
    (inputs / "config.json").write_text(json.dumps(config, indent=1))
    if pipeline is not None:
        (inputs / "pipeline.json").write_text(json.dumps(pipeline, indent=1))
    return check


# ---------------------------------------------------------------------------
# Processes.

class LaunchError(RuntimeError):
    pass


def launch(root, workload, inputs, out, flags, timeout):
    """Run one workload process; returns (exit code, ready_s, result, wall_s,
    stderr).  ready_s is the time from launch until the worker reported its
    inputs ready (both read from the system-wide monotonic clock)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(inputs), str(out), *flags]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=timeout)
    wall = time.monotonic() - start
    ready = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1]) - start
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return proc.returncode, ready, result, wall, proc.stderr


def layer_unit(name):
    if name.endswith(".s"):
        return "s"
    if name.endswith(".peak_mb"):
        return "MB"
    if name.endswith(".accept_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def run(root, workload, seed, seconds, trace, workdir):
    started = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - started)

    inputs = workdir / "inputs"
    check = make_inputs(workload, seed, inputs)

    setup = []
    for i in range(0 if trace else SETUP_LAUNCHES):
        code, ready, _, _, err = launch(root, workload, inputs, workdir / f"setup{i}",
                                        ["--setup-only"], remaining())
        if code != 0 or ready is None:
            raise LaunchError(f"set-up launch exited {code}:\n{err}")
        setup.append(ready)

    flags = ["--trace"] if trace else []
    rounds, attempted, failed, correct, measured, last = [], 0, 0, True, 0.0, 0.0
    while attempted == 0 or (measured < seconds and remaining() > 1.5 * last):
        round_start = time.monotonic()
        out = workdir / f"round{attempted}"
        attempted += 1
        try:
            code, ready, result, wall, err = launch(root, workload, inputs, out, flags, remaining())
        except subprocess.TimeoutExpired:
            failed += 1
            print(f"{workload}: round {attempted} timed out", file=sys.stderr)
            break
        measured += wall
        if code != 0 or result is None or ready is None:
            failed += 1
            print(f"{workload}: round {attempted} exited {code}:\n{err}", file=sys.stderr)
        else:
            failures = check(out)
            for name, message in failures:
                correct = False
                print(f"{workload}: check {name} failed: {message}", file=sys.stderr)
            setup.append(ready)
            rounds.append(result)
        shutil.rmtree(out, ignore_errors=True)
        last = time.monotonic() - round_start

    if not rounds:
        raise LaunchError(f"{workload}: no round completed")
    run_s = statistics.median(r["run_s"] for r in rounds)
    if trace:
        # The traced run_s is not a metric; minus the untraced one it is the
        # tracing overhead.
        print(f"{workload}: traced run_s {run_s:.3f} s", file=sys.stderr)
        names = rounds[0]["layers"]
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds),
                   "unit": layer_unit(name)}
            for name in names
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "akcy" / "__init__.py").is_file():
        print(f"{root} holds no akcy source tree (src/akcy); run from a checkout",
              file=sys.stderr)
        return 2
    workdir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (LaunchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
