"""One workload process: set up, report readiness, run one operation.

    python3 bench/worker.py WORKLOAD INPUTS_DIR OUT_DIR [--setup-only] [--trace]

Set-up is what a user of the command line pays before any numerical work:
interpreter start, imports, parsing the config, building the structure and
reading the `file:` inputs.  The worker then prints ``READY <monotonic
time>``.  The operation that follows is the workload's command line call
(`akcy solve`, `akcy analyze`) or, for shadow-14, the criterion-12 pipeline;
the config, structure and input fields that set-up produced are handed to it
so that nothing is done twice.  The last line is ``RESULT <json>`` with the
operation's wall time, the process's peak resident memory and, with
--trace, the per-layer metrics.

The thread variables must be set by the caller, before numpy loads.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _file_inputs(cfg):
    """Paths of the `file:` fields a config refers to."""
    specs = [cfg.get("analyze", {}).get("potential", ""), cfg.get("solve", {}).get("potential", "")]
    return [spec[5:] for spec in specs if spec.startswith("file:")]


def _cli(command):
    def run(inputs, out, s):
        from akcy import cli

        return cli.main([command, "--config", str(inputs / "config.json"), "--out", str(out)])
    return run


def _shadow(inputs, out, s):
    """Criterion-12 pipeline: seed, boundary potential, continuity toward F(phi0)."""
    from akcy import boundary, cy_operator, serialize, solver

    spec = json.loads((inputs / "pipeline.json").read_text())
    seed = boundary.select_seed(s)
    phi0, breport = boundary.boundary_potential(s, seed, spec["R"], rng_seed=spec["scan_seed"])
    f = cy_operator.F_total(s, phi0.values)
    pot, report = solver.continuity_solve(
        s, f, steps=spec["steps"], tol=spec["tol"], max_iter=spec["max_iter"]
    )
    serialize.write_report(out / "boundary_report.json", breport)
    serialize.write_field(out / "phi0_field.bin", phi0.values)
    serialize.write_report(out / "solve_report.json", report)
    serialize.write_trace_csv(out / "solve_trace.csv", ["t", "residual", "margin"], report.trace)
    serialize.write_field(out / "phi_solution.bin", pot.values)
    return 0


OPERATIONS = {
    "newton-24": _cli("solve"),
    "shadow-14": _shadow,
    "analyze-32": _cli("analyze"),
}


def main(argv):
    workload, inputs, out = argv[0], Path(argv[1]), Path(argv[2])
    setup_only = "--setup-only" in argv
    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
    from akcy import cli, serialize

    if tracer is not None:
        tracer.install()
    cfg = cli.parse_config(inputs / "config.json")
    s = cli.build_structure_from_config(cfg)
    fields = {path: serialize.read_field(path) for path in _file_inputs(cfg)}
    print(f"READY {time.monotonic()!r}", flush=True)
    if setup_only:
        return 0

    cli.parse_config = lambda path: cfg
    cli.build_structure_from_config = lambda cfg, grid_override=None: s
    serialize.read_field = fields.__getitem__
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    code = OPERATIONS[workload](inputs, out, s)
    run_s = time.perf_counter() - start
    result = {
        "exit": code,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print("RESULT " + json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
