"""Command line front end: validate | analyze | boundary | solve.

Every command reads a single JSON config, writes a machine-readable report
plus plot-ready CSV data into the output directory, and prints a short
human-readable summary.  Unknown config keys and mistyped values are
rejected, naming the key, before any work starts, so that a typo in a
tolerance cannot silently change a run.

Config schema (all sections optional except "structure"):

    {
      "structure": {
        "kind": "standard" | "twisted",
        "n": 2,                       # half dimension
        "resolution": [16,16,16,16],
        "epsilon": 0.12,              # twist amplitude (twisted only)
        "generator": [[...], ...],    # row-major 2n x 2n matrix; default
                                      # generator used when omitted
        "profile": "sin_x1"
      },
      "analyze": {
        "potential": "builtin:prod_x2_y1" | "random:SEED" | "file:PATH",
        "scale": 0.01,
        "amplitude": true,
        "dump_fields": false
      },
      "boundary": {
        "R_list": [4, 6, 8, 12],
        "dump_fields": false
      },
      "solve": {
        "target": "manufactured" | "file:PATH" | "from-boundary-witness",
        "potential": "builtin:prod_x2_y1",   # manufactured phi*
        "scale": 0.01,
        "method": "continuity" | "newton",
        "steps": 10,
        "tol": 1e-8,
        "max_iter": 12
      }
    }

For `validate` the config may alternatively be a plain key=value text file
carrying only the structure fields (kind, n, resolution, epsilon, generator,
profile).

Exit codes: 0 ok, 2 validation, 3 precondition, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import boundary as bd
from . import cy_operator as cy
from . import potentials
from . import serialize
from . import solver as sv
from . import structure as st
from .errors import (
    AkcyError,
    ConfigurationError,
    NumericalError,
    PreconditionError,
)

__all__ = ["main", "build_structure_from_config", "parse_config"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 5

def _is_int(v, low=None):
    return isinstance(v, int) and not isinstance(v, bool) and (low is None or v >= low)


def _is_number(v):
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_list(v, item):
    return isinstance(v, list) and all(item(x) for x in v)


def _is_potential_spec(v):
    return isinstance(v, str) and re.fullmatch(r"builtin:.+|random:\d+|file:.+", v) is not None


_NUMBER = (_is_number, "a number")
_FLAG = (lambda v: isinstance(v, bool), "true or false")
_TEXT = (lambda v: isinstance(v, str), "a string")
_POTENTIAL = (_is_potential_spec, "builtin:NAME, random:SEED (SEED >= 0) or file:PATH")
_COUNT = (lambda v: _is_int(v, 1), "a positive integer")
# Each section's keys, each with a check of its value and what the check expects.
_SCHEMA = {
    "structure": {
        "kind": _TEXT,
        "n": (_is_int, "an integer"),
        "resolution": (lambda v: _is_list(v, _is_int), "a list of integers"),
        "epsilon": _NUMBER,
        "generator": (lambda v: _is_list(v, lambda row: _is_list(row, _is_number)),
                      "a list of rows of numbers"),
        "profile": _TEXT,
    },
    "analyze": {"potential": _POTENTIAL, "scale": _NUMBER, "amplitude": _FLAG,
                "dump_fields": _FLAG},
    "boundary": {"R_list": (lambda v: _is_list(v, _is_number), "a list of numbers"),
                 "dump_fields": _FLAG},
    "solve": {
        "target": _TEXT,
        "potential": _POTENTIAL,
        "scale": _NUMBER,
        "method": (lambda v: v in ("continuity", "newton"), '"continuity" or "newton"'),
        "steps": _COUNT,
        "tol": (lambda v: _is_number(v) and v > 0, "a positive number"),
        "max_iter": _COUNT,
    },
}


def _check_keys(section, allowed, where):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown config key(s) in {where}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _check_section(name, section):
    """Reject a section's unknown keys and mistyped values, naming the key."""
    if not isinstance(section, dict):
        raise ConfigurationError(f'"{name}" must be a JSON object, got {section!r}')
    _check_keys(section, set(_SCHEMA[name]), f'"{name}"')
    for key, value in section.items():
        ok, expected = _SCHEMA[name][key]
        if not ok(value):
            raise ConfigurationError(f'"{name}.{key}" must be {expected}, got {value!r}')


def _parse_keyvalue(text):
    """key=value fallback for structure-only configs."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return {"structure": out}


def parse_config(path):
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}")
    else:
        doc = _parse_keyvalue(text)
    if not isinstance(doc, dict):
        raise ConfigurationError("config root must be a JSON object")
    _check_keys(doc, set(_SCHEMA), "top level")
    if "structure" not in doc:
        raise ConfigurationError('config must contain a "structure" section')
    for name, section in doc.items():
        _check_section(name, section)
    return doc


def build_structure_from_config(cfg, grid_override=None):
    sec = cfg["structure"]
    _check_section("structure", sec)
    kind = sec.get("kind", "standard")
    n = sec.get("n", 2)
    resolution = grid_override or sec.get("resolution")
    epsilon = sec.get("epsilon", 0.0)
    if resolution is None:
        raise ConfigurationError('"structure.resolution" must be a list of integers, got None')
    chart = st.build_grid(n, resolution)
    if kind == "standard":
        return st.standard_structure(chart)
    generator = sec.get("generator")
    gen = (
        np.asarray(generator, dtype=float)
        if generator is not None
        else st.default_generator(n)
    )
    recipe = st.StructureRecipe(
        kind=kind,
        generator=gen,
        amplitude=float(epsilon),
        profile=sec.get("profile", "sin_x1"),
    )
    return st.twisted_structure(chart, recipe)


def _read_grid_field(path, s, what):
    """A saved degree-0 field that must live on the grid of s."""
    values, degree = serialize.read_field(path)
    if degree != 0 or values.shape != s.chart.shape:
        raise ConfigurationError(
            f"{what} file has shape {values.shape}, grid is {s.chart.shape}"
        )
    return np.asarray(values, dtype=float)


def _resolve_potential(spec_str, s, scale):
    """builtin:NAME, random:SEED, or file:PATH -> grid values."""
    if spec_str.startswith("file:"):
        return _read_grid_field(spec_str[5:], s, "potential")
    if spec_str.startswith("random:"):
        rng = np.random.default_rng(int(spec_str[7:]))
        pot = potentials.random_potential(s.half_dim, rng)
        return scale * pot.sample(s.chart)
    name = spec_str[8:]   # builtin:NAME, the one spec left by the config check
    for cand in potentials.default_candidates(s.half_dim):
        if cand.name == name:
            return scale * cand.sample(s.chart)
    known = [c.name for c in potentials.default_candidates(s.half_dim)]
    raise ConfigurationError(f"unknown builtin potential {name!r}; known: {known}")


def cmd_validate(cfg, out, args):
    s = build_structure_from_config(cfg, args.grid_override)
    report = st.validate_structure(s)
    serialize.write_report(out / "validation_report.json", report)
    d = report.as_dict()
    print(
        f"validate: passed={d['passed']}  "
        f"J^2 defect={d['max_J_square_defect']:.3e}  "
        f"omega defect={d['max_omega_invariance_defect']:.3e}  "
        f"min g eig={d['min_g_eigenvalue']:.6f}"
    )
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_analyze(cfg, out, args):
    sec = cfg.get("analyze", {})
    s = build_structure_from_config(cfg, args.grid_override)
    phi = _resolve_potential(
        sec.get("potential", "builtin:prod_x2_y1"), s, sec.get("scale", 0.01)
    )
    phi = cy.project_zero_mean(s, phi).values
    report = cy.analyze_potential(
        s, phi, compute_amplitude=sec.get("amplitude", True)
    )
    serialize.write_report(out / "potential_report.json", report)
    F = report.F
    serialize.write_field(out / "F_field.bin", F)
    serialize.write_field(out / "phi_field.bin", phi)
    if sec.get("dump_fields", False):
        serialize.field_to_csv(out / "F_field.csv", F)
    d = report.as_dict()
    print(
        f"analyze: F in [{d['F_min']:.6f}, {d['F_max']:.6f}]  "
        f"integral={d['F_integral']:.12f}  margin={d['margin']:.6f}  "
        f"amplitude={d['amplitude']}"
    )
    return EXIT_OK


def cmd_boundary(cfg, out, args):
    sec = cfg.get("boundary", {})
    s = build_structure_from_config(cfg, args.grid_override)
    seed = bd.select_seed(s)
    R_list = sec.get("R_list", [4.0, 6.0, 8.0, 12.0])
    R0, phi0, report = bd.search_R(s, seed, R_list)
    serialize.write_report(out / "boundary_report.json", report)
    serialize.write_field(out / "phi0_field.bin", phi0.values)
    sweep = report.diagnostics.get("sweep", [])
    serialize.write_trace_csv(
        out / "R_sweep.csv",
        ["R", "minF", "minF1_near_p0", "margin", "amplitude", "tau12_bound"],
        [
            [e["R"], e["minF"], e["minF1_near_p0"], e["margin"], e["amplitude"], e["tau12_bound"]]
            for e in sweep
        ],
    )
    if sec.get("dump_fields", False):
        f = bd.witness_density(s, seed, R0, report.amplitude)
        serialize.write_field(out / "witness_F.bin", f)
    d = report.as_dict()
    print(
        f"boundary: R0={d['R0']}  a={d['amplitude']:.6f}  "
        f"margin={d['margin']:.3e}  minF={d['minF']:.6f}  "
        f"minF1={d['minF1_near_p0']:.3e}  eps1={d['epsilon1']:.4f}"
    )
    return EXIT_OK


def cmd_solve(cfg, out, args):
    sec = cfg.get("solve", {})
    s = build_structure_from_config(cfg, args.grid_override)
    target = sec.get("target", "manufactured")
    if target == "manufactured":
        phi_star = _resolve_potential(
            sec.get("potential", "builtin:prod_x2_y1"), s, sec.get("scale", 0.01)
        )
        phi_star = cy.project_zero_mean(s, phi_star).values
        f = cy.F_total(s, phi_star)
    elif target == "from-boundary-witness":
        seed = bd.select_seed(s)
        R_list = cfg.get("boundary", {}).get("R_list", [4.0, 6.0, 8.0, 12.0])
        R0, _, breport = bd.search_R(s, seed, R_list)
        f = bd.witness_density(s, seed, R0, breport.amplitude)
        serialize.write_report(out / "boundary_report.json", breport)
    elif target.startswith("file:"):
        f = _read_grid_field(target[5:], s, "target")
    else:
        raise ConfigurationError(
            f"unknown solve target {target!r}; use manufactured, "
            "from-boundary-witness, or file:PATH"
        )

    method = sec.get("method", "continuity")
    tol = sec.get("tol", 1e-8)
    max_iter = sec.get("max_iter", 12)
    if method == "newton":
        try:
            pot, report = sv.newton_solve(s, f, tol=tol, max_iter=max_iter)
        except AkcyError as exc:
            report = getattr(exc, "report", None)
            if report is None:
                raise
            pot = None
    else:
        pot, report = sv.continuity_solve(
            s, f, steps=sec.get("steps", 10), tol=tol, max_iter=max_iter
        )

    serialize.write_report(out / "solve_report.json", report)
    if method == "continuity":
        serialize.write_trace_csv(
            out / "solve_trace.csv", ["t", "residual", "margin"], report.trace
        )
    else:
        serialize.write_trace_csv(
            out / "solve_trace.csv",
            ["iter", "residual", "margin", "step", "lin_res"],
            report.trace,
        )
    if pot is not None:
        serialize.write_field(out / "phi_solution.bin", pot.values)
    d = report.as_dict()
    print(
        f"solve: converged={d['converged']}  t_reached={d['t_reached']}  "
        f"residual={d['residual']:.3e}  margin={d['margin']:.3e}  "
        f"reason={d['reason'] or 'ok'}"
    )
    return EXIT_OK if report.converged else EXIT_NUMERICAL


_COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "boundary": cmd_boundary,
    "solve": cmd_solve,
}


def _exit_code_for(exc):
    if isinstance(exc, PreconditionError):
        return EXIT_PRECONDITION
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    if isinstance(exc, (ConfigurationError, AkcyError)):
        return EXIT_VALIDATION
    return EXIT_NUMERICAL


def _parse_grid_override(text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"--grid-override expects N1,N2,...; got {text!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="akcy", description="Generalized Monge-Ampere laboratory on torus models"
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory for reports")
    parser.add_argument(
        "--grid-override",
        default=None,
        help="comma-separated per-axis resolution replacing the config value",
    )
    args = parser.parse_args(argv)

    try:
        if args.grid_override is not None:
            args.grid_override = _parse_grid_override(args.grid_override)
        cfg = parse_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, args)
    except AkcyError as exc:
        code = _exit_code_for(exc)
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
