import inspect
import json

import numpy as np
import pytest

from akcy import cli, errors, forms, serialize
from akcy import cy_operator as cy
from akcy.errors import ConfigurationError


BASE_STRUCTURE = {
    "kind": "twisted",
    "n": 2,
    "resolution": [12, 12, 12, 12],
    "epsilon": 0.12,
    "profile": "sin_x1_cos_y2",
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_validate_json_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"structure": BASE_STRUCTURE})
    code = cli.main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "validation_report.json").read_text())
    assert doc["passed"] is True
    assert "validate: passed=True" in capsys.readouterr().out


def test_validate_keyvalue_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text(
        "# flat torus\n"
        "kind = standard\n"
        "n = 2\n"
        "resolution = [12, 12, 12, 12]\n"
    )
    code = cli.main(["validate", "--config", str(p), "--out", str(tmp_path)])
    assert code == 0


def test_unknown_key_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"structure": dict(BASE_STRUCTURE, tolrance=1e-8)})
    code = cli.main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "tolrance" in capsys.readouterr().err


def test_bad_resolution_exit_code(tmp_path):
    # a config-level grid mistake, such as too few points per axis, is a
    # validation error (2)
    bad = dict(BASE_STRUCTURE, resolution=[4, 4, 4, 4])
    cfg = write_cfg(tmp_path, {"structure": bad})
    code = cli.main(["validate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("key, value", [
    ("resolution", 16),
    ("resolution", [12, 12, "12", 12]),
    ("n", "2"),
    ("epsilon", "0.12"),
    ("generator", "abc"),
    ("analyze.potential", "random:xyz"),
    ("analyze.scale", "big"),
    ("analyze.scale", [1, 2]),
    ("solve.tol", "x"),
    ("solve.steps", "many"),
    ("solve.steps", 0),
    ("solve.steps", -1),
    ("solve.max_iter", 2.5),
    ("epsilon", 50.0),
    ("epsilon", 1e308),
])
def test_mistyped_structure_value_exit_code(tmp_path, capsys, key, value):
    """A mistyped value exits 2 naming its key; a bare key is a structure key
    and a dotted one names its section, run by the command that reads it.
    A well-typed twist amplitude that breaks the structure (eps = 50 fails
    J^2 = -1 by 3e-3 here, 1e308 overflows exp(eps t S)) exits 2 from
    validate and analyze with a StructureError, not a traceback."""
    section, _, name = key.rpartition(".")
    section = section or "structure"
    doc = {"structure": BASE_STRUCTURE}
    doc[section] = dict(doc.get(section, {}), **{name: value})
    cfg = write_cfg(tmp_path, doc)
    breaks = key == "epsilon" and isinstance(value, float)
    commands = (["validate", "analyze"] if breaks
                else [{"structure": "validate"}.get(section, section)])
    for command in commands:
        code = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert ("error (StructureError)" if breaks else f'"{section}.{name}" must be') in err


def test_grid_override(tmp_path):
    cfg = write_cfg(tmp_path, {"structure": BASE_STRUCTURE})
    code = cli.main(
        ["validate", "--config", cfg, "--out", str(tmp_path),
         "--grid-override", "8,8,8,8"]
    )
    assert code == 0


def test_analyze_writes_fields_and_report(tmp_path):
    doc = {
        "structure": BASE_STRUCTURE,
        "analyze": {"potential": "builtin:mix_y1_x2", "scale": 0.01,
                    "dump_fields": True},
    }
    cfg = write_cfg(tmp_path, doc)
    code = cli.main(["analyze", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "potential_report.json").read_text())
    assert report["F_integral"] == pytest.approx(1.0, abs=1e-12)
    F, deg = serialize.read_field(tmp_path / "F_field.bin")
    assert deg == 0 and F.shape == (12, 12, 12, 12)
    assert (tmp_path / "F_field.csv").exists()
    assert (tmp_path / "phi_field.bin").exists()


def test_analyze_margin_is_the_same_with_and_without_amplitude(tmp_path, monkeypatch):
    """The margin read off the amplitude direction and the slab margin (here
    over three slabs) write the same number."""
    monkeypatch.setattr(cy, "SLAB_POINTS", 5 * 12**3)
    reports = {}
    for amplitude in (False, True):
        out = tmp_path / str(amplitude)
        doc = {"structure": BASE_STRUCTURE,
               "analyze": {"potential": "builtin:mix_y1_x2", "scale": 0.05,
                           "amplitude": amplitude}}
        code = cli.main(["analyze", "--config", write_cfg(tmp_path, doc),
                         "--out", str(out)])
        assert code == 0
        reports[amplitude] = json.loads((out / "potential_report.json").read_text())
    assert reports[False]["amplitude"] is None
    assert reports[True]["amplitude"] > 0.0
    assert reports[True]["margin"] == reports[False]["margin"]


def test_analyze_rejects_a_cut_potential_file(tmp_path, capsys):
    """A file: potential cut inside its header is a validation error (2),
    reported on one line, not a traceback."""
    path = tmp_path / "phi.bin"
    serialize.write_field(path, np.zeros((12, 12, 12, 12)))
    path.write_bytes(path.read_bytes()[:20])
    doc = {"structure": BASE_STRUCTURE, "analyze": {"potential": f"file:{path}"}}
    code = cli.main(["analyze", "--config", write_cfg(tmp_path, doc),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "truncated inside its header" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "no_such.json"
    code = cli.main(["validate", "--config", str(missing), "--out", str(tmp_path)])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_missing_potential_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.bin"
    doc = {"structure": BASE_STRUCTURE, "analyze": {"potential": f"file:{missing}"}}
    code = cli.main(["analyze", "--config", write_cfg(tmp_path, doc),
                     "--out", str(tmp_path), "--grid-override", "8,8,8,8"])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_boundary_on_integrable_structure_exit_code(tmp_path, capsys):
    """select_seed raises NoSeedError on the standard structure: exit 3."""
    doc = {"structure": {"kind": "standard", "n": 2, "resolution": [8] * 4}}
    code = cli.main(["boundary", "--config", write_cfg(tmp_path, doc),
                     "--out", str(tmp_path)])
    assert code == 3
    assert "NoSeedError" in capsys.readouterr().err


def test_solve_newton_out_of_iterations_exit_code(tmp_path):
    """One Newton step does not reach the tolerance: exit 5, with the
    report of the unconverged solve written."""
    doc = {
        "structure": dict(BASE_STRUCTURE, resolution=[8] * 4),
        "solve": {"target": "manufactured", "potential": "builtin:prod_x2_y1",
                  "scale": 0.01, "method": "newton", "tol": 1e-9, "max_iter": 1},
    }
    code = cli.main(["solve", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 5
    assert json.loads((tmp_path / "solve_report.json").read_text())["converged"] is False


def test_solve_non_finite_target_exit_code(tmp_path, capsys):
    """A file: target holding one NaN is a precondition failure (3), not a
    converged solve."""
    f = np.ones((8,) * 4)
    f[1, 2, 3, 4] = np.nan
    serialize.write_field(tmp_path / "f.bin", f)
    doc = {
        "structure": dict(BASE_STRUCTURE, resolution=[8] * 4),
        "solve": {"target": f"file:{tmp_path / 'f.bin'}", "method": "newton"},
    }
    code = cli.main(["solve", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path)])
    assert code == 3
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "solve_report.json").exists()


def test_boundary_writes_unit_mass_witness(tmp_path):
    doc = {
        "structure": BASE_STRUCTURE,
        "boundary": {"R_list": [4, 8, 12], "dump_fields": True},
    }
    cfg = write_cfg(tmp_path, doc)
    code = cli.main(["boundary", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "boundary_report.json").read_text())
    assert report["minF"] > 0.0
    f, deg = serialize.read_field(tmp_path / "witness_F.bin")
    assert deg == 0 and f.shape == (12, 12, 12, 12)
    assert f.min() > 0.0
    s = cli.build_structure_from_config(json.loads(open(cfg).read()))
    assert forms.integrate(s, f) == pytest.approx(1.0, abs=1e-12)


def test_solve_newton_roundtrip(tmp_path):
    doc = {
        "structure": BASE_STRUCTURE,
        "solve": {"target": "manufactured", "potential": "builtin:prod_x2_y1",
                  "scale": 0.01, "method": "newton", "tol": 1e-9},
    }
    cfg = write_cfg(tmp_path, doc)
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "solve_report.json").read_text())
    assert rep["converged"] is True
    assert rep["residual"] < 1e-9
    phi, _ = serialize.read_field(tmp_path / "phi_solution.bin")
    trace = (tmp_path / "solve_trace.csv").read_text().splitlines()
    assert trace[0] == "iter,residual,margin,step,lin_res,eta"
    assert len(trace) >= 2
    assert np.abs(phi).max() > 0


def test_solve_unknown_method_exit_code(tmp_path):
    doc = {"structure": BASE_STRUCTURE, "solve": {"method": "sor"}}
    cfg = write_cfg(tmp_path, doc)
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2


def test_potential_file_roundtrip(tmp_path):
    """file: potentials feed a previously saved field back in."""
    from conftest import make_twisted

    s = make_twisted([12] * 4)
    X = s.chart.grid_points()
    phi = 0.01 * np.sin(2 * np.pi * X[..., 0])
    serialize.write_field(tmp_path / "phi.bin", phi)
    got = cli._resolve_potential(f"file:{tmp_path / 'phi.bin'}", s, 1.0)
    np.testing.assert_array_equal(got, phi)
    with pytest.raises(ConfigurationError):
        cli._resolve_potential("builtin:nope", s, 1.0)
    with pytest.raises(ConfigurationError):
        cli._resolve_potential("magic", s, 1.0)


def test_parse_config_rejects_missing_structure(tmp_path):
    cfg = write_cfg(tmp_path, {"analyze": {}})
    with pytest.raises(ConfigurationError):
        cli.parse_config(cfg)


ERROR_CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(c, errors.AkcyError)]


@pytest.mark.parametrize("exc", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_of_every_error_class(exc):
    """akcy.errors' mapping: PreconditionError and its subclasses exit 3,
    NumericalError and its subclasses 5, every other AkcyError 2."""
    want = (3 if issubclass(exc, errors.PreconditionError)
            else 5 if issubclass(exc, errors.NumericalError) else 2)
    assert cli._exit_code_for(exc("message")) == want
