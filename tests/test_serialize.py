import csv
import json

import numpy as np
import pytest

from akcy import serialize as sz
from akcy.errors import ConfigurationError


def test_scalar_field_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((6, 5, 4))
    p = tmp_path / "f.bin"
    sz.write_field(p, vals)
    back, degree = sz.read_field(p)
    assert degree == 0
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, vals)


def test_complex_form_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((4, 3, 3, 3)) + 1j * rng.standard_normal((4, 3, 3, 3))
    p = tmp_path / "form.bin"
    sz.write_field(p, vals, degree=1)
    back, degree = sz.read_field(p)
    assert degree == 1
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back, vals)


def test_read_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTAFLD0" + b"\x00" * 64)
    with pytest.raises(ConfigurationError):
        sz.read_field(p)


def test_read_rejects_truncated_file(tmp_path):
    p = tmp_path / "f.bin"
    sz.write_field(p, np.ones((8, 8)))
    data = p.read_bytes()
    # cut inside the payload, inside the dims, inside the fixed header;
    # then bytes past the declared payload
    for bad in (data[: len(data) - 16], data[:30], data[:12], data + b"\x00" * 8):
        p.write_bytes(bad)
        with pytest.raises(ConfigurationError):
            sz.read_field(p)


def test_csv_export_and_cap(tmp_path):
    vals = np.arange(12.0).reshape(3, 4)
    p = tmp_path / "f.csv"
    sz.field_to_csv(p, vals)
    with open(p) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i0", "i1", "component", "value"]
    assert len(rows) == 13
    assert float(rows[1][-1]) == 0.0
    assert float(rows[-1][-1]) == 11.0
    with pytest.raises(ConfigurationError):
        sz.field_to_csv(tmp_path / "big.csv", np.zeros((300, 300)))


def test_write_report_handles_numpy_scalars(tmp_path):
    p = tmp_path / "r.json"
    sz.write_report(p, {"a": np.float64(1.5), "b": np.int32(3), "ok": np.True_,
                        "v": np.arange(3)})
    doc = json.loads(p.read_text())
    assert doc == {"a": 1.5, "b": 3, "ok": True, "v": [0, 1, 2]}


def test_write_trace_csv(tmp_path):
    p = tmp_path / "t.csv"
    sz.write_trace_csv(p, ["iter", "res"], [(1, np.float64(0.5)), (2, 0.25)])
    with open(p) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["iter", "res"], ["1", "0.5"], ["2", "0.25"]]
