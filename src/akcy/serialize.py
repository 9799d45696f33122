"""Flat binary serialization for grid fields, CSV export for small grids,
and JSON report writing.

Binary layout: an 8-byte magic, a little-endian uint32 header
(version, ndim, degree, ncomp, dtype tag, then the grid dims), followed by
the row-major coefficient bytes.  Degree 0 fields have ncomp = 1 and no
component axis; higher-degree fields store the component axis first, matching
the in-memory layout used everywhere else.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "write_field",
    "read_field",
    "field_to_csv",
    "write_report",
    "write_trace_csv",
]

_MAGIC = b"AKFLD001"
_VERSION = 1
_DTYPE_TAGS = {0: np.dtype("<f8"), 1: np.dtype("<c16")}
_TAG_OF = {np.dtype(np.float64): 0, np.dtype(np.complex128): 1}

CSV_MAX_POINTS = 1 << 16


def write_field(path, values, degree=0):
    """Write a grid field (degree 0 scalar, or component-axis-first form
    coefficients) to the flat binary layout."""
    arr = np.ascontiguousarray(values)
    if arr.dtype not in _TAG_OF:
        arr = np.ascontiguousarray(
            arr, dtype=complex if np.iscomplexobj(arr) else float
        )
    tag = _TAG_OF[arr.dtype]
    if degree == 0:
        ncomp = 1
        grid_shape = arr.shape
    else:
        ncomp = arr.shape[0]
        grid_shape = arr.shape[1:]
    header = struct.pack(
        "<5I", _VERSION, len(grid_shape), int(degree), ncomp, tag
    ) + struct.pack(f"<{len(grid_shape)}I", *grid_shape)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header)
        fh.write(arr.astype(_DTYPE_TAGS[tag], copy=False).tobytes())


def read_field(path):
    """Read a field written by write_field; returns (values, degree).

    A file cut short, or carrying bytes past the payload its header
    declares, is rejected, as is a path that cannot be opened."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigurationError(f"cannot read field file {path}: {exc.strerror}")
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(8) != _MAGIC:
            raise ConfigurationError(f"{path} is not a field file (bad magic)")
        if size < 28:
            raise ConfigurationError(f"{path} is truncated inside its header")
        version, ndim, degree, ncomp, tag = struct.unpack("<5I", fh.read(20))
        if version != _VERSION:
            raise ConfigurationError(f"unsupported field file version {version}")
        if tag not in _DTYPE_TAGS:
            raise ConfigurationError(f"unknown dtype tag {tag}")
        offset = 28 + 4 * ndim
        if size < offset:
            raise ConfigurationError(f"{path} is truncated inside its header")
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        shape = dims if degree == 0 else (ncomp,) + dims
        count = math.prod(shape)
        if size - offset != count * _DTYPE_TAGS[tag].itemsize:
            raise ConfigurationError(f"{path} is truncated or has bytes past its payload")
        data = np.fromfile(fh, dtype=_DTYPE_TAGS[tag], count=count)
    return data.reshape(shape), int(degree)


def field_to_csv(path, values, degree=0):
    """Dump a small grid field as CSV rows (grid index..., component, value)."""
    arr = np.asarray(values)
    grid_shape = arr.shape if degree == 0 else arr.shape[1:]
    npts = int(np.prod(grid_shape))
    if npts > CSV_MAX_POINTS:
        raise ConfigurationError(
            f"grid has {npts} points; CSV export capped at {CSV_MAX_POINTS}"
        )
    ndim = len(grid_shape)
    idx = np.indices(grid_shape).reshape(ndim, -1).T.tolist()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = [f"i{d}" for d in range(ndim)] + ["component", "value"]
        if np.iscomplexobj(arr):
            header += ["value_imag"]
        w.writerow(header)
        comps = arr[None] if degree == 0 else arr
        for c in range(comps.shape[0]):
            flat = comps[c].ravel()
            cols = (flat.real, flat.imag) if np.iscomplexobj(arr) else (flat,)
            vals = zip(*(col.astype(float).tolist() for col in cols))
            w.writerows(i + [c, *v] for i, v in zip(idx, vals))


def write_report(path, report):
    """Write a report (dict or object with as_dict) as pretty JSON."""
    doc = report.as_dict() if hasattr(report, "as_dict") else dict(report)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def write_trace_csv(path, header, rows):
    """Write an iteration/diagnostic trace as CSV for external plotting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_scalar(v) for v in row])


def _scalar(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v
