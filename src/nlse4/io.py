"""Bit-stable result serialization.

CSV files carry 17-significant-digit floats (full round-trip precision);
JSON summaries are written with sorted keys and no timestamps, so identical
runs produce byte-identical artifacts.  JSON has no NaN or infinity, so a
non-finite float (the measured value of a check that raised) is written to
a summary as ``null``; CSV keeps ``nan``.

Field snapshot binary layout (little-endian):

    offset  size  content
    0       8     magic b"NLSE4FLD"
    8       4     uint32 format version (1)
    12      4     uint32 dims (1 or 2)
    16      4     uint32 points per axis n
    20      8     float64 box length L
    28      4     uint32 dtype code (0 = complex128 as interleaved re/im)
    32      --    row-major samples, re/im interleaved float64 (the memory
                  layout of little-endian complex128); 32 + 16 n^dims bytes in all
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .spectral import Grid, make_grid

SNAPSHOT_MAGIC = b"NLSE4FLD"
SNAPSHOT_VERSION = 1
REPORT_FORMAT_VERSION = 1


def fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def axis_columns(names, dims: int) -> list:
    """Per-axis column names: bare in 1D, ``_x``/``_y`` suffixed in 2D."""
    axes = [""] if dims == 1 else ["_x", "_y"]
    return [name + a for name in names for a in axes]


def observables_csv_columns(dims: int) -> list:
    cols = ["t", "norm", "E_L", "E_ME"]
    cols += axis_columns(("x_mean", "p_mean", "I1", "I2"), dims)
    cols.append("cont_residual")
    return cols


def observables_rows(samples, dims: int) -> list:
    rows = []
    for s in samples:
        row = [s.t, s.norm, s.e_l, s.e_me]
        row += list(s.x_mean) + list(s.p_mean) + list(s.i1) + list(s.i2)
        row.append(s.cont_residual)
        rows.append(row)
    return rows


def write_observables_csv(path, trajectory) -> None:
    dims = trajectory.grid.dims
    write_csv(path, observables_csv_columns(dims), observables_rows(trajectory.observables, dims))


def _finite_or_null(value):
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_summary(path, summary: dict) -> None:
    text = json.dumps(_finite_or_null(summary), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def write_field_snapshot(path, grid: Grid, field: np.ndarray) -> None:
    grid.validate_field(field)
    data = np.ascontiguousarray(field, dtype=np.complex128)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(np.uint32(SNAPSHOT_VERSION).tobytes())
        fh.write(np.uint32(grid.dims).tobytes())
        fh.write(np.uint32(grid.n).tobytes())
        fh.write(np.float64(grid.length).tobytes())
        fh.write(np.uint32(0).tobytes())
        fh.write(data.astype("<c16").tobytes())


def read_field_snapshot(path):
    raw = Path(path).read_bytes()
    if raw[:8] != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot file (bad magic)")
    version = int(np.frombuffer(raw, "<u4", 1, 8)[0])
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    dims = int(np.frombuffer(raw, "<u4", 1, 12)[0])
    n = int(np.frombuffer(raw, "<u4", 1, 16)[0])
    length = float(np.frombuffer(raw, "<f8", 1, 20)[0])
    dtype_code = int(np.frombuffer(raw, "<u4", 1, 28)[0])
    if dtype_code != 0:
        raise ValueError(f"unsupported dtype code {dtype_code}")
    grid = make_grid(dims, n, length)
    expected = 32 + 16 * grid.npoints
    if len(raw) != expected:
        raise ValueError(f"snapshot of a {dims}D grid with n = {n} must hold {expected} bytes, got {len(raw)}")
    field = np.frombuffer(raw, "<c16", grid.npoints, 32).astype(complex).reshape(grid.shape)
    return grid, field
