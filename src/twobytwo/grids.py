"""Evaluate margin weighting functions on (y, z) grids and emit CSV.

A margin weighting function is an association measure restricted to a
plane of constant odds-ratio, viewed as a function of the margin
coordinates (y, z).  The emitted CSV (header ``y,z,value``) is the raw
data behind contour/heatmap plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
import orjson

# eval_in_coords, evaluate and psi are the one-point forms of what grid_rows
# computes a block of rows at a time; perfbench/tracing.py wraps them here.
from .measures import MeasureKind, eval_in_coords, evaluate
from .tables import psi, psi_cells

__all__ = ["GridSpec", "grid_axis", "grid_rows", "emit_grid"]

# Cells per block: grid_rows calls the kernel, and emit_grid orjson, once per
# block of this many cells (at least one row).  Twice as many saved a few
# percent of grid time but raised peak memory by about 2 MB more.
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class GridSpec:
    """Rectangular symmetric (y, z) grid for one measure at one odds-ratio."""

    measure: MeasureKind
    odds_ratio: float
    half_width: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.odds_ratio) and self.odds_ratio > 0.0):
            raise ValueError(f"odds_ratio must be > 0, got {self.odds_ratio!r}")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be > 0, got {self.half_width!r}")
        if not (math.isfinite(self.step) and 0.0 < self.step <= 2.0 * self.half_width):
            raise ValueError(
                f"step must be in (0, 2*half_width], got {self.step!r}"
            )
        if not math.isfinite(2.0 * self.half_width / self.step):
            raise ValueError(
                f"point count 2*half_width/step must be finite, got"
                f" half_width={self.half_width!r} and step={self.step!r}"
            )


def grid_axis(spec):
    """Grid coordinates from -half_width to +half_width, both ends included."""
    count = int(round(2.0 * spec.half_width / spec.step)) + 1
    return [-spec.half_width + i * spec.step for i in range(count)]


def grid_rows(spec):
    """Yield (y, values) for each y of the grid, values over the z axis.

    The kernel runs once per block of rows, about _BLOCK_CELLS cells, on the
    block's y values as a column against the z row; values is a row of its
    result, broadcast to the z axis.  Measures with a closed
    margin-coordinate form use it; the others are evaluated on the table.
    A kernel that fails raises before the first row of its block.
    """
    x = 0.5 * math.log(spec.odds_ratio)
    axis = grid_axis(spec)
    z = np.array(axis)
    kind = spec.measure
    rows_per_block = _rows_per_block(len(axis))
    for start in range(0, len(axis), rows_per_block):
        ys = axis[start : start + rows_per_block]
        y = np.array(ys)[:, np.newaxis]
        if kind.measure.coords is not None:
            block = kind.on_coords(x, y, z)
        else:
            block = kind.on_cells(*psi_cells(x, y, z))
        yield from zip(ys, np.broadcast_to(block, (len(ys), len(axis))))


def emit_grid(spec, sink):
    """Write the grid as CSV bytes (y-major) to a binary sink; return row count.

    Every field is the shortest round-trip decimal of its float, spelled as
    ``repr`` spells it, so output is byte-for-byte reproducible for a given
    spec.  One ``repr`` per value would take most of the run, so the rows of
    grid_rows are taken in blocks of about _BLOCK_CELLS cells: the values of
    a block are formatted by one ``orjson.dumps`` call, whose Ryu formatter
    writes the same digits (see _repr_fields), and the block is written by
    one ``b"".join``.  If a kernel fails, the output stops at the end of
    the last whole block.
    """
    axis = grid_axis(spec)
    count = len(axis)
    rows_per_block = _rows_per_block(count)
    # Each line is the four parts y, z, value and newline; z and the
    # newlines are the same in every block.
    line_parts = [b"\n"] * (4 * count * rows_per_block)
    line_parts[1::4] = [f"{z!r},".encode("ascii") for z in axis] * rows_per_block

    sink.write(b"y,z,value\n")
    rows = grid_rows(spec)
    while block := list(islice(rows, rows_per_block)):
        values = np.empty((len(block), count))
        y_fields = []
        for i, (y, row) in enumerate(block):
            values[i] = row
            y_fields += [f"{y!r},".encode("ascii")] * count
        del line_parts[4 * values.size :]  # the last block may be shorter
        line_parts[0::4] = y_fields
        line_parts[2::4] = _repr_fields(values.ravel())
        sink.write(b"".join(line_parts))
    return count**2


def _rows_per_block(count):
    """Rows of count cells in one block of grid_rows and emit_grid."""
    return max(1, _BLOCK_CELLS // count)


def _repr_fields(values):
    """``repr(v).encode()`` of each v of a 1-d float array (see emit_grid).

    orjson writes the digits repr writes, and spells most values the same
    way.  A mask on the values selects the fields it spells otherwise, and
    only those are fixed: for 1e-9 <= |v| < 1e-5 the one-digit exponent
    ``e-7`` becomes ``e-07``; for |v| >= 1e16 ``e16`` becomes ``e+16``; for
    1e-5 <= |v| < 1e-4, written positionally, ``0.000012`` becomes
    ``1.2e-05``; non-finite values, written ``null``, take ``repr``.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    fields = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    magnitude = np.abs(values)
    for i in np.flatnonzero((magnitude >= 1e-9) & (magnitude < 1e-5)).tolist():
        fields[i] = fields[i].replace(b"e-", b"e-0")
    for i in np.flatnonzero((magnitude >= 1e16) & (magnitude < math.inf)).tolist():
        fields[i] = fields[i].replace(b"e", b"e+")
    for i in np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e-4)).tolist():
        sign, _, digits = fields[i].partition(b"0.0000")
        point = b"." if len(digits) > 1 else b""
        fields[i] = sign + digits[:1] + point + digits[1:] + b"e-05"
    non_finite = np.flatnonzero(~np.isfinite(values))
    for i, v in zip(non_finite.tolist(), values[non_finite].tolist()):
        fields[i] = repr(v).encode("ascii")
    return fields
