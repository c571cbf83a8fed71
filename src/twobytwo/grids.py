"""Evaluate margin weighting functions on (y, z) grids and emit CSV.

A margin weighting function is an association measure restricted to a
plane of constant odds-ratio, viewed as a function of the margin
coordinates (y, z).  The emitted CSV (header ``y,z,value``) is the raw
data behind contour/heatmap plots.

Each value is the measure's one kernel on the cells, logs and x that
``tables.psi_cells`` gives at its point: ``eval_in_coords``, ``evaluate``
of ``psi``, there.  Transposing the markers swaps y and z and leaves every
measure, and the kernels keep that to the last bit, so the grid is
symmetric: ``grid_blocks`` runs the kernel on one cell of each pair (y, z),
(z, y) and copies the other.  The axis is centred on 0, so a grid also
equals its point reflection (y, z) -> (-y, -z) to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

# eval_in_coords, evaluate and psi are the one-point forms of what grid_blocks
# computes a block of rows at a time; perfbench/tracing.py wraps them here.
from .measures import MeasureKind, eval_in_coords, evaluate
from .tables import psi, real

__all__ = ["GridSpec", "grid_axis", "grid_blocks", "emit_grid"]

# Cells per block: grid_blocks calls the kernel, and emit_grid orjson, once per
# block of this many cells (at least one row).  Twice as many saved a few
# percent of grid time but raised peak memory by about 2 MB more.
_BLOCK_CELLS = 4096

# Cells of the grid's first rows that grid_blocks keeps to copy their
# transposes from (2 MB of float64): the whole grid up to 512 points a side,
# fewer rows of a larger one, so a grid of any size streams in bounded memory.
_KEPT_CELLS = 2**18

# Most points on one grid axis: the largest length numpy can index.
_MAX_POINTS = np.iinfo(np.intp).max


@dataclass(frozen=True)
class GridSpec:
    """Rectangular symmetric (y, z) grid for one measure at one odds-ratio."""

    measure: MeasureKind
    odds_ratio: float
    half_width: float
    step: float

    def __post_init__(self):
        for name in ("odds_ratio", "half_width", "step"):
            object.__setattr__(self, name, real(getattr(self, name)))
        if not (math.isfinite(self.odds_ratio) and self.odds_ratio > 0.0):
            raise ValueError(f"odds_ratio must be > 0, got {self.odds_ratio!r}")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be > 0, got {self.half_width!r}")
        if not (math.isfinite(self.step) and 0.0 < self.step <= 2.0 * self.half_width):
            raise ValueError(
                f"step must be in (0, 2*half_width], got {self.step!r}"
            )
        # grid_axis builds a list of this many floats per axis.
        if not 2.0 * (self.half_width / self.step) + 1.0 <= _MAX_POINTS:
            raise ValueError(
                f"point count 2*half_width/step + 1 must be at most {_MAX_POINTS},"
                f" got half_width={self.half_width!r} and step={self.step!r}"
            )


def grid_axis(spec):
    """round(2 * half_width / step) + 1 coordinates (i - (count - 1) / 2) * step:
    the ends are +-(count - 1) * step / 2, each point's mirror is on the axis
    to the bit, and so is 0.0 where the count is odd."""
    count = round(2.0 * (spec.half_width / spec.step)) + 1
    return [(i - (count - 1) / 2) * spec.step for i in range(count)]


def grid_blocks(spec):
    """Yield (ys, values) for each block of rows of the grid, in y order.

    A block is about _BLOCK_CELLS cells, at least one row; values has shape
    (len(ys), z count), y-major.  The y and z axes are the same list and
    every measure is symmetric in y and z, so the value at (i, j) is the
    value at (j, i).  The grid's first rows, up to _KEPT_CELLS cells, are
    kept.  A block that starts at row s copies its columns j < min(s, kept
    rows) from them, transposed, and runs the kernel once on the rest: the
    block's y values as a column against the z axis from that column on as
    a row.  A cell and its transpose fail together, and the one in the
    earlier row is computed, so a kernel that fails raises before the first
    block holding a failing cell is yielded.
    """
    x = 0.5 * math.log(spec.odds_ratio)
    axis = grid_axis(spec)
    count = len(axis)
    z = np.array(axis)
    kept = np.empty((min(count, _KEPT_CELLS // count), count))
    rows_per_block = _rows_per_block(count)
    for start in range(0, count, rows_per_block):
        stop = min(start + rows_per_block, count)
        copied = min(start, len(kept))
        block = np.empty((stop - start, count))
        block[:, :copied] = kept[:copied, start:stop].T
        block[:, copied:] = spec.measure.on_coords(x, z[start:stop, np.newaxis], z[copied:])
        if start < len(kept):
            kept[start:stop] = block[: len(kept) - start]
        yield axis[start:stop], block


def emit_grid(spec, sink):
    """Write the grid as CSV bytes (y-major) to a binary sink; return row count.

    Every field is the shortest round-trip decimal of its float, spelled as
    ``repr`` spells it, so output is byte-for-byte reproducible for a given
    spec.  One ``repr`` per value would take most of the run, so each block
    of grid_blocks is formatted as it arrives: its values by one
    ``orjson.dumps`` call, whose Ryu formatter writes the same digits (see
    _repr_fields), and the block is written by one ``b"".join``.  If a
    kernel fails, the output stops at the end of the last whole block.
    """
    axis = grid_axis(spec)
    count = len(axis)
    rows_per_block = _rows_per_block(count)
    # Each line is the three parts y, z and value; the y part carries the
    # newline that ends the line before it, and one more newline ends the
    # block, so a block's bytes end with its last newline.  z is the same in
    # every block.
    line_parts = [b"\n"] * (3 * count * rows_per_block + 1)
    line_parts[1:-1:3] = [f"{z!r},".encode("ascii") for z in axis] * rows_per_block

    sink.write(b"y,z,value\n")
    for ys, values in grid_blocks(spec):
        line_parts[3 * values.size :] = [b"\n"]  # the last block may be shorter
        for row, y in enumerate(ys):
            line = 3 * count * row
            line_parts[line : line + 3 * count : 3] = [f"\n{y!r},".encode("ascii")] * count
        line_parts[0] = line_parts[0][1:]
        line_parts[2::3] = _repr_fields(values.ravel())
        sink.write(b"".join(line_parts))
    return count**2


def _rows_per_block(count):
    """Rows of count cells in one block of grid_blocks and emit_grid."""
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
