"""Evaluate margin weighting functions on (y, z) grids and emit CSV.

A margin weighting function is an association measure restricted to a
plane of constant odds-ratio, viewed as a function of the margin
coordinates (y, z).  The emitted CSV (header ``y,z,value``) is the raw
data behind contour/heatmap plots.

Each value is the measure's one kernel on the cells, logs and x that
``tables.psi_cells`` gives at its point, ``eval_in_coords`` there.
Transposing the markers swaps y and z and leaves every measure, and the
kernels keep that to the last bit, so the grid is symmetric.  The axis is
centred on 0, so a grid also equals its point reflection (y, z) -> (-y, -z)
to the bit.  ``_walk``, the one walk over a grid, uses both: it runs the
kernel on about a quarter of the cells, copies the others of the first half
of the grid from their transposes and anti-transposes, and builds each row
past the middle as its mirror row reversed.  ``grid_blocks`` runs it on the
floats; ``emit_grid`` runs it on formatted value fields, so it formats only
the cells that the kernel computes.  ``GridSpec`` accepts at most 2^18
points a side, so every grid streams in the memory of a few rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

# eval_in_coords, evaluate and psi are the one-point forms of what _walk
# computes a block of rows at a time; perfbench/tracing.py wraps them here.
from .measures import MeasureKind, checked_kind, eval_in_coords, evaluate
from .tables import psi, real

__all__ = ["GridSpec", "grid_axis", "grid_blocks", "emit_grid"]

# Cells per block: _walk calls the kernel, and emit_grid orjson, once per
# block of this many cells (at least one row).  Twice as many saved a few
# percent of grid time but raised peak memory by about 2 MB more.
_BLOCK_CELLS = 4096

# Cells of the grid's first rows that _walk keeps to copy their transposes
# and mirrors from (2 MB of float64 in grid_blocks; in emit_grid, 2 MB of
# pointers and about 50 bytes a formatted field): the first half of the grid up
# to 724 points a side, fewer rows of a larger one.
# GridSpec accepts at most _MAX_POINTS points a side, so that one row fits in
# as many.
_KEPT_CELLS = 2**18
_MAX_POINTS = _KEPT_CELLS


@dataclass(frozen=True)
class GridSpec:
    """Rectangular symmetric (y, z) grid for one measure at one odds-ratio."""

    measure: MeasureKind
    odds_ratio: float
    half_width: float
    step: float

    def __post_init__(self):
        checked_kind(self.measure)
        for name in ("odds_ratio", "half_width", "step"):
            object.__setattr__(self, name, real(getattr(self, name)))
        if not (math.isfinite(self.odds_ratio) and self.odds_ratio > 0.0):
            raise ValueError(f"odds_ratio must be > 0, got {self.odds_ratio!r}")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be > 0, got {self.half_width!r}")
        if not (math.isfinite(self.step) and 0.0 < self.step <= 2.0 * self.half_width):
            raise ValueError(f"step must be in (0, 2*half_width], got {self.step!r}")
        if not _point_count(self) <= _MAX_POINTS:
            raise ValueError(f"at most {_MAX_POINTS} points a side, got half_width="
                             f"{self.half_width!r} and step={self.step!r}")


def _point_count(spec):
    """round(2 * half_width / step) + 1, or inf where the ratio overflows."""
    ratio = 2.0 * (spec.half_width / spec.step)
    return round(ratio) + 1 if math.isfinite(ratio) else math.inf


def grid_axis(spec):
    """_point_count(spec) points (i - (count - 1) / 2) * step: each point's
    mirror is on the axis to the bit, and so is 0.0 where the count is odd."""
    count = _point_count(spec)
    return [(i - (count - 1) / 2) * spec.step for i in range(count)]


def grid_blocks(spec):
    """Yield (ys, values) for each block of rows of the grid, in y order.

    A block is about _BLOCK_CELLS cells, at least one row; values has shape
    (len(ys), z count), y-major.  It is _walk on float64: the kernel's
    values as they are.
    """
    return _walk(spec, np.float64, lambda values: values)


def emit_grid(spec, sink):
    """Write the grid as CSV bytes (y-major) to a binary sink; return row count.

    Every field is the shortest round-trip decimal of its float, spelled as
    ``repr`` spells it, so output is byte-for-byte reproducible for a given
    spec.  One ``repr`` per value would take most of the run, so emit_grid
    runs _walk on numpy object arrays of formatted value fields: only the
    cells the kernel computes are formatted, by one ``orjson.dumps`` call
    per block whose Ryu formatter writes the same digits (see _repr_fields),
    and every other field is copied.  Each block is written by one
    ``b"".join``.  If a kernel fails, the output stops at the end of the
    last whole block.
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
    for ys, fields in _walk(spec, object, _field_array):
        line_parts[3 * fields.size :] = [b"\n"]  # the last block may be shorter
        for row, y in enumerate(ys):
            line = 3 * count * row
            line_parts[line : line + 3 * count : 3] = [f"\n{y!r},".encode("ascii")] * count
        line_parts[0] = line_parts[0][1:]
        line_parts[2:-1:3] = fields.ravel().tolist()
        sink.write(b"".join(line_parts))
    return count**2


def _field_array(values):
    """The _repr_fields of a float array, as an object array of its shape."""
    return np.array(_repr_fields(values.ravel()), dtype=object).reshape(values.shape)


def _walk(spec, dtype, finish):
    """Yield (ys, block) for each block of rows of the grid of spec, as an
    array of dtype elements: the one walk over a grid, and the one place
    that calls the kernel and says which cells are copied.

    The y and z axes are the same centred list, and every measure keeps both
    the transpose (y, z) -> (z, y) and the point reflection (y, z) -> (-y, -z),
    so with n points the value at (i, j) is also the value at (j, i),
    (n-1-i, n-1-j) and (n-1-j, n-1-i).  A block is _rows_per_block(n) rows.
    The grid's first rows are kept, at most half of them, the most that the
    copies below read, and at most _KEPT_CELLS cells.  copied = min(start,
    kept rows) kept rows come before a block.  A block row i >= mirrored =
    n - copied is its mirror row n - 1 - i reversed.  The rows before
    mirrored copy their columns j < copied transposed and their columns
    j >= n - copied through the anti-transpose (the transposed copy
    reversed on both axes).  The kernel runs once per block on the rest,
    the computed rows' y values as a column against the z axis between the
    copied columns as a row, its values are broadcast to those cells
    (lambda, Q, Y and Hdiag read x alone and give one value for a block),
    and finish turns that float array into the block's elements.  The
    cells of an orbit under these symmetries fail together, and the one in
    the earliest row of the orbit is computed, so a kernel that fails
    raises before the first block holding a failing cell is yielded.
    """
    x = 0.5 * math.log(spec.odds_ratio)
    axis = grid_axis(spec)
    count = len(axis)
    z = np.array(axis)
    kept = np.empty((min(count // 2, _KEPT_CELLS // count), count), dtype)
    rows_per_block = _rows_per_block(count)
    for start in range(0, count, rows_per_block):
        stop = min(start + rows_per_block, count)
        copied = min(start, len(kept))
        mirrored = min(stop, max(start, count - copied))
        block = np.empty((stop - start, count), dtype)
        computed = block[: mirrored - start]
        if len(computed):
            computed[:, :copied] = kept[:copied, start:mirrored].T
            computed[:, count - copied :] = kept[:copied][::-1, ::-1][:, start:mirrored].T
            values = spec.measure.on_coords(x, z[start:mirrored, np.newaxis], z[copied : count - copied])
            shape = (mirrored - start, count - 2 * copied)
            computed[:, copied : count - copied] = finish(np.broadcast_to(values, shape))
        block[mirrored - start :] = kept[count - stop : count - mirrored][::-1, ::-1]
        if start < len(kept):
            kept[start:stop] = block[: len(kept) - start]
        yield axis[start:stop], block


def _rows_per_block(count):
    """Rows of count cells in one block of _walk."""
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
