"""Evaluate margin weighting functions on (y, z) grids and emit CSV.

A margin weighting function is an association measure restricted to a
plane of constant odds-ratio, viewed as a function of the margin
coordinates (y, z).  The emitted CSV (header ``y,z,value``) is the raw
data behind contour/heatmap plots.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import orjson

# eval_in_coords, evaluate and psi are the one-point forms of what grid_rows
# computes a row at a time; perfbench/tracing.py wraps them here.
from .measures import MeasureKind, eval_in_coords, evaluate
from .tables import psi, psi_cells

__all__ = ["GridSpec", "grid_axis", "grid_rows", "emit_grid"]

_ONE_DIGIT_NEGATIVE_EXPONENT = re.compile(rb"e-(\d)\b")
_POSITIVE_EXPONENT = re.compile(rb"e(\d)")


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


def grid_axis(spec):
    """Grid coordinates from -half_width to +half_width, both ends included."""
    count = int(round(2.0 * spec.half_width / spec.step)) + 1
    return [-spec.half_width + i * spec.step for i in range(count)]


def grid_rows(spec):
    """Yield (y, values) for each y of the grid, values over the z axis.

    Measures with a closed margin-coordinate form use it; the others are
    evaluated on the table.  values is the kernel's result as it is, so a
    measure that is constant on the plane gives one scalar per row.
    """
    x = 0.5 * math.log(spec.odds_ratio)
    axis = grid_axis(spec)
    z = np.array(axis)
    kind = spec.measure
    for y in axis:
        if kind.measure.coords is not None:
            yield y, kind.on_coords(x, y, z)
        else:
            yield y, kind.on_cells(*psi_cells(x, y, z))


def emit_grid(spec, sink):
    """Write the grid as CSV bytes (y-major) to a binary sink; return row count.

    Every field is the shortest round-trip decimal of its float, spelled as
    ``repr`` spells it, so output is byte-for-byte reproducible for a given
    spec.  One ``repr`` per value would take most of the run, so the values
    of a row are formatted by one ``orjson.dumps`` call, whose Ryu formatter
    writes the same digits.  Two fix-ups give ``repr``'s spelling: the
    exponents ``e-7`` and ``e16`` become ``e-07`` and ``e+16``, and the
    values orjson spells another way keep ``repr``: 1e-5 <= |v| < 1e-4,
    written positionally (``0.00001``), and non-finite ones, written
    ``null``.
    """
    axis = grid_axis(spec)
    count = len(axis)
    # Each line is the four parts y, z, value and newline; z and the
    # newlines are the same on every row.
    line_parts = [b"\n"] * (4 * count)
    line_parts[1::4] = [f"{z!r},".encode("ascii") for z in axis]

    sink.write(b"y,z,value\n")
    for y, values in grid_rows(spec):
        line_parts[0::4] = [f"{y!r},".encode("ascii")] * count
        line_parts[2::4] = _repr_fields(np.broadcast_to(values, (count,)))
        sink.write(b"".join(line_parts))
    return count**2


def _repr_fields(values):
    """``repr(float(v)).encode()`` of each v of a 1-d float array (see emit_grid)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    text = _POSITIVE_EXPONENT.sub(rb"e+\1", _ONE_DIGIT_NEGATIVE_EXPONENT.sub(rb"e-0\1", text))
    fields = text[1:-1].split(b",")
    magnitude = np.abs(values)
    keeps_repr = ~np.isfinite(values) | ((magnitude >= 1e-5) & (magnitude < 1e-4))
    for i in np.flatnonzero(keeps_repr).tolist():
        fields[i] = repr(float(values[i])).encode("ascii")
    return fields
