"""Evaluate margin weighting functions on (y, z) grids and emit CSV.

A margin weighting function is an association measure restricted to a
plane of constant odds-ratio, viewed as a function of the margin
coordinates (y, z).  The emitted CSV (header ``y,z,value``) is the raw
data behind contour/heatmap plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# eval_in_coords, evaluate and psi are the one-point forms of what emit_grid
# computes a row at a time; perfbench/tracing.py wraps them here.
from .measures import MeasureKind, eval_in_coords, evaluate
from .tables import _EXP_FLOOR, psi

__all__ = ["GridSpec", "grid_axis", "emit_grid"]


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


def _psi_cells(x, y, z):
    """Cells of psi(MarginCoords(x, y, z)), broadcast over arrays."""
    exps = (x + y + z, y, z, x)
    m = np.maximum(np.maximum(exps[0], exps[1]), np.maximum(exps[2], exps[3]))
    weights = [np.exp(np.maximum(e - m, _EXP_FLOOR)) for e in exps]
    total = sum(weights)
    return [w / total for w in weights]


def emit_grid(spec, sink):
    """Write the grid as CSV bytes (y-major) to a binary sink; return row count.

    Values use shortest round-trip decimal formatting, so output is
    byte-for-byte reproducible for a given spec.  Measures with a closed
    margin-coordinate form use it; the others are evaluated on the table.
    """
    x = 0.5 * math.log(spec.odds_ratio)
    axis = grid_axis(spec)
    z = np.array(axis)
    kind = spec.measure
    z_fields = [f"{zv!r}," for zv in axis]

    sink.write(b"y,z,value\n")
    for y in axis:
        if kind.measure.coords is not None:
            values = kind.on_coords(x, y, z)
        else:
            values = kind.on_cells(*_psi_cells(x, y, z))
        values = np.broadcast_to(values, z.shape).tolist()
        y_field = f"{y!r},"
        lines = [f"{y_field}{zf}{v!r}\n" for zf, v in zip(z_fields, values)]
        sink.write("".join(lines).encode("ascii"))
    return len(axis) ** 2
