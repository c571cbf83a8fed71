"""Core types for 2x2 probability tables and margin-transformation coordinates.

A table lives on the open manifold of strictly positive 2x2 probability
distributions.  Multiplying a row and a column by positive scalars and
renormalising ("margin transformation") preserves the odds-ratio; the
coordinate maps ``theta``/``psi`` turn that structure into plain 3-space,
with the x-axis carrying log-sqrt-odds-ratio and (y, z) parameterising the
margins.  ``ray_limit`` describes what happens on the boundary when cells
are driven to zero along a straight ray in coordinate space.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DegenerateTable",
    "ProbTable",
    "MarginCoords",
    "BoundaryKind",
    "BoundaryClass",
    "make_table",
    "margin_transform",
    "theta",
    "psi",
    "psi_cells",
    "log_cells",
    "cell_total",
    "cells_and_logs",
    "half_log_odds",
    "symmetry_apply",
    "ray_limit",
]


class DegenerateTable(ValueError):
    """Table weights (or transformation scalars) are not finite and > 0."""


# Smallest exponent passed to np.exp that still yields a positive double.
# Keeps psi() total on |x|,|y|,|z| <= 500: dominated cells underflow to the
# smallest subnormal instead of 0, so the result stays on the open manifold.
_EXP_FLOOR = -744.0

# The smallest positive double, where cells_and_logs floors an underflowing cell.
_CELL_FLOOR = 5e-324

# Up to this |coordinate| no step of psi_cells overflows: an exponent is at
# most 1.5 times it, so the log-ratio of two cells at most 3 times.
_PSI_NO_OVERFLOW = 2.0**1022

_CELL_NAMES = ("p00", "p01", "p10", "p11")


def _check_positive(value, what):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DegenerateTable(f"{what} must be a positive real, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DegenerateTable(f"{what} must be finite and > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class ProbTable:
    """Strictly positive 2x2 probability table, renormalised on construction.

    Raw positive weights are accepted (e.g. counts plus pseudocounts); the
    constructor divides by their ``cell_total``, so entries are proportional
    to the inputs and sum to 1.  ``logs``, which the measures and ``theta``
    read, holds ``log_cells`` of the weights: the natural logs of the
    normalised cells, exact where a cell rounds to 1 or to a subnormal.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        weights = [_check_positive(v, f"cell {n}") for n, v in zip(_CELL_NAMES, self.cells)]
        if not math.isfinite(cell_total(weights)):
            raise DegenerateTable(f"cells do not have a finite positive sum: {weights}")
        _set_cells(self, *(v.tolist() for v in cells_and_logs(np.array(weights))))

    @property
    def cells(self):
        return (self.p00, self.p01, self.p10, self.p11)

    # Margins p_i. (rows) and p_.j (columns).
    @property
    def row0(self):
        return self.p00 + self.p01

    @property
    def row1(self):
        return self.p10 + self.p11

    @property
    def col0(self):
        return self.p00 + self.p10

    @property
    def col1(self):
        return self.p01 + self.p11

    @property
    def det(self):
        """Additive deviation from independence: p00*p11 - p01*p10."""
        return self.p00 * self.p11 - self.p01 * self.p10


@dataclass(frozen=True)
class MarginCoords:
    """Coordinates (x, y, z) of an interior table, natural-log scale."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"coordinate {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)


class BoundaryKind(Enum):
    VERTEX_SINGLE_ONE = "vertex_single_one"
    FACE_SINGLE_ZERO = "face_single_zero"
    DIAGONAL_EDGE_MAIN = "diagonal_edge_main"
    DIAGONAL_EDGE_ANTI = "diagonal_edge_anti"
    VANISHING_ROW = "vanishing_row"
    VANISHING_COLUMN = "vanishing_column"


@dataclass(frozen=True)
class BoundaryClass:
    """Stratum of the table-boundary reached by a ray limit."""

    kind: BoundaryKind
    detail: str


make_table = ProbTable


def _set_cells(table, cells, logs):
    """Set a frozen table's normalised cells and their logs as they are; return it."""
    table.__dict__.update(zip(_CELL_NAMES, cells), logs=tuple(logs))
    return table


def margin_transform(t, mu, nu):
    """Multiply row 0 by mu, column 0 by nu, and renormalise.

    Maps (p00, p01; p10, p11) to (mu*nu*p00, mu*p01; nu*p10, p11) / norm: the
    translation (y, z) -> (y + ln mu, z + ln nu) at fixed x = ln sqrt(odds-ratio),
    so the table is ``psi`` of the shifted ``theta(t)``, with exact logs.
    """
    ln_mu, ln_nu = math.log(_check_positive(mu, "mu")), math.log(_check_positive(nu, "nu"))
    c = theta(t)
    return psi(MarginCoords(c.x, c.y + ln_mu, c.z + ln_nu))


def theta(t):
    """Coordinates of a table: x = ln sqrt(odds-ratio), plus margin axes y, z."""
    l00, l01, l10, l11 = t.logs
    # y and z from mirrored-cell differences, so that transposition swaps
    # them and a diagonal-symmetric table has y = z = 0 exactly.
    return MarginCoords(
        half_log_odds(t.logs),
        0.5 * ((l00 - l11) + (l01 - l10)),
        0.5 * ((l00 - l11) - (l01 - l10)),
    )


def psi_cells(x, y, z):
    """Cells and logs of the table proportional to (e^{x+y+z}, e^y; e^z, e^x).

    Returns ``(cells, logs)``, two arrays of shape (4, ...); broadcasts over
    coordinate arrays; ``psi`` is the one-point form.  The maximal exponent is
    subtracted before exponentiation and dominated weights are floored at
    exp(_EXP_FLOOR), so coordinates with |x|, |y|, |z| <= 500 never overflow
    or produce a zero cell; the logs are the exponents normalised by
    ``_log_total``, exact however small a cell.  The exponents are centred
    on (x + y + z) / 2 and written in halves of x, u = y + z and w = y - z,
    so that y <-> z swaps p01 and p10 and (y, z) -> (-y, -z) swaps p00 with
    p11 and p01 with p10 exactly.
    """
    hx, hy, hz = 0.5 * x, 0.5 * y, 0.5 * z
    hu, hw = hy + hz, hy - hz
    # In place: a new (4, ...) array per step doubled the time of a grid block.
    logs = np.array([hx + hu, hw - hx, -hx - hw, hx - hu])
    logs -= logs.max(axis=0)
    cells = np.exp(np.maximum(logs, _EXP_FLOOR))
    total = cell_total(cells)
    logs -= _log_total(cells)
    cells /= total
    return cells, logs


def cell_total(weights):
    """(w00 + w11) + (w01 + w10), a sum that every table symmetry keeps to the bit."""
    return (weights[0] + weights[3]) + (weights[1] + weights[2])


def cells_and_logs(weights):
    """Normalised cells, none below _CELL_FLOOR, and ``log_cells`` of (4, ...) weights."""
    cells = weights / cell_total(weights)
    return np.maximum(cells, _CELL_FLOOR, out=cells), log_cells(weights)


def half_log_odds(l):
    """x = ln sqrt(odds-ratio) = ((l00 + l11) - (l01 + l10)) / 2 of the log cells."""
    l00, l01, l10, l11 = l
    return 0.5 * ((l00 + l11) - (l01 + l10))


def log_cells(weights):
    """Natural logs of weights / sum(weights) for a (4, ...) array of weights.

    Taken relative to the largest weight (see _log_total), so that a cell
    holding all but 3e-300 of the mass gets -3e-300, not log(1.0) = 0.
    """
    logs = np.log(weights)
    logs -= logs.max(axis=0)
    logs -= _log_total(weights / weights.max(axis=0))
    return logs


def _log_total(weights):
    """log of the sum of a (4, ...) array of weights whose largest is exactly 1.

    log1p of the other three, found by min and max in the pairs (w00, w11)
    and (w01, w10), as they may sum to less than the rounding of 1.
    """
    pairs = weights[:2], weights[3:1:-1]
    low, high = np.minimum(*pairs), np.maximum(*pairs)
    return np.log1p((low[0] + low[1]) + np.minimum(high[0], high[1]))


def psi(c):
    """Inverse of theta: the table of psi_cells at c, with its exact logs.

    Raises DegenerateTable where a log (and so a cell) is not finite: the
    log-ratio of two cells, such as x + y, overflows, which takes some
    |coordinate| above 8.9e307.
    """
    if max(abs(c.x), abs(c.y), abs(c.z)) <= _PSI_NO_OVERFLOW:
        cells, logs = psi_cells(c.x, c.y, c.z)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            cells, logs = psi_cells(c.x, c.y, c.z)
        if not np.isfinite(logs).all():
            raise DegenerateTable(f"the table at {c} has a cell or log that is not finite")
    return _set_cells(object.__new__(ProbTable), cells.tolist(), logs.tolist())


# The cell order of each symmetry; the logs move with the cells.
_SYMMETRY_OPS = {
    "transpose_markers": (0, 2, 1, 3),
    "swap_rows": (2, 3, 0, 1),
    "swap_cols": (1, 0, 3, 2),
}


def symmetry_apply(t, op):
    """Apply one of the dihedral symmetries of a 2x2 table.

    transpose_markers swaps p01/p10 (coordinates: y <-> z); swap_rows and
    swap_cols flip the sign of x together with y or z respectively.
    """
    if op in _SYMMETRY_OPS:
        order = _SYMMETRY_OPS[op]
        cells, logs = ([v[i] for i in order] for v in (t.cells, t.logs))
        return _set_cells(object.__new__(ProbTable), cells, logs)
    raise ValueError(f"op must be one of {tuple(_SYMMETRY_OPS)}, got {op!r}")


# Zero-cell set -> boundary stratum for the two-cell limits.
_TWO_CELL_STRATA = {
    frozenset({"p00", "p11"}): (BoundaryKind.DIAGONAL_EDGE_MAIN, "p00=p11=0"),
    frozenset({"p01", "p10"}): (BoundaryKind.DIAGONAL_EDGE_ANTI, "p01=p10=0"),
    frozenset({"p10", "p11"}): (BoundaryKind.VANISHING_ROW, "row1"),
    frozenset({"p00", "p01"}): (BoundaryKind.VANISHING_ROW, "row0"),
    frozenset({"p01", "p11"}): (BoundaryKind.VANISHING_COLUMN, "col1"),
    frozenset({"p00", "p10"}): (BoundaryKind.VANISHING_COLUMN, "col0"),
}


def ray_limit(direction):
    """Limit of psi(s * direction) as s -> +infinity, with its boundary stratum.

    The cell exponents grow linearly with coefficients (dx+dy+dz, dy, dz, dx);
    in the limit the mass splits uniformly over the argmax set and every other
    cell is exactly zero, so the limit depends only on the direction, not on
    its length.  Returns (cells, BoundaryClass) where cells is a plain
    4-tuple because boundary tables are not ProbTable values.
    """
    dx, dy, dz = (float(d) for d in direction)
    if not all(math.isfinite(d) for d in (dx, dy, dz)):
        raise ValueError(f"direction must be finite, got {direction!r}")
    scale = max(abs(dx), abs(dy), abs(dz))
    if scale == 0.0:
        raise ValueError("direction must be non-zero")
    # Ties are found to 1e-9 on the direction scaled to a largest |component|
    # of 1, so at every length alike, and without overflow.
    dx, dy, dz = dx / scale, dy / scale, dz / scale
    coeffs = (dx + dy + dz, dy, dz, dx)
    top = max(coeffs)
    argmax = [i for i, c in enumerate(coeffs) if top - c <= 1e-9]
    share = 1.0 / len(argmax)
    cells = tuple(share if i in argmax else 0.0 for i in range(4))

    zero_set = frozenset(_CELL_NAMES[i] for i in range(4) if i not in argmax)
    if len(argmax) == 1:
        cls = BoundaryClass(BoundaryKind.VERTEX_SINGLE_ONE, _CELL_NAMES[argmax[0]])
    elif len(argmax) == 3:
        (zero_cell,) = zero_set
        cls = BoundaryClass(BoundaryKind.FACE_SINGLE_ZERO, zero_cell)
    else:
        # Four cells cannot tie: the largest |component| is 1.
        cls = BoundaryClass(*_TWO_CELL_STRATA[zero_set])
    return cells, cls
