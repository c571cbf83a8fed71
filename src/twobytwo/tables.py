"""Core types for 2x2 probability tables and margin-transformation coordinates.

A table lives on the open manifold of strictly positive 2x2 probability
distributions.  Multiplying a row and a column by positive scalars and
renormalising ("margin transformation") preserves the odds-ratio; the
coordinate maps ``theta``/``psi`` turn that structure into plain 3-space,
with the x-axis carrying log-sqrt-odds-ratio and (y, z) parameterising the
margins.  ``ray_limit`` describes what happens on the boundary when cells
are driven to zero along a straight ray in coordinate space.

Each producer of a table hands the measures (cells, logs, x), and only this
module knows where x comes from: ``psi`` and ``psi_cells`` keep the coordinate
x, and ``cells_and_logs`` (``ProbTable``, scan tiles) takes it from its logs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter

import numpy as np

__all__ = [
    "DegenerateTable",
    "real",
    "ProbTable",
    "MarginCoords",
    "BoundaryKind",
    "BoundaryClass",
    "margin_transform",
    "theta",
    "psi",
    "psi_cells",
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

_CELL_NAMES = ("p00", "p01", "p10", "p11")


def real(value):
    """A caller's number as a float, the one rule of the public entry points:
    a float as it is, a real past the double range as +-inf, and a bool or a
    non-real as nan, which each caller's own finiteness check then rejects."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int or a Fraction past the double range
        return math.inf if value > 0 else -math.inf


def _check_positive(value, what):
    checked = real(value)
    if not 0.0 < checked < math.inf:
        raise DegenerateTable(f"{what} must be finite and > 0, got {value!r}")
    return checked


@dataclass(frozen=True)
class ProbTable:
    """Strictly positive 2x2 probability table, renormalised on construction.

    Raw positive weights are accepted (e.g. counts plus pseudocounts); the
    constructor divides by their ``cell_total``, so entries are proportional
    to the inputs and sum to 1.  ``logs``, which the measures and ``theta``
    read with ``x`` = ln sqrt(odds-ratio), holds the natural logs of the
    normalised cells, exact where a cell rounds to 1 or to a subnormal.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        weights = [_check_positive(v, f"cell {n}") for n, v in zip(_CELL_NAMES, self.cells)]
        _set_cells(self, *_cells_and_logs(weights, max, min))

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


@dataclass(frozen=True)
class MarginCoords:
    """Coordinates (x, y, z) of an interior table, natural-log scale."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in "xyz":
            self.__dict__[name] = _finite(name, self.__dict__[name])


def _finite(name, value):
    """A coordinate by the rule of ``real``; ValueError unless it is finite."""
    if math.isfinite(checked := real(value)):
        return checked
    raise ValueError(f"coordinate {name} must be finite, got {value!r}")


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


def _set_cells(table, cells, logs, x):
    """Set a frozen table's normalised cells, their logs and x, as floats; return it."""
    attrs = table.__dict__
    attrs["p00"], attrs["p01"], attrs["p10"], attrs["p11"] = map(float, cells)
    attrs["logs"] = tuple(map(float, logs))
    attrs["x"] = float(x)
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
        t.x,
        0.5 * ((l00 - l11) + (l01 - l10)),
        0.5 * ((l00 - l11) - (l01 - l10)),
    )


# The formulas below take the four components of a table (or three
# coordinates) and return lists of four.  On the Python floats of one table
# they run with the builtin max and min; on arrays (a grid block, a scan
# tile), with np.maximum and np.minimum.  Either way exp, log and log1p are
# numpy's ufuncs, so one table and a column of an array get the same bits.
# ``v[i] -= t`` rebinds a float but updates an array the formula made in
# place: fewer arrays alive at once keep a grid block and a scan tile fast.


def _largest(v, maximum):
    """The largest of four components."""
    return maximum(maximum(v[0], v[1]), maximum(v[2], v[3]))


def psi_cells(x, y, z):
    """Cells, logs and x of the table proportional to (e^{x+y+z}, e^y; e^z, e^x).

    Returns ``(cells, logs, x)``: lists of four components that broadcast
    over coordinate arrays, and x as checked; ``psi`` is the one-point form.
    The maximal exponent is subtracted before exponentiation and dominated
    weights are floored at exp(_EXP_FLOOR), so coordinates with |x|, |y|,
    |z| <= 500 never overflow or produce a zero cell; the logs are the
    exponents normalised by ``_log_total``, exact however small a cell.  The
    exponents are centred on (x + y + z) / 2 and written in halves of x,
    u = y + z and w = y - z, so that y <-> z swaps p01 and p10 and
    (y, z) -> (-y, -z) swaps p00 with p11 and p01 with p10 exactly.  Each
    coordinate is a real, or an array of a real dtype, taken as float64; a
    bool, a non-real or a non-finite coordinate, or array element, raises
    the ValueError of ``MarginCoords``.
    """
    return _psi_cells(*map(_coordinate, "xyz", (x, y, z)), np.maximum, np.minimum)


def _coordinate(name, value):
    """A coordinate of psi_cells by the rule of ``_finite``, or an array of them."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        checked = value.astype(np.float64, copy=False)
        if np.isfinite(checked).all():
            return checked
        value = checked[~np.isfinite(checked)][0].item()
    return _finite(name, value)


def _psi_cells(x, y, z, maximum, minimum):
    logs = _centred_exponents(x, y, z, maximum)
    cells = [np.exp(maximum(l, _EXP_FLOOR)) for l in logs]
    total, log_total = cell_total(cells), _log_total(cells, maximum, minimum)
    for i in range(4):
        cells[i] /= total
        logs[i] -= log_total
    return cells, logs, x


def _centred_exponents(x, y, z, maximum):
    """The four cell exponents of psi at (x, y, z), less the largest of them.

    A function of its own, so that its intermediate arrays are freed before
    the exponentials: kept alive, they doubled the time of a grid block.
    """
    hx, hy, hz = 0.5 * x, 0.5 * y, 0.5 * z
    hu, hw = hy + hz, hy - hz
    exponents = [hx + hu, hw - hx, -hx - hw, hx - hu]
    top = _largest(exponents, maximum)
    for i in range(4):
        exponents[i] -= top
    return exponents


def cell_total(weights):
    """(w00 + w11) + (w01 + w10), a sum that every table symmetry keeps to the bit."""
    return (weights[0] + weights[3]) + (weights[1] + weights[2])


def cells_and_logs(weights):
    """Normalised cells, none below _CELL_FLOOR, their exact natural logs and
    x of the logs, of (4, ...) weights: lists of four arrays, and an array.
    Raises the DegenerateTable of ``ProbTable`` where a column's total is not
    finite, naming the four weights of the first such column."""
    with np.errstate(over="ignore"):  # an overflowing total raises below instead
        return _cells_and_logs(weights, np.maximum, np.minimum)


def _cells_and_logs(weights, maximum, minimum):
    total = cell_total(weights)
    # One table's float total by math.isfinite, far cheaper than numpy's check.
    if type(total) is float:
        finite = math.isfinite(total)
    elif not (finite := np.isfinite(total).all()):
        # The first failing column, as the floats of one table.
        first = np.flatnonzero(~np.isfinite(total))[0]
        weights = [float(np.broadcast_to(w, total.shape).flat[first]) for w in weights]
    if not finite:
        raise DegenerateTable(f"cells do not have a finite positive sum: {weights}")
    logs = _log_cells(weights, maximum, minimum)
    return [maximum(w / total, _CELL_FLOOR) for w in weights], logs, half_log_odds(logs)


def half_log_odds(l):
    """x = ln sqrt(odds-ratio) = ((l00 + l11) - (l01 + l10)) / 2 of the log cells."""
    l00, l01, l10, l11 = l
    return 0.5 * ((l00 + l11) - (l01 + l10))


def _log_cells(weights, maximum, minimum):
    """Logs of weights / sum(weights), relative to the largest weight (see
    _log_total): a cell with all but 3e-300 of the mass gets -3e-300, not 0."""
    logs = [np.log(w) for w in weights]
    top, w_top = _largest(logs, maximum), _largest(weights, maximum)
    log_total = _log_total([w / w_top for w in weights], maximum, minimum)
    for i in range(4):
        logs[i] -= top
        logs[i] -= log_total
    return logs


def _log_total(weights, maximum, minimum):
    """log of the sum of four weights whose largest is exactly 1.

    log1p of the other three, found by min and max in the pairs (w00, w11)
    and (w01, w10), as they may sum to less than the rounding of 1.
    """
    w00, w01, w10, w11 = weights
    low = minimum(w00, w11) + minimum(w01, w10)
    return np.log1p(low + minimum(maximum(w00, w11), maximum(w01, w10)))


def psi(c):
    """Inverse of theta: the table of psi_cells at c, with its exact logs and c.x.

    Raises DegenerateTable where a log (and so a cell) is not finite: the
    log-ratio of two cells, such as x + y, overflows, which takes some
    |coordinate| above 8.9e307.
    """
    # Python's arithmetic overflows to inf, and inf - inf gives nan, silently.
    cells, logs, x = _psi_cells(c.x, c.y, c.z, max, min)
    if not all(map(math.isfinite, logs)):
        raise DegenerateTable(f"the table at {c} has a cell or log that is not finite")
    return _set_cells(object.__new__(ProbTable), cells, logs, x)


# The cell order of each symmetry; the logs move with the cells, and a swap
# negates x as 0.0 - x: +0.0 stays +0.0, as in half_log_odds of the logs.
_SYMMETRY_OPS = {
    "transpose_markers": itemgetter(0, 2, 1, 3),
    "swap_rows": itemgetter(2, 3, 0, 1),
    "swap_cols": itemgetter(1, 0, 3, 2),
}


def symmetry_apply(t, op):
    """Apply one of the dihedral symmetries of a 2x2 table.

    transpose_markers swaps p01/p10 (coordinates: y <-> z); swap_rows and
    swap_cols flip the sign of x together with y or z respectively.
    """
    if isinstance(op, str) and op in _SYMMETRY_OPS:
        order, x = _SYMMETRY_OPS[op], t.x if op == "transpose_markers" else 0.0 - t.x
        return _set_cells(object.__new__(ProbTable), order(t.cells), order(t.logs), x)
    raise ValueError(f"op must be one of {tuple(_SYMMETRY_OPS)}, got {op!r}")


# Zero-cell set -> stratum of a ray limit: a vertex is named by its one
# nonzero cell, a face by its one zero cell.
_STRATA = {
    **{frozenset(_CELL_NAMES) - {c}: BoundaryClass(BoundaryKind.VERTEX_SINGLE_ONE, c)
       for c in _CELL_NAMES},
    **{frozenset({c}): BoundaryClass(BoundaryKind.FACE_SINGLE_ZERO, c) for c in _CELL_NAMES},
    frozenset({"p00", "p11"}): BoundaryClass(BoundaryKind.DIAGONAL_EDGE_MAIN, "p00=p11=0"),
    frozenset({"p01", "p10"}): BoundaryClass(BoundaryKind.DIAGONAL_EDGE_ANTI, "p01=p10=0"),
    frozenset({"p10", "p11"}): BoundaryClass(BoundaryKind.VANISHING_ROW, "row1"),
    frozenset({"p00", "p01"}): BoundaryClass(BoundaryKind.VANISHING_ROW, "row0"),
    frozenset({"p01", "p11"}): BoundaryClass(BoundaryKind.VANISHING_COLUMN, "col1"),
    frozenset({"p00", "p10"}): BoundaryClass(BoundaryKind.VANISHING_COLUMN, "col0"),
}


def ray_limit(direction):
    """Limit of psi(s * direction) as s -> +infinity, with its boundary stratum.

    The cell exponents grow linearly with coefficients (dx+dy+dz, dy, dz, dx);
    in the limit the mass splits uniformly over the argmax set and every other
    cell is exactly zero, so the limit depends only on the direction, not on
    its length.  Returns (cells, BoundaryClass) where cells is a plain
    4-tuple because boundary tables are not ProbTable values.  A direction
    that is not three finite reals, or is zero, raises ValueError.
    """
    try:
        dx, dy, dz = map(real, direction)
    except (TypeError, ValueError):  # not iterable, or not three items
        dx = dy = dz = math.nan
    if not all(math.isfinite(d) for d in (dx, dy, dz)):
        raise ValueError(f"direction must be three finite reals, got {direction!r}")
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
    # Four cells cannot tie: the largest |component| is 1.
    return cells, _STRATA[frozenset(n for n, c in zip(_CELL_NAMES, cells) if c == 0.0)]
