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
    "symmetry_apply",
    "ray_limit",
]


class DegenerateTable(ValueError):
    """Table weights (or transformation scalars) are not finite and > 0."""


# Smallest exponent passed to np.exp that still yields a positive double.
# Keeps psi() total on |x|,|y|,|z| <= 500: dominated cells underflow to the
# smallest subnormal instead of 0, so the result stays on the open manifold.
_EXP_FLOOR = -744.0


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
    constructor divides by their sum, so entries are proportional to the
    inputs and sum to 1.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def __post_init__(self):
        cells = [
            _check_positive(v, f"cell {name}")
            for name, v in zip(("p00", "p01", "p10", "p11"), self.cells)
        ]
        total = math.fsum(cells)
        if not math.isfinite(total) or total <= 0.0:
            raise DegenerateTable(f"cells do not have a finite positive sum: {cells}")
        for name, value in zip(("p00", "p01", "p10", "p11"), cells):
            object.__setattr__(self, name, value / total)

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


def make_table(p00, p01, p10, p11):
    """Build a ProbTable from raw positive weights (renormalised)."""
    return ProbTable(p00, p01, p10, p11)


def margin_transform(t, mu, nu):
    """Multiply row 0 by mu, column 0 by nu, and renormalise.

    Maps (p00, p01; p10, p11) to (mu*nu*p00, mu*p01; nu*p10, p11) / norm.
    Preserves the odds-ratio; composes multiplicatively in (mu, nu).
    """
    mu = _check_positive(mu, "mu")
    nu = _check_positive(nu, "nu")
    return ProbTable(mu * nu * t.p00, mu * t.p01, nu * t.p10, t.p11)


def theta(t):
    """Coordinates of a table: x = ln sqrt(odds-ratio), plus margin axes y, z."""
    l00, l01, l10, l11 = (math.log(p) for p in t.cells)
    # y and z from mirrored-cell differences, so that transposition swaps
    # them and a diagonal-symmetric table has y = z = 0 exactly.
    return MarginCoords(
        0.5 * (l00 + l11 - l01 - l10),
        0.5 * ((l00 - l11) + (l01 - l10)),
        0.5 * ((l00 - l11) - (l01 - l10)),
    )


def psi_cells(x, y, z):
    """Cells of the table proportional to (e^{x+y+z}, e^y; e^z, e^x).

    Broadcasts over coordinate arrays; ``psi`` is the one-point form.  The
    maximal exponent is subtracted before exponentiation and dominated
    weights are floored at exp(_EXP_FLOOR), so coordinates with |x|, |y|,
    |z| <= 500 never overflow or produce a zero weight.  The exponents are
    centred on (x + y + z) / 2 and written in u = y + z and w = y - z, so
    that y <-> z swaps p01 and p10 and (y, z) -> (-y, -z) swaps p00 with
    p11 and p01 with p10 exactly.
    """
    u, w = y + z, y - z
    exps = (0.5 * (x + u), 0.5 * (w - x), -0.5 * (x + w), 0.5 * (x - u))
    m = np.maximum(np.maximum(exps[0], exps[1]), np.maximum(exps[2], exps[3]))
    weights = [np.exp(np.maximum(e - m, _EXP_FLOOR)) for e in exps]
    total = (weights[0] + weights[3]) + (weights[1] + weights[2])
    return [weight / total for weight in weights]


def psi(c):
    """Inverse of theta: the table of psi_cells at c."""
    return ProbTable(*psi_cells(c.x, c.y, c.z))


_SYMMETRY_OPS = ("transpose_markers", "swap_rows", "swap_cols")


def symmetry_apply(t, op):
    """Apply one of the dihedral symmetries of a 2x2 table.

    transpose_markers swaps p01/p10 (coordinates: y <-> z); swap_rows and
    swap_cols flip the sign of x together with y or z respectively.
    """
    if op == "transpose_markers":
        return ProbTable(t.p00, t.p10, t.p01, t.p11)
    if op == "swap_rows":
        return ProbTable(t.p10, t.p11, t.p00, t.p01)
    if op == "swap_cols":
        return ProbTable(t.p01, t.p00, t.p11, t.p10)
    raise ValueError(f"op must be one of {_SYMMETRY_OPS}, got {op!r}")


_CELL_NAMES = ("p00", "p01", "p10", "p11")

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
    cell is exactly zero.  Returns (cells, BoundaryClass) where cells is a
    plain 4-tuple because boundary tables are not ProbTable values.
    """
    dx, dy, dz = (float(d) for d in direction)
    if not all(math.isfinite(d) for d in (dx, dy, dz)):
        raise ValueError(f"direction must be finite, got {direction!r}")
    if dx == dy == dz == 0.0:
        raise ValueError("direction must be non-zero")
    coeffs = (dx + dy + dz, dy, dz, dx)
    top = max(coeffs)
    tol = 1e-9 * max(1.0, abs(top))
    argmax = [i for i, c in enumerate(coeffs) if top - c <= tol]
    share = 1.0 / len(argmax)
    cells = tuple(share if i in argmax else 0.0 for i in range(4))

    zero_set = frozenset(_CELL_NAMES[i] for i in range(4) if i not in argmax)
    if len(argmax) == 1:
        cls = BoundaryClass(BoundaryKind.VERTEX_SINGLE_ONE, _CELL_NAMES[argmax[0]])
    elif len(argmax) == 3:
        (zero_cell,) = zero_set
        cls = BoundaryClass(BoundaryKind.FACE_SINGLE_ZERO, zero_cell)
    elif len(argmax) == 2:
        kind, detail = _TWO_CELL_STRATA[zero_set]
        cls = BoundaryClass(kind, detail)
    else:
        # All four exponents tie only for the zero direction, excluded above.
        raise ValueError(f"degenerate direction {direction!r}")
    return cells, cls
