"""Critical points of entropy at fixed odds-ratio, and Lambert's W function.

Entropy restricted to the tables of a fixed odds-ratio L has a single
maximum at the diagonal-symmetric table for moderate L, but past the
"magic odds-ratio" W0(1/e)^-2 (about 12.896) the diagonal table turns
into a saddle and two L-shaped maxima appear, mirror images under matrix
transposition.  In the paper the stationarity system reduces to the two
real branches of Lambert's W: an L-shaped table (a, B; S, a) satisfies
(c*a, c*B, c*S) = (1/W0(u), -1/W0(-u), -1/W-1(-u)) for some c > 0 and
u in (0, 1/e) with W-1(-u)*W0(-u) / W0(u)^2 = L.

The solver uses the equivalent equation in margin coordinates.  At
x = ln sqrt(L) every critical table lies on z = -y, where entropy is
stationary exactly when g(y - x) = g(-y - x) with g(b) = b / (1 + e^-b).
Divided by 2y, the difference keeps a sign at y = 0: positive, the
diagonal table is a maximum; negative (past the magic odds-ratio), it is
a saddle and one bisection finds the root y* in (0, x] that gives the
L-shaped tables psi(x, y*, -y*) and psi(x, -y*, y*).

The same bisection, to adjacent doubles, evaluates both real branches of
W, each on a bracket a few binades wide and on an equation that neither
overflows nor underflows: w*e^w = v for W0 with v <= e, and its logarithm
w + ln|w| = ln|v| for W0 with v > e and for W-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, grid_axis, grid_rows
from .measures import MeasureKind
from .tables import MarginCoords, ProbTable, psi, symmetry_apply, theta

__all__ = [
    "DomainError",
    "CriticalPoint",
    "lambert_w0",
    "lambert_w_minus1",
    "magic_odds_ratio",
    "critical_points",
    "entropy_grid_argmax",
]

_INV_E = math.exp(-1.0)
_ENTROPY = MeasureKind("entropy")


class DomainError(ValueError):
    """Argument outside the domain of the requested function/branch."""


def _bisect(f, lo, hi):
    """Halve [lo, hi] with f(lo) < 0 <= f(hi) down to adjacent doubles; return hi."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def lambert_w0(v):
    """Principal real branch of Lambert's W (inverse of w*e^w), v >= -1/e."""
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"lambert_w0 needs a finite argument, got {v!r}")
    if v <= -_INV_E:
        if v > -_INV_E * (1.0 + 1e-12):
            return -1.0
        raise DomainError(f"lambert_w0 domain is [-1/e, inf), got {v!r}")
    if v == 0.0:
        return 0.0
    if v > math.e:
        # w*e^w = v overflows near v = DBL_MAX; its logarithm does not.
        log_v = math.log(v)
        return _bisect(lambda w: w + math.log(w) - log_v, 1.0, log_v)
    # W0 lies between v/e and v for v > 0, and between e*v and v for v < 0.
    lo, hi = (max(math.e * v, -1.0), v) if v < 0.0 else (v / math.e, min(v, 1.0))
    return _bisect(lambda w: w * math.exp(w) - v, lo, hi)


def lambert_w_minus1(v):
    """Lower real branch of Lambert's W, defined for v in [-1/e, 0)."""
    v = float(v)
    if not math.isfinite(v) or v >= 0.0:
        raise DomainError(f"lambert_w_minus1 domain is [-1/e, 0), got {v!r}")
    if v <= -_INV_E:
        if v > -_INV_E * (1.0 + 1e-12):
            return -1.0
        raise DomainError(f"lambert_w_minus1 domain is [-1/e, 0), got {v!r}")
    # In logarithms, w + ln(-w) = ln(-v), rising in w on [2 ln(-v) - 1, -1].
    log_v = math.log(-v)
    return _bisect(lambda w: w + math.log(-w) - log_v, 2.0 * log_v - 1.0, -1.0)


def magic_odds_ratio():
    """Bifurcation odds-ratio W0(1/e)^-2 of the constrained-entropy maxima."""
    return lambert_w0(_INV_E) ** -2


@dataclass(frozen=True)
class CriticalPoint:
    """A critical table of entropy on the constant odds-ratio submanifold."""

    table: ProbTable
    coords: MarginCoords
    classification: str  # "maximum" or "saddle"
    branch: str  # "diag", "L_upper" (p01 > p10) or "L_lower"


def _stationarity(x, y):
    """(g(y - x) - g(-y - x)) / 2y with g(b) = b / (1 + e^-b), free of cancellation.

    Entropy on the line z = -y of the plane x is stationary exactly where
    this vanishes.  Its limit at y = 0 is (1 - x + e^-x) / (4 cosh^2(x/2)),
    where 1 - x is exact near the magic x = 1 + W0(1/e), so the sign there
    is right for every double L above the magic odds-ratio.
    """
    if y == 0.0:
        return (1.0 - x + math.exp(-x)) / (4.0 * math.cosh(0.5 * x) ** 2)
    return 1.0 / (1.0 + math.exp(x - y)) - 0.5 * (x + y) * math.sinh(y) / y / (
        math.cosh(x) + math.cosh(y)
    )


def _on_anti_diagonal(x, y, classification, branch):
    table = psi(MarginCoords(x, y, -y))
    return CriticalPoint(table, theta(table), classification, branch)


def critical_points(big_l):
    """All critical tables of entropy restricted to odds-ratio == big_l.

    Defined for every big_l > 0 such that big_l and 1/big_l are both finite
    doubles (about 5.6e-309 to 1.8e308); anything else raises DomainError.
    One diagonal point for odds-ratios up to the magic value; past it the
    diagonal point is a saddle and two L-shaped maxima are appended
    (L_upper has the larger p01).  Odds-ratios below 1 are solved at 1/L
    and mapped back by a column swap.
    """
    big_l = float(big_l)
    if not (math.isfinite(big_l) and big_l > 0.0 and math.isfinite(1.0 / big_l)):
        raise DomainError(
            f"odds-ratio must be > 0 with a finite value and reciprocal, got {big_l!r}"
        )

    if big_l < 1.0:
        # Branch labels follow the mirrored solution: for L < 1 the two
        # maxima are individually y<->z symmetric, so y-z cannot label them.
        mirrored = critical_points(1.0 / big_l)
        swapped = [(symmetry_apply(pt.table, "swap_cols"), pt) for pt in mirrored]
        return [CriticalPoint(t, theta(t), pt.classification, pt.branch) for t, pt in swapped]

    # Every critical table lies on z = -y.  The sign at y = 0 classifies the
    # diagonal point; a negative sign (past the magic odds-ratio) leaves one
    # root y* in (0, x], since _stationarity(x, x) = (1 - tanh x) / 2 > 0.
    x = 0.5 * math.log(big_l)
    if _stationarity(x, 0.0) >= 0.0:
        return [_on_anti_diagonal(x, 0.0, "maximum", "diag")]
    y_star = _bisect(lambda y: _stationarity(x, y), 0.0, x)
    return [
        _on_anti_diagonal(x, 0.0, "saddle", "diag"),
        _on_anti_diagonal(x, y_star, "maximum", "L_upper"),
        _on_anti_diagonal(x, -y_star, "maximum", "L_lower"),
    ]


def entropy_grid_argmax(big_l, half_width, step):
    """Brute-force argmax of entropy over the (y, z) grid at x = ln sqrt(L).

    Independent oracle for the solver: walks the rows of the entropy grid
    and keeps the first (lexicographically smallest) maximising grid
    point.  Returns (y_star, z_star, h_star).
    """
    big_l = float(big_l)
    if not math.isfinite(big_l) or big_l <= 0.0:
        raise DomainError(f"odds-ratio must be finite and > 0, got {big_l!r}")
    spec = GridSpec(_ENTROPY, big_l, half_width, step)
    axis = grid_axis(spec)

    best_h = -math.inf
    best_y = best_z = 0.0
    for y, h_row in grid_rows(spec):
        i = int(np.argmax(h_row))
        if h_row[i] > best_h:
            best_h = float(h_row[i])
            best_y = float(y)
            best_z = float(axis[i])
    return best_y, best_z, best_h
