"""Critical points of entropy at fixed odds-ratio, via Lambert's W function.

Entropy restricted to the tables of a fixed odds-ratio L has a single
maximum at the diagonal-symmetric table for moderate L, but past the
"magic odds-ratio" W0(1/e)^-2 (about 12.896) the diagonal table turns
into a saddle and two L-shaped maxima appear, mirror images under matrix
transposition.  The stationarity system reduces to scalar equations in
the two real branches of Lambert's W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import MeasureKind
from .tables import MarginCoords, ProbTable, symmetry_apply, theta

__all__ = [
    "DomainError",
    "SolverError",
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


class SolverError(RuntimeError):
    """A scalar root-find failed to converge or to bracket."""


def _halley(v, w):
    """Polish a Lambert W estimate w for w*e^w = v (Halley iteration)."""
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - v
        if f == 0.0:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            break
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-14 * max(1.0, abs(w)):
            return w
    return w


def _branch_point_series(v, branch):
    # Expansion around v = -1/e where W = -1; p flips sign on the lower branch.
    rho = max(math.e * v + 1.0, 0.0)
    p = math.sqrt(2.0 * rho)
    if branch == -1:
        p = -p
    return -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0 - 43.0 * p ** 4 / 540.0


def lambert_w0(v):
    """Principal real branch of Lambert's W (inverse of w*e^w), v >= -1/e."""
    v = float(v)
    if not math.isfinite(v):
        raise DomainError(f"lambert_w0 needs a finite argument, got {v!r}")
    if v < -_INV_E:
        if v > -_INV_E * (1.0 + 1e-12):
            return -1.0
        raise DomainError(f"lambert_w0 domain is [-1/e, inf), got {v!r}")
    if v == 0.0:
        return 0.0
    if v < 0.0:
        w = _branch_point_series(v, 0)
        if w >= 0.0:
            w = -1e-12
    elif v <= math.e:
        w = math.log1p(v) * 0.75
    else:
        l1 = math.log(v)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    w = _halley(v, w)
    if v < 0.0 and w < -1.0:
        w = -1.0
    return w


def lambert_w_minus1(v):
    """Lower real branch of Lambert's W, defined for v in [-1/e, 0)."""
    v = float(v)
    if not math.isfinite(v) or v >= 0.0:
        raise DomainError(f"lambert_w_minus1 domain is [-1/e, 0), got {v!r}")
    if v < -_INV_E:
        if v > -_INV_E * (1.0 + 1e-12):
            return -1.0
        raise DomainError(f"lambert_w_minus1 domain is [-1/e, 0), got {v!r}")
    rho = math.e * v + 1.0
    if rho < 0.25:
        w = _branch_point_series(v, -1)
    else:
        l1 = math.log(-v)
        l2 = math.log(-l1) if l1 < 0.0 else 0.0
        w = l1 - l2 + (l2 / l1 if l1 != 0.0 else 0.0)
    if w > -1.0:
        w = -1.0 - 1e-9
    w = _halley(v, w)
    if w > -1.0:
        w = -1.0
    return w


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


def _bisect_secant(f, lo, hi):
    """Root of f on a sign-changing bracket: bisection, then secant polish."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise SolverError(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    a, fa, b, fb = lo, flo, hi, fhi
    best = a if abs(fa) < abs(fb) else b
    for _ in range(10):
        if fb == fa:
            break
        c = b - fb * (b - a) / (fb - fa)
        if not (lo <= c <= hi):
            break
        fc = f(c)
        if abs(fc) < min(abs(fa), abs(fb)):
            best = c
        a, fa, b, fb = b, fb, c, fc
        if fc == 0.0:
            return c
    return best


def _solve_mixed_branch(big_l):
    """Solve for u in (0, 1/e) so that W-1(-u)*W0(-u) / W0(u)^2 = big_l."""
    log_l = math.log(big_l)

    def g(u):
        prod = lambert_w_minus1(-u) * lambert_w0(-u)
        return math.log(prod) - 2.0 * math.log(lambert_w0(u)) - log_l

    hi = _INV_E * (1.0 - 1e-14)
    lo = 1e-4
    while g(lo) <= 0.0:
        lo *= 0.1
        if lo < 1e-250:
            raise SolverError(f"could not bracket the branch equation for L={big_l}")
    return _bisect_secant(g, lo, hi)


def _diag_table(big_l):
    root = math.sqrt(big_l)
    a = root / (2.0 * (1.0 + root))
    b = 1.0 / (2.0 * (1.0 + root))
    return ProbTable(a, b, b, a)


def _diag_classification(big_l):
    # Sign of the closed-form second derivative across the diagonal:
    # the diagonal table stops being a maximum once sqrt(L)*ln sqrt(L)
    # exceeds 1 + sqrt(L), i.e. exactly at the magic odds-ratio.
    root = math.sqrt(big_l)
    curvature_factor = 1.0 - root * math.log(root) / (1.0 + root)
    return "maximum" if curvature_factor >= 0.0 else "saddle"


def critical_points(big_l):
    """All critical tables of entropy restricted to odds-ratio == big_l.

    One diagonal point for odds-ratios up to the magic value; past it the
    diagonal point is a saddle and two L-shaped maxima are appended
    (L_upper has the larger p01).  Odds-ratios below 1 are solved at 1/L
    and mapped back by a column swap.
    """
    big_l = float(big_l)
    if not math.isfinite(big_l) or big_l <= 0.0:
        raise DomainError(f"odds-ratio must be finite and > 0, got {big_l!r}")

    if big_l < 1.0:
        mirrored = critical_points(1.0 / big_l)
        out = []
        for pt in mirrored:
            # Branch labels follow the mirrored solution: for L < 1 the two
            # maxima are individually y<->z symmetric, so y-z cannot label them.
            table = symmetry_apply(pt.table, "swap_cols")
            out.append(CriticalPoint(table, theta(table), pt.classification, pt.branch))
        return out

    table = _diag_table(big_l)
    points = [CriticalPoint(table, theta(table), _diag_classification(big_l), "diag")]
    if big_l <= magic_odds_ratio():
        return points

    u = _solve_mixed_branch(big_l)
    a = 1.0 / lambert_w0(u)
    big_cell = -1.0 / lambert_w0(-u)
    small_cell = -1.0 / lambert_w_minus1(-u)
    upper = ProbTable(a, big_cell, small_cell, a)
    lower = ProbTable(a, small_cell, big_cell, a)
    points.append(CriticalPoint(upper, theta(upper), "maximum", "L_upper"))
    points.append(CriticalPoint(lower, theta(lower), "maximum", "L_lower"))
    return points


def entropy_grid_argmax(big_l, half_width, step):
    """Brute-force argmax of entropy over the (y, z) grid at x = ln sqrt(L).

    Independent oracle for the solver: evaluates the entropy row by row
    and keeps the first (lexicographically smallest) maximising grid
    point.  Returns (y_star, z_star, h_star).
    """
    big_l = float(big_l)
    if not math.isfinite(big_l) or big_l <= 0.0:
        raise DomainError(f"odds-ratio must be finite and > 0, got {big_l!r}")
    if step <= 0.0 or half_width <= 0.0:
        raise ValueError("step and half_width must be > 0")
    x = 0.5 * math.log(big_l)
    count = int(round(2.0 * half_width / step)) + 1
    axis = -half_width + step * np.arange(count)

    best_h = -math.inf
    best_y = best_z = 0.0
    for y in axis:
        h_row = _ENTROPY.on_coords(x, y, axis)
        i = int(np.argmax(h_row))
        if h_row[i] > best_h:
            best_h = float(h_row[i])
            best_y = float(y)
            best_z = float(axis[i])
    return best_y, best_z, best_h
