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
Divided by 2y and multiplied by 2 (cosh x + cosh y), the difference is
N(y) = e^-x + cosh y - x sinh(y)/y, whose sign at y = 0 decides: positive,
the diagonal table is a maximum; negative (past the magic odds-ratio), it
is a saddle, and the root y* of N in (0, x] gives the L-shaped table
psi(x, y*, -y*), whose transpose psi(x, -y*, y*) is the other maximum.  N
is summed as N(0) plus N(y) - N(0), each free of cancellation, so y*
stays accurate to rounding just past the bifurcation, where N(0) is about
1e-16.  Near y = x the two terms of N(y) - N(0), each about e^y / 2, cancel
to rounding noise that outgrows N itself (N(x) = 2 e^-x) as x grows, so
past x = 12 N is summed as e^-x + e^-y + (y - x) sinh(y)/y.

One root-finder, regula falsi with the Illinois rule, brackets each root
and ends on adjacent doubles, as bisection does, but in about 12
evaluations of N where bisection takes 53.  It finds y* and evaluates both
real branches of W, each on a bracket a few binades wide and on an equation
that neither overflows nor underflows: w*e^w = v for W0 with v <= e, and
its logarithm w + ln|w| = ln|v| for W0 with v > e and for W-1.  Both
equations are flat at the branch point w = -1, where a wide band of doubles
passes the sign test, so within 0.037 of it in 1 + e*v both branches sum
the series W = -1 + p - p^2/3 + (11/72) p^3 - ... in p = +-sqrt(2 (1 + e*v))
instead (eq. (4.22) of Corless, Gonnet, Hare, Jeffrey & Knuth, "On the
Lambert W function", Adv. Comput. Math. 5 (1996) 329-359).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, grid_axis, grid_blocks
from .measures import MeasureKind
from .tables import MarginCoords, ProbTable, psi, real, symmetry_apply, theta

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
# 1/e = _INV_E + _INV_E_LO to twice the precision of a double.  Near -1/e,
# v + _INV_E is exact (Sterbenz), so e*((v + _INV_E) + _INV_E_LO) is 1 + e*v
# to rounding, though v and -1/e agree in nearly all their digits.
_INV_E_LO = -1.2428753672788363e-17  # 1/e - _INV_E, by mpmath at 50 digits
# N0(x) = 1 - x + e^-x vanishes at the magic x = 1 + W0(1/e), where the
# rounding of e^-x alone would swamp it.  With d = _X0 - x, exact near the
# magic x, N0(x) = N0(_X0) + d + e^-_X0 expm1(d), and N0(_X0) is a constant.
_X0 = 1.2784645427610737  # the double nearest 1 + W0(1/e)
_N0_AT_X0 = 1.3995343912896686e-16  # 1 - _X0 + e^-_X0, by mpmath at 60 digits
_EXP_NEG_X0 = math.exp(-_X0)
# Below y = 0.1, five terms of _rise's Taylor series reach 1e-19 relative.
_SERIES_BELOW = 0.1
_SERIES_TERMS = tuple((m, math.factorial(m)) for m in (11, 9, 7, 5, 3))
# Past this x, N(0) + _rise(x, y) cancels near y = x (see the module docstring).
_FAR_X = 12.0
_ENTROPY = MeasureKind("entropy")


def _branch_point_series(terms):
    """mu_0, ..., mu_terms of W = sum mu_k p^k, p = +-sqrt(2 (1 + e*v)).

    The recurrence of eqs. (4.23)-(4.24) of Corless et al. (1996), in
    doubles: each mu_k is within 2 ulps of its exact rational value."""
    mu, alpha = [-1.0, 1.0], [2.0, -1.0]
    for k in range(2, terms + 1):
        alpha.append(sum(mu[j] * mu[k + 1 - j] for j in range(2, k)))
        mu.append((k - 1) / (k + 1) * (mu[k - 2] / 2 + alpha[k - 2] / 4)
                  - alpha[k] / 2 - mu[k - 1] / (k + 1))
    return mu


# W sums the series to p^20 where the first term it drops, mu_21 p^21, is at
# most eps/4 (|W| > 0.7 there): for |p| up to 0.273, 1 + e*v up to 0.037.
_BRANCH_TERMS = 20
*_MU, _MU_DROPPED = _branch_point_series(_BRANCH_TERMS + 1)
_BRANCH_MAX_P = (2.0 ** -54 / abs(_MU_DROPPED)) ** (1.0 / (_BRANCH_TERMS + 1))
_BRANCH_HORNER = tuple(reversed(_MU[1:]))


class DomainError(ValueError):
    """Argument outside the domain of the requested function/branch."""


def _root(f, lo, hi):
    """The root of f in [lo, hi], where f(lo) < 0 <= f(hi), to adjacent doubles; returns hi.

    Regula falsi with the Illinois rule: each step probes where the chord
    through the two ends crosses zero, and an end that stays put for two
    steps in a row has its stored value halved, so that the probes close in
    from both sides.  A probe that rounds onto an end goes to the double
    beside it instead.  Where f(hi) is zero the chord ends at hi: the step
    probes the double below hi, or bisects if the last step moved hi, as it
    does where rounding gave an end's value the wrong sign.  Wherever f is
    monotone on the doubles near its root, the result is the double that
    bisection finds.
    """
    f_lo, f_hi = f(lo), f(hi)
    moved = 0  # the end the last step moved: -1 for lo, 1 for hi
    while (above_lo := math.nextafter(lo, hi)) < hi:
        if f_lo < 0.0 < f_hi or (f_hi == 0.0 and moved <= 0):
            chord = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
            mid = min(max(chord, above_lo), math.nextafter(hi, lo))
        else:
            mid = 0.5 * (lo + hi)
        if (f_mid := f(mid)) < 0.0:
            if moved < 0:
                f_hi *= 0.5
            lo, f_lo, moved = mid, f_mid, -1
        else:
            if moved > 0:
                f_lo *= 0.5
            hi, f_hi, moved = mid, f_mid, 1
    return hi


def _near_branch_point(v, sign, domain):
    """W(v) by the series about -1/e, with p = sign*sqrt(2 (1 + e*v)): sign 1
    gives W0 and -1 gives W-1.  None where 1 + e*v is past the series' reach.

    An argument below -1/e by at most 1e-12 in 1 + e*v is -1/e moved by
    rounding, and gives -1.0: the two branches are a complex pair there, with
    real part -1 - (2/3)(1 + e*v) + ..., so -1.0 is within 7e-13 of it.
    Further below is a DomainError.
    """
    one_plus_ev = math.e * ((v + _INV_E) + _INV_E_LO)
    if one_plus_ev < 0.0:
        if one_plus_ev >= -1e-12:
            return -1.0
        raise DomainError(f"{domain}, got {v!r}")
    p = sign * math.sqrt(2.0 * one_plus_ev)
    if abs(p) > _BRANCH_MAX_P:
        return None
    s = 0.0
    for mu in _BRANCH_HORNER:
        s = s * p + mu
    return -1.0 + p * s


def lambert_w0(v):
    """Principal real branch of Lambert's W (inverse of w*e^w), v >= -1/e."""
    if not math.isfinite(v := real(v)):
        raise DomainError(f"lambert_w0 needs a finite argument, got {v!r}")
    if v < 0.0:
        w = _near_branch_point(v, 1.0, "lambert_w0 domain is [-1/e, inf)")
        if w is not None:
            return w
    if v == 0.0:
        return 0.0
    if v > math.e:
        # w*e^w = v overflows near v = DBL_MAX; its logarithm does not.
        log_v = math.log(v)
        return _root(lambda w: w + math.log(w) - log_v, 1.0, log_v)
    # W0 lies between v/e and v for v > 0, and between e*v and v for v < 0.
    lo, hi = (max(math.e * v, -1.0), v) if v < 0.0 else (v / math.e, min(v, 1.0))
    return _root(lambda w: w * math.exp(w) - v, lo, hi)


def lambert_w_minus1(v):
    """Lower real branch of Lambert's W, defined for v in [-1/e, 0)."""
    if not math.isfinite(v := real(v)) or v >= 0.0:
        raise DomainError(f"lambert_w_minus1 domain is [-1/e, 0), got {v!r}")
    w = _near_branch_point(v, -1.0, "lambert_w_minus1 domain is [-1/e, 0)")
    if w is not None:
        return w
    # In logarithms, w + ln(-w) = ln(-v), rising in w on [2 ln(-v) - 1, -1].
    log_v = math.log(-v)
    return _root(lambda w: w + math.log(-w) - log_v, 2.0 * log_v - 1.0, -1.0)


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


def _n0(x):
    """1 - x + e^-x, accurate to rounding also where it vanishes (see _X0)."""
    d = _X0 - x
    return _N0_AT_X0 + d + _EXP_NEG_X0 * math.expm1(d)


def _rise(x, y):
    """(cosh y - 1) - x (sinh(y)/y - 1), free of cancellation for y > 0."""
    if y >= _SERIES_BELOW:
        return 2.0 * math.sinh(0.5 * y) ** 2 - x * (math.sinh(y) - y) / y
    # y^2 times the sum over m = 3, 5, ..., 11 of (m - x) / m! * y^(m - 3).
    y2 = y * y
    r = 0.0
    for m, m_factorial in _SERIES_TERMS:
        r = r * y2 + (m - x) / m_factorial
    return y2 * r


def _point(table, classification, branch):
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
    if not (math.isfinite(big_l := real(big_l)) and big_l > 0.0 and math.isfinite(1.0 / big_l)):
        raise DomainError(
            f"odds-ratio must be > 0 with a finite value and reciprocal, got {big_l!r}"
        )

    if big_l < 1.0:
        # Branch labels follow the mirrored solution: for L < 1 the two
        # maxima are individually y<->z symmetric, so y-z cannot label them.
        return [_point(symmetry_apply(pt.table, "swap_cols"), pt.classification, pt.branch)
                for pt in critical_points(1.0 / big_l)]

    # Every critical table lies on z = -y.  The sign of N(0) = _n0(x)
    # classifies the diagonal point; a negative sign (past the magic
    # odds-ratio) leaves one root y* in (0, x] of N(y) = N(0) + _rise(x, y),
    # since N(x) = 2 e^-x > 0.
    x = 0.5 * math.log(big_l)
    diag = psi(MarginCoords(x, 0.0, 0.0))
    n0 = _n0(x)
    if n0 >= 0.0:
        return [_point(diag, "maximum", "diag")]
    if x <= _FAR_X:
        y_star = _root(lambda y: n0 + _rise(x, y), 0.0, x)
    else:
        # N(y) = e^-x + e^-y + (y - x) sinh(y)/y, where y - x is exact on
        # [x/2, x] and N(x/2) < 0.
        e_x = math.exp(-x)
        y_star = _root(lambda y: e_x + math.exp(-y) + (y - x) * math.sinh(y) / y, 0.5 * x, x)
    upper = psi(MarginCoords(x, y_star, -y_star))
    return [
        _point(diag, "saddle", "diag"),
        _point(upper, "maximum", "L_upper"),
        _point(symmetry_apply(upper, "transpose_markers"), "maximum", "L_lower"),
    ]


def entropy_grid_argmax(big_l, half_width, step):
    """Brute-force argmax of entropy over the (y, z) grid at x = ln sqrt(L).

    Independent oracle for the solver: walks the blocks of the entropy grid
    and keeps the first maximising grid point in y-major order (the
    lexicographically smallest).  Returns (y_star, z_star, h_star).
    """
    if not math.isfinite(big_l := real(big_l)) or big_l <= 0.0:
        raise DomainError(f"odds-ratio must be finite and > 0, got {big_l!r}")
    spec = GridSpec(_ENTROPY, big_l, half_width, step)
    axis = grid_axis(spec)

    best_h = -math.inf
    best_y = best_z = 0.0
    for ys, h in grid_blocks(spec):
        i, j = np.unravel_index(np.argmax(h), h.shape)
        if h[i, j] > best_h:
            best_h, best_y, best_z = float(h[i, j]), float(ys[i]), float(axis[j])
    return best_y, best_z, best_h
