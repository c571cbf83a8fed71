"""Shared sampling helpers and heavyweight property suites.

The suite functions here are used both by the per-module tests and by the
acceptance gate, so the expensive sweeps are written once.
"""

from __future__ import annotations

import math

import numpy as np

from twobytwo import (
    MarginCoords,
    MeasureKind,
    ProbTable,
    entropy,
    entropy_diag,
    eval_in_coords,
    evaluate,
    kappa,
    odds_ratio,
    psi,
    symmetry_apply,
    theta,
)
from twobytwo.measures import MEASURES

LN2 = math.log(2.0)


def random_tables(count, seed, low=1e-3, high=1.0):
    rng = np.random.default_rng(seed)
    cells = rng.uniform(low, high, size=(count, 4))
    return [ProbTable(*row) for row in cells]


def random_coords(count, seed, box=10.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(count, 3))
    return [MarginCoords(*p) for p in pts]


def independent_like(t):
    """Independent table with the same margins as t."""
    return ProbTable(
        t.row0 * t.col0, t.row0 * t.col1, t.row1 * t.col0, t.row1 * t.col1
    )


def eps_shift(t, eps):
    """Same margins, higher odds-ratio: +eps on the diagonal cells."""
    return ProbTable(t.p00 + eps, t.p01 - eps, t.p10 - eps, t.p11 + eps)


def ensure_lambda_above_one(t):
    return t if odds_ratio(t) > 1.0 else symmetry_apply(t, "swap_rows")


# --- heavyweight suites ------------------------------------------------------


def max_roundtrip_error(count=10_000, seed=11, box=10.0):
    worst = 0.0
    for c in random_coords(count, seed, box):
        back = theta(psi(c))
        worst = max(worst, abs(back.x - c.x), abs(back.y - c.y), abs(back.z - c.z))
    return worst


CROSS_FORM_TAGS = tuple(tag for tag, m in MEASURES.items() if m.coords is not None)


def max_cross_form_errors(count=10_000, seed=12):
    """Direct-form vs coordinate-form disagreement per measure tag."""
    kinds = [MeasureKind(tag, 4.0) for tag in CROSS_FORM_TAGS]
    worst = {tag: 0.0 for tag in CROSS_FORM_TAGS}
    for t in random_tables(count, seed):
        c = theta(t)
        for kind in kinds:
            err = abs(evaluate(kind, t) - eval_in_coords(kind, c))
            if err > worst[kind.tag]:
                worst[kind.tag] = err
    return worst


AXIOM_TAGS = ("yule_q", "yule_y", "d_prime", "corr_r", "s_mut_inf", "hs")


def axiom_suite_errors(count=10_000, seed=13):
    """Worst violation of each definition axiom over random tables.

    Returns a dict tag -> (independence, monotonicity_margin, transpose,
    sign_flip) where monotonicity_margin is the smallest observed increase
    (should stay positive) and the others are absolute errors.
    """
    kinds = [MeasureKind(tag, 4.0) for tag in AXIOM_TAGS]
    report = {tag: [0.0, math.inf, 0.0, 0.0] for tag in AXIOM_TAGS}
    for raw in random_tables(count, seed):
        t = ensure_lambda_above_one(raw)
        indep = independent_like(t)
        shifted = eps_shift(t, 1e-4 * min(t.cells))
        transposed = symmetry_apply(t, "transpose_markers")
        swapped_r = symmetry_apply(t, "swap_rows")
        swapped_c = symmetry_apply(t, "swap_cols")
        for kind in kinds:
            rec = report[kind.tag]
            base = evaluate(kind, t)
            rec[0] = max(rec[0], abs(evaluate(kind, indep)))
            rec[1] = min(rec[1], evaluate(kind, shifted) - base)
            rec[2] = max(rec[2], abs(evaluate(kind, transposed) - base))
            rec[3] = max(
                rec[3],
                abs(evaluate(kind, swapped_r) + base),
                abs(evaluate(kind, swapped_c) + base),
            )
    return report


def kappa_symmetry_violation(count=200, seed=14):
    """Largest |kappa(swap_rows(t)) + kappa(t)| seen: kappa breaks sign flip."""
    worst = 0.0
    for t in random_tables(count, seed):
        worst = max(worst, abs(kappa(symmetry_apply(t, "swap_rows")) + kappa(t)))
    return worst


def s8_closed_form(t):
    lam = odds_ratio(t)
    root = math.sqrt(lam)
    return -(root * math.log2(lam)) / (4.0 * (1.0 + root) ** 2) * sum(
        1.0 / p for p in t.cells
    )


def s9_closed_form(t):
    return -math.log2(odds_ratio(t))


def s10_closed_form(t):
    lam = odds_ratio(t)
    root = math.sqrt(lam)
    inv_sum = sum(1.0 / p for p in t.cells)
    return math.log2(lam) / 4.0 * (4.0 - root / (1.0 + root) ** 2 * inv_sum)


def gradient_oracle_errors(count=1000, seed=15):
    """Max relative error of the closed-form eps-derivatives vs central FD."""
    worst_diag = 0.0
    worst_full = 0.0
    for raw in random_tables(count, seed):
        t = ensure_lambda_above_one(raw)
        h = 1e-5 * min(t.cells)
        fd_diag = (entropy_diag(eps_shift(t, h)) - entropy_diag(eps_shift(t, -h))) / (
            2.0 * h
        )
        fd_full = (entropy(eps_shift(t, h)) - entropy(eps_shift(t, -h))) / (2.0 * h)
        worst_diag = max(worst_diag, abs(fd_diag - s8_closed_form(t)) / abs(s8_closed_form(t)))
        worst_full = max(worst_full, abs(fd_full - s9_closed_form(t)) / abs(s9_closed_form(t)))
    return worst_diag, worst_full


def grid_extremum(tag, x, n=4.0, half_width=6.0, step=0.05):
    """(y, z, value) of the strongest point of a margin weighting function.

    Maximises sign(x) * measure so that for negative x the extremum (the
    most negative value) is found rather than the vanishing tails.
    """
    kind = MeasureKind(tag, n)
    count = int(round(2.0 * half_width / step)) + 1
    axis = [-half_width + i * step for i in range(count)]
    sgn = 1.0 if x >= 0 else -1.0
    best = (-math.inf, 0.0, 0.0)
    for y in axis:
        for z in axis:
            c = MarginCoords(x, y, z)
            if tag == "s_mut_inf":
                value = evaluate(kind, psi(c))
            else:
                value = eval_in_coords(kind, c)
            if sgn * value > best[0]:
                best = (sgn * value, y, z)
    return best[1], best[2], sgn * best[0]
