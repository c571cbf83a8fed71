"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion states its tolerance inline.  Timing limits are asserted
where the criterion includes a runtime budget.
"""

from __future__ import annotations

import io
import math
import time

import numpy as np

from twobytwo import (
    MarginCoords,
    MeasureKind,
    ProbTable,
    critical_points,
    entropy_grid_argmax,
    eval_in_coords,
    kappa,
    lambert_w0,
    magic_odds_ratio,
    odds_ratio,
    psi,
    scan,
    load_matrix,
)
from twobytwo.cli import table1_rows
from twobytwo.scanner import render_results
from conftest import (
    axiom_suite_errors,
    ensure_lambda_above_one,
    gradient_oracle_errors,
    grid_extremum,
    max_cross_form_errors,
    max_roundtrip_error,
    random_tables,
    s10_closed_form,
)


def check(name, fn):
    try:
        fn()
    except AssertionError:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


# Reference values for the 35-row summary table, frozen at 3 decimals.
# Row layout: (p00, p01, p10, p11, lambda, Y, r, Dprime, HS4).
REFERENCE_TABLE = (
    (0.25, 0.25, 0.25, 0.25, 1, 0.0, 0.0, 0.0, 0.0),
    (0.25, 0.25, 0.25, 0.25, 1, 0.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0, 1, 0.0, 0.0, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0, 1, 0.0, 0.0, 0.0, 0.0),
    (1.0, 0.0, 0.0, 0.0, 1, 0.0, 0.0, 0.0, 0.0),
    (0.293, 0.207, 0.207, 0.293, 2, 0.172, 0.172, 0.172, 0.172),
    (0.286, 0.286, 0.143, 0.286, 2, 0.172, 0.167, 0.222, 0.139),
    (0.0, 1.0, 0.0, 0.0, 2, 0.172, 0.0, 0.5, 0.0),
    (0.5, 0.5, 0.0, 0.0, 2, 0.172, 0.002, 0.333, 0.0),
    (1.0, 0.0, 0.0, 0.0, 2, 0.172, 0.0, 0.0, 0.0),
    (0.345, 0.155, 0.155, 0.345, 5, 0.382, 0.382, 0.382, 0.382),
    (0.312, 0.312, 0.062, 0.312, 5, 0.382, 0.333, 0.556, 0.282),
    (0.0, 1.0, 0.0, 0.0, 5, 0.382, 0.0, 0.8, 0.0),
    (0.5, 0.5, 0.0, 0.0, 5, 0.382, 0.005, 0.667, 0.0),
    (1.0, 0.0, 0.0, 0.0, 5, 0.382, 0.0, 0.0, 0.0),
    (0.38, 0.12, 0.12, 0.38, 10, 0.519, 0.519, 0.519, 0.519),
    (0.323, 0.323, 0.032, 0.323, 10, 0.519, 0.409, 0.744, 0.441),
    (0.0, 1.0, 0.0, 0.0, 10, 0.519, 0.0, 0.9, 0.0),
    (0.5, 0.5, 0.0, 0.0, 10, 0.519, 0.007, 0.818, 0.0),
    (1.0, 0.0, 0.0, 0.0, 10, 0.519, 0.0, 0.0, 0.0),
    (0.409, 0.091, 0.091, 0.409, 20, 0.635, 0.635, 0.635, 0.635),
    (0.328, 0.328, 0.016, 0.328, 20, 0.635, 0.452, 0.862, 0.627),
    (0.0, 1.0, 0.0, 0.0, 20, 0.635, 0.0, 0.95, 0.0),
    (0.5, 0.5, 0.0, 0.0, 20, 0.635, 0.009, 0.905, 0.001),
    (1.0, 0.0, 0.0, 0.0, 20, 0.635, 0.0, 0.0, 0.0),
    (0.438, 0.062, 0.062, 0.438, 50, 0.752, 0.752, 0.752, 0.752),
    (0.331, 0.331, 0.007, 0.331, 50, 0.752, 0.48, 0.942, 0.821),
    (0.0, 0.999, 0.0, 0.0, 50, 0.752, 0.0, 0.98, 0.0),
    (0.5, 0.5, 0.0, 0.0, 50, 0.752, 0.012, 0.961, 0.086),
    (1.0, 0.0, 0.0, 0.0, 50, 0.752, 0.0, 0.0, 0.0),
    (0.455, 0.045, 0.045, 0.455, 100, 0.818, 0.818, 0.818, 0.818),
    (0.332, 0.332, 0.003, 0.332, 100, 0.818, 0.49, 0.97, 0.904),
    (0.0, 0.999, 0.0, 0.0, 100, 0.818, 0.0, 0.99, 0.0),
    (0.5, 0.5, 0.0, 0.0, 100, 0.818, 0.015, 0.98, 0.316),
    (1.0, 0.0, 0.0, 0.0, 100, 0.818, 0.0, 0.0, 0.0),
)


def test_reference_table_reproduction():
    """All 35 reference rows (cells and Y, r, D', HS4) within +-0.001, < 1s."""

    def run():
        start = time.perf_counter()
        rows = table1_rows()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"table construction took {elapsed:.2f}s"
        assert len(rows) == len(REFERENCE_TABLE)
        for got, want in zip(rows, REFERENCE_TABLE):
            assert got[4] == want[4]
            for g, w in zip(got[:4] + got[5:], want[:4] + want[5:]):
                assert abs(g - w) <= 1e-3 + 1e-12, f"row {want}: got {got}"

    check("reference-table", run)


def test_magic_odds_ratio():
    """Magic odds-ratio equals 12.89615 +-1e-4 and ln sqrt(L) = 1 + W0(1/e)."""

    def run():
        magic = magic_odds_ratio()
        assert abs(magic - 12.89615) < 1e-4
        assert abs(0.5 * math.log(magic) - (1.0 + lambert_w0(math.exp(-1)))) < 1e-10

    check("magic-odds-ratio", run)


def test_bifurcation_structure():
    """Critical-point counts, grid agreement and the extreme-L limit, < 30s."""

    def run():
        start = time.perf_counter()
        for big_l in (2.0, 5.0, 12.0):
            assert len(critical_points(big_l)) == 1
        for big_l in (14.0, 40.0, 400.0):
            pts = critical_points(big_l)
            assert len(pts) == 3
            assert [p.classification for p in pts] == ["saddle", "maximum", "maximum"]

        # Solver maxima agree with the brute-force entropy grid at L=40.
        step = 0.01
        gy, gz, _ = entropy_grid_argmax(40.0, 8.0, step)
        maxima = [p for p in critical_points(40.0) if p.classification == "maximum"]
        nearest = min(
            maxima, key=lambda p: max(abs(p.coords.y - gy), abs(p.coords.z - gz))
        )
        assert abs(nearest.coords.y - gy) <= step + 1e-12
        assert abs(nearest.coords.z - gz) <= step + 1e-12

        # Extreme odds-ratio: maxima tend to three equal cells of 1/3.
        for pt in critical_points(1e6)[1:]:
            ordered = sorted(pt.table.cells, reverse=True)
            assert all(abs(c - 1.0 / 3.0) < 0.01 for c in ordered[:3])
            assert ordered[3] < 0.01
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"bifurcation checks took {elapsed:.2f}s"

    check("bifurcation-structure", run)


def test_coordinate_fidelity():
    """Round trip and direct-vs-coordinate forms within 1e-10 over 10k points."""

    def run():
        assert max_roundtrip_error(count=10_000, seed=11) < 1e-10
        worst = max_cross_form_errors(count=10_000, seed=12)
        for tag, err in worst.items():
            assert err < 1e-10, f"{tag}: {err}"

    check("coordinate-fidelity", run)


def test_axiom_suite():
    """Axioms hold within 1e-10 over 10k tables; kappa violates margin freedom."""

    def run():
        report = axiom_suite_errors(count=10_000, seed=13)
        for tag, (indep, mono, transpose, flip) in report.items():
            assert indep < 1e-10, f"{tag} independence: {indep}"
            assert mono > 0.0, f"{tag} monotonicity margin: {mono}"
            assert transpose < 1e-10, f"{tag} transpose: {transpose}"
            assert flip < 1e-10, f"{tag} sign flip: {flip}"
        # Margin-sensitivity counterexample at identical odds-ratio.
        a = ProbTable(0.45, 0.05, 0.05, 0.45)
        b = psi(MarginCoords(math.log(9.0), 3.0, -3.0))
        assert abs(odds_ratio(a) - odds_ratio(b)) < 1e-6
        assert abs(kappa(a) - kappa(b)) > 0.5

    check("axiom-suite", run)


def test_gradient_oracles():
    """Closed-form gradients match finite differences within 1e-5 relative."""

    def run():
        worst_diag, worst_full = gradient_oracle_errors(count=1000, seed=15)
        assert worst_diag < 1e-5, f"diagonal-entropy gradient: {worst_diag}"
        assert worst_full < 1e-5, f"entropy gradient: {worst_full}"
        # The difference term is non-positive, zero only on diagonal tables.
        for raw in random_tables(1000, 16):
            t = ensure_lambda_above_one(raw)
            assert s10_closed_form(t) <= 1e-12
        root = math.sqrt(7.0)
        diag = ProbTable(root, 1.0, 1.0, root)
        assert abs(s10_closed_form(diag)) < 1e-12

    check("gradient-oracles", run)


def test_shape_properties():
    """Qualitative shapes of the margin weighting functions on (y, z) grids."""

    def run():
        x40 = 0.5 * math.log(40.0)
        # r and signed mutual information peak at the origin for either sign.
        for x in (x40, -x40):
            for tag in ("corr_r", "s_mut_inf"):
                y, z, _ = grid_extremum(tag, x)
                assert (y, z) == (0.0, 0.0), f"{tag} at x={x}: ({y}, {z})"

        # D' has a kink on the y == z crest.
        kind = MeasureKind("d_prime")
        h = 1e-6
        g = lambda s: eval_in_coords(kind, MarginCoords(x40, 1.0 + s, 1.0))
        left = (g(0.0) - g(-h)) / h
        right = (g(h) - g(0.0)) / h
        assert abs(left - right) > 1e-3

        # HS peaks at the origin below the magic odds-ratio, off it above.
        assert magic_odds_ratio() > 5.0 and magic_odds_ratio() < 40.0
        y5, z5, _ = grid_extremum("hs", 0.5 * math.log(5.0))
        assert (y5, z5) == (0.0, 0.0)
        y40, z40, v40 = grid_extremum("hs", x40)
        assert (y40, z40) != (0.0, 0.0)
        mirrored = eval_in_coords(MeasureKind("hs", 4.0), MarginCoords(x40, z40, y40))
        assert abs(mirrored - v40) < 1e-12
        assert v40 > eval_in_coords(MeasureKind("hs", 4.0), MarginCoords(x40, 0, 0))

        # Y is constant on each plane of constant odds-ratio.
        want = math.tanh(0.5 * x40)
        for y in (-3.0, 0.0, 2.5):
            for z in (-1.0, 4.0):
                got = eval_in_coords(MeasureKind("yule_y"), MarginCoords(x40, y, z))
                assert abs(got - want) < 1e-15

    check("shape-properties", run)


def test_scanner_end_to_end():
    """Seeded 500x50 scan: duplicate pair ranks first, threads match, < 5s."""

    def run():
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        ids = [f"m{k:02d}" for k in range(50)] + ["m00_dup"]
        base = rng.integers(0, 2, size=(500, 50))
        data = np.concatenate([base, base[:, :1]], axis=1)
        lines = ["\t".join(ids)]
        lines += ["\t".join(str(v) for v in row) for row in data]
        matrix = load_matrix(io.BytesIO("\n".join(lines).encode()))

        kind = MeasureKind("hs", 4.0)
        results = scan(matrix, [kind], kind, top_k=10)
        assert len(results) == 10
        assert {results[0].id_a, results[0].id_b} == {"m00", "m00_dup"}
        assert abs(results[0].values[kind]) > abs(results[1].values[kind])

        serial = render_results(results, [kind])
        threaded = render_results(scan(matrix, [kind], kind, 10, jobs=4), [kind])
        assert serial == threaded
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"scan took {elapsed:.2f}s"

    check("scanner-end-to-end", run)
