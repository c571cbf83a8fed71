"""Tests for Lambert W, the magic odds-ratio, and the entropy critical points."""

from __future__ import annotations

import io
import math
import sys

import numpy as np
import pytest

from twobytwo import (
    DomainError,
    GridSpec,
    MeasureKind,
    critical_points,
    emit_grid,
    entropy,
    entropy_grid_argmax,
    lambert_w0,
    lambert_w_minus1,
    magic_odds_ratio,
    odds_ratio,
    symmetry_apply,
)

scipy_special = pytest.importorskip("scipy.special")

INV_E = math.exp(-1.0)


def w_residual(w, v):
    return abs(w * math.exp(w) - v)


class TestLambertW:
    def test_principal_branch_examples(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-INV_E) == pytest.approx(-1.0, abs=1e-9)

    def test_lower_branch_examples(self):
        assert lambert_w_minus1(-INV_E) == pytest.approx(-1.0, abs=1e-9)
        # W-1(-2 e^-2) = -2.
        assert lambert_w_minus1(-2.0 * math.exp(-2.0)) == pytest.approx(
            -2.0, abs=1e-12
        )

    def test_domain_errors(self):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                lambert_w0(bad)
        for bad in (-0.5, 0.0, 0.1, math.nan):
            with pytest.raises(DomainError):
                lambert_w_minus1(bad)

    def test_principal_residual_sweep(self):
        pos = np.geomspace(1e-300, 1e300, 2500)
        neg = -np.geomspace(1e-300, INV_E * (1 - 1e-12), 2500)
        worst = 0.0
        for v in np.concatenate([pos, neg]):
            w = lambert_w0(float(v))
            worst = max(worst, w_residual(w, float(v)) / max(abs(v), 1e-300))
        assert worst < 1e-12

    def test_lower_residual_sweep(self):
        worst = 0.0
        for v in -np.geomspace(1e-300, INV_E * (1 - 1e-12), 5000):
            w = lambert_w_minus1(float(v))
            worst = max(worst, w_residual(w, float(v)) / max(abs(v), 1e-300))
        assert worst < 1e-12

    def test_matches_scipy_both_branches(self):
        vs = np.concatenate(
            [np.geomspace(1e-12, 1e12, 500), -np.geomspace(1e-12, INV_E * 0.999999, 500)]
        )
        for v in vs:
            ref = float(scipy_special.lambertw(float(v), 0).real)
            assert lambert_w0(float(v)) == pytest.approx(ref, rel=1e-12, abs=1e-14)
        for v in -np.geomspace(1e-12, INV_E * 0.999999, 500):
            ref = float(scipy_special.lambertw(float(v), -1).real)
            assert lambert_w_minus1(float(v)) == pytest.approx(ref, rel=1e-12)

    def test_branches_meet_at_branch_point(self):
        v = -INV_E * (1.0 - 1e-15)
        assert lambert_w0(v) == pytest.approx(lambert_w_minus1(v), abs=1e-7)

    def test_principal_branch_at_the_largest_double(self):
        ref = float(scipy_special.lambertw(sys.float_info.max, 0).real)
        assert lambert_w0(sys.float_info.max) == pytest.approx(ref, rel=1e-15)

    def test_lower_branch_at_the_smallest_subnormal(self):
        # scipy returns -inf here; the literal is W-1(-2^-1074) to 16 digits.
        assert lambert_w_minus1(-5e-324) == pytest.approx(-751.0615595398791, rel=1e-15)

    def test_principal_branch_at_the_smallest_subnormals(self):
        assert lambert_w0(5e-324) == 5e-324
        assert lambert_w0(-5e-324) == -5e-324


class TestMagicOddsRatio:
    def test_value(self):
        assert magic_odds_ratio() == pytest.approx(12.89615, abs=1e-4)

    def test_log_sqrt_identity(self):
        # ln sqrt(L_magic) = 1 + W0(1/e).
        lhs = 0.5 * math.log(magic_odds_ratio())
        assert lhs == pytest.approx(1.0 + lambert_w0(INV_E), abs=1e-10)

    def test_w0_of_inv_e(self):
        w = lambert_w0(INV_E)
        assert w * math.exp(w) == pytest.approx(INV_E, rel=1e-14)


def lagrange_residual(t):
    """Worst residual of the stationarity system recovered from two cells.

    The multipliers are solved from the p00/p01 equations and substituted
    into the remaining two; at a genuine critical point all four vanish.
    """
    lam1 = math.log(t.p00 / t.p01) / (1.0 / t.p00 + 1.0 / t.p01)
    lam2 = math.log(t.p00) + 1.0 - lam1 / t.p00
    res = (
        math.log(t.p01) + 1.0 + lam1 / t.p01 - lam2,
        math.log(t.p10) + 1.0 + lam1 / t.p10 - lam2,
        math.log(t.p11) + 1.0 - lam1 / t.p11 - lam2,
    )
    return max(abs(r) for r in res)


class TestCriticalPoints:
    @pytest.mark.parametrize("big_l", [2.0, 5.0, 12.0])
    def test_single_maximum_below_magic(self, big_l):
        pts = critical_points(big_l)
        assert len(pts) == 1
        assert pts[0].branch == "diag"
        assert pts[0].classification == "maximum"

    @pytest.mark.parametrize("big_l", [14.0, 40.0, 400.0])
    def test_saddle_plus_two_maxima_above_magic(self, big_l):
        pts = critical_points(big_l)
        assert [p.branch for p in pts] == ["diag", "L_upper", "L_lower"]
        assert [p.classification for p in pts] == ["saddle", "maximum", "maximum"]
        upper, lower = pts[1], pts[2]
        assert upper.table.p01 > upper.table.p10
        # The two maxima are transposes of one another.
        mirrored = symmetry_apply(upper.table, "transpose_markers")
        for a, b in zip(mirrored.cells, lower.table.cells):
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("big_l", [14.0, 40.0, 1e300, 1.0 / 40.0, 1e-300])
    def test_maxima_are_exact_mirror_images(self, big_l):
        # Transposes of one another for L > 1; for L < 1, after the column
        # swap, 180-degree rotations.  The diagonal point has y = z = 0.
        diag, upper, lower = critical_points(big_l)
        p00, p01, p10, p11 = upper.table.cells
        mirror = (p00, p10, p01, p11) if big_l > 1.0 else (p11, p10, p01, p00)
        assert lower.table.cells == mirror
        assert (diag.coords.y, diag.coords.z) == (0.0, 0.0)
        if big_l > 1.0:
            assert (lower.coords.y, lower.coords.z) == (upper.coords.z, upper.coords.y)
        else:
            assert (lower.coords.y, lower.coords.z) == (-upper.coords.y, -upper.coords.z)

    def test_diagonal_closed_form(self):
        pts = critical_points(5.0)
        root = math.sqrt(5.0)
        a = root / (2.0 * (1.0 + root))
        b = 1.0 / (2.0 * (1.0 + root))
        for got, want in zip(pts[0].table.cells, (a, b, b, a)):
            assert got == pytest.approx(want, abs=1e-14)

    def test_unit_odds_ratio_is_midpoint(self):
        pts = critical_points(1.0)
        assert len(pts) == 1
        for p in pts[0].table.cells:
            assert p == pytest.approx(0.25, abs=1e-14)

    def test_odds_ratio_below_one_is_column_swap_mirror(self):
        for big_l in (0.2, 1.0 / 40.0):
            pts = critical_points(big_l)
            mirror = critical_points(1.0 / big_l)
            assert len(pts) == len(mirror)
            for got, ref in zip(pts, mirror):
                swapped = symmetry_apply(ref.table, "swap_cols")
                for a, b in zip(got.table.cells, swapped.cells):
                    assert a == pytest.approx(b, abs=1e-14)
                assert odds_ratio(got.table) == pytest.approx(big_l, rel=1e-9)

    def test_domain_errors(self):
        for bad in (0.0, -3.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                critical_points(bad)

    def test_reciprocal_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="1e-310"):
            critical_points(1e-310)
        # The smallest L with a finite reciprocal is solved.
        tiny = math.nextafter(1.0 / sys.float_info.max, 1.0)
        assert math.isfinite(1.0 / tiny)
        assert len(critical_points(tiny)) == 3
        assert len(critical_points(sys.float_info.max)) == 3

    @pytest.mark.parametrize("big_l", [1e300, 1e-300])
    def test_extreme_odds_ratios_solve(self, big_l):
        pts = critical_points(big_l)
        assert [p.branch for p in pts] == ["diag", "L_upper", "L_lower"]
        for pt in pts:
            p00, p01, p10, p11 = pt.table.cells
            log_odds = math.log(p00) + math.log(p11) - math.log(p01) - math.log(p10)
            assert abs(log_odds - math.log(big_l)) <= 1e-9

    def test_three_points_just_above_magic(self):
        big_l = magic_odds_ratio()
        for _ in range(100):
            big_l = math.nextafter(big_l, math.inf)
            pts = critical_points(big_l)
            assert [p.classification for p in pts] == ["saddle", "maximum", "maximum"]

    @pytest.mark.parametrize("big_l", [14.0, 40.0, 400.0, 1e6, 1e300, 1.0 / 40.0])
    def test_l_shaped_maxima_solve_the_lambert_w_form(self, big_l):
        # (c*a, c*B, c*S) = (1/W0(u), -1/W0(-u), -1/W-1(-u)) for the corner a,
        # big cell B and small cell S of an L-shaped table.
        for pt in critical_points(big_l)[1:]:
            table = pt.table
            if big_l < 1.0:
                table = symmetry_apply(table, "swap_cols")
            a, big, small = table.p00, max(table.p01, table.p10), min(table.p01, table.p10)
            c = (1.0 / small - 1.0 / big) / math.log(big / small)
            inv_ca = 1.0 / (c * a)
            u = inv_ca * math.exp(inv_ca)
            want = (1.0 / lambert_w0(u), -1.0 / lambert_w0(-u), -1.0 / lambert_w_minus1(-u))
            for got, w in zip((c * a, c * big, c * small), want):
                assert got == pytest.approx(w, rel=1e-9)

    @pytest.mark.parametrize("big_l", [2.0, 5.0, 12.0, 14.0, 40.0, 400.0, 1e6])
    def test_stationarity_residuals(self, big_l):
        for pt in critical_points(big_l):
            assert lagrange_residual(pt.table) <= 1e-8
            assert odds_ratio(pt.table) == pytest.approx(big_l, rel=1e-9)

    def test_coordinate_invariants(self):
        for big_l in (5.0, 40.0):
            for pt in critical_points(big_l):
                assert pt.coords.x == pytest.approx(0.5 * math.log(big_l), abs=1e-9)
                if pt.branch == "diag":
                    assert abs(pt.coords.y) < 1e-12
                    assert abs(pt.coords.z) < 1e-12

    def test_bifurcation_boundary(self):
        magic = magic_odds_ratio()
        assert len(critical_points(magic * (1.0 - 1e-3))) == 1
        assert len(critical_points(magic * (1.0 + 1e-3))) == 3

    def test_branches_collapse_continuously_at_magic(self):
        magic = magic_odds_ratio()
        dists = []
        for k in range(1, 7):
            pts = critical_points(magic + 10.0 ** (-k) * magic)
            diag, upper = pts[0].table, pts[1].table
            dists.append(max(abs(a - b) for a, b in zip(diag.cells, upper.cells)))
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-2

    def test_extreme_odds_ratio_limit(self):
        pts = critical_points(1e6)
        for pt in pts[1:]:
            big = sorted(pt.table.cells, reverse=True)
            for cell in big[:3]:
                assert cell == pytest.approx(1.0 / 3.0, abs=0.01)
            assert big[3] < 0.01


class TestEntropyGridOracle:
    def test_grid_examples(self):
        y, z, h = entropy_grid_argmax(1.0, 2.0, 0.05)
        assert (y, z) == (0.0, 0.0)
        assert h == pytest.approx(2.0, abs=1e-12)
        y, z, _ = entropy_grid_argmax(5.0, 4.0, 0.05)
        assert (y, z) == (0.0, 0.0)

    def test_symmetric_pair_above_magic(self):
        y, z, h = entropy_grid_argmax(40.0, 8.0, 0.05)
        assert y == pytest.approx(1.6, abs=1e-9)
        assert z == pytest.approx(-1.6, abs=1e-9)
        # The transpose image attains the same entropy on the grid.
        x = 0.5 * math.log(40.0)
        from twobytwo import MarginCoords, psi

        assert entropy(psi(MarginCoords(x, z, y))) == pytest.approx(h, abs=1e-12)

    @pytest.mark.parametrize("big_l", [2.0, 5.0, 12.0, 14.0, 40.0, 400.0])
    def test_solver_matches_grid_oracle(self, big_l):
        step = 0.01
        gy, gz, _ = entropy_grid_argmax(big_l, 8.0, step)
        maxima = [p for p in critical_points(big_l) if p.classification == "maximum"]
        best = min(
            maxima,
            key=lambda p: max(abs(p.coords.y - gy), abs(p.coords.z - gz)),
        )
        assert abs(best.coords.y - gy) <= step + 1e-12
        assert abs(best.coords.z - gz) <= step + 1e-12

    def test_oracle_is_the_first_maximum_of_the_entropy_grid(self):
        sink = io.BytesIO()
        emit_grid(GridSpec(MeasureKind.from_cli("H"), 40.0, 2.0, 0.25), sink)
        best = None
        for line in sink.getvalue().decode("ascii").splitlines()[1:]:
            y, z, h = (float(v) for v in line.split(","))
            if best is None or h > best[2]:
                best = (y, z, h)
        assert entropy_grid_argmax(40.0, 2.0, 0.25) == best

    def test_grid_rejects_step_wider_than_grid(self):
        with pytest.raises(ValueError):
            entropy_grid_argmax(5.0, 1.0, 2.5)

    def test_grid_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            entropy_grid_argmax(-1.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            entropy_grid_argmax(5.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            entropy_grid_argmax(5.0, -2.0, 0.1)
