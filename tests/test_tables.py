"""Tests for tables: construction, group action, coordinates, boundaries."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twobytwo import (
    BoundaryClass,
    BoundaryKind,
    DegenerateTable,
    MarginCoords,
    MeasureKind,
    ProbTable,
    d_raw,
    margin_transform,
    odds_ratio,
    psi,
    psi_cells,
    ray_limit,
    symmetry_apply,
    theta,
    yule_y,
)
from twobytwo import tables
from twobytwo.tables import cell_total, cells_and_logs
from conftest import max_roundtrip_error, random_tables

MIDPOINT = ProbTable(1, 1, 1, 1)


def assert_table_close(t, cells, tol=1e-12):
    for got, want in zip(t.cells, cells):
        assert got == pytest.approx(want, abs=tol)


class TestMakeTable:
    def test_uniform_weights_give_midpoint(self):
        assert_table_close(ProbTable(1, 1, 1, 1), (0.25, 0.25, 0.25, 0.25))

    def test_normalized_input_unchanged(self):
        assert_table_close(ProbTable(0.4, 0.1, 0.2, 0.3), (0.4, 0.1, 0.2, 0.3))

    def test_raw_weights_renormalized(self):
        assert_table_close(ProbTable(4, 1, 2, 3), (0.4, 0.1, 0.2, 0.3))

    def test_sum_is_one(self):
        t = ProbTable(0.31, 0.22, 0.17, 0.05)
        assert abs(sum(t.cells) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "cells",
        [
            (0, 1, 1, 1),
            (-0.1, 1, 1, 1),
            (math.nan, 1, 1, 1),
            (math.inf, 1, 1, 1),
            # Every weight is finite, but their sum is not.
            (1e308, 1e308, 1, 1),
        ],
    )
    def test_rejects_bad_weights(self, cells):
        with pytest.raises(DegenerateTable):
            ProbTable(*cells)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_numpy_scalar_cells(self, dtype):
        cells = (1, 2, 3, 4)
        assert ProbTable(*(dtype(v) for v in cells)) == ProbTable(*cells)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_booleans(self, flag):
        with pytest.raises(DegenerateTable):
            ProbTable(flag, 1, 1, 1)

    def test_the_four_cells_are_the_only_parameters(self):
        assert list(inspect.signature(ProbTable).parameters) == ["p00", "p01", "p10", "p11"]
        with pytest.raises(TypeError):
            ProbTable(1, 2, 3, 4, exact_logs=(0.0, 0.0, 0.0, 0.0))

    def test_margins_and_det(self):
        t = ProbTable(0.4, 0.1, 0.2, 0.3)
        assert t.row0 == pytest.approx(0.5)
        assert t.row1 == pytest.approx(0.5)
        assert t.col0 == pytest.approx(0.6)
        assert t.col1 == pytest.approx(0.4)
        assert d_raw(t) == pytest.approx(0.10)


class TestMarginTransform:
    def test_identity(self):
        t = ProbTable(0.4, 0.1, 0.2, 0.3)
        assert_table_close(margin_transform(t, 1, 1), t.cells)

    def test_composition_is_group_law(self):
        rng = np.random.default_rng(3)
        for t in random_tables(200, 4):
            mu, nu, mu2, nu2 = rng.uniform(1e-2, 1e2, size=4)
            lhs = margin_transform(margin_transform(t, mu, nu), mu2, nu2)
            rhs = margin_transform(t, mu * mu2, nu * nu2)
            for a, b in zip(lhs.cells, rhs.cells):
                assert abs(a - b) < 1e-12

    def test_representant_with_half_margins(self):
        t = ProbTable(0.4, 0.1, 0.2, 0.3)
        mu = math.sqrt(t.p10 * t.p11 / (t.p00 * t.p01))
        nu = math.sqrt(t.p01 * t.p11 / (t.p00 * t.p10))
        rep = margin_transform(t, mu, nu)
        assert rep.row0 == pytest.approx(0.5, abs=1e-12)
        assert rep.col0 == pytest.approx(0.5, abs=1e-12)
        assert odds_ratio(rep) == pytest.approx(odds_ratio(t), rel=1e-12)

    def test_odds_ratio_invariant(self):
        rng = np.random.default_rng(5)
        for t in random_tables(500, 6):
            mu, nu = rng.uniform(1e-3, 1e3, size=2)
            assert odds_ratio(margin_transform(t, mu, nu)) == pytest.approx(
                odds_ratio(t), rel=1e-10
            )

    def test_numpy_float32_scalars(self):
        t = ProbTable(0.4, 0.1, 0.2, 0.3)
        got = margin_transform(t, np.float32(2.0), np.float32(0.5))
        assert got == margin_transform(t, 2.0, 0.5)

    def test_identity_keeps_a_table_far_out(self):
        # p10 = e^-800 is floored to a subnormal in the cells, not in the logs.
        t = margin_transform(psi(MarginCoords(1, 400, -400)), 1, 1)
        c = theta(t)
        assert (c.x, c.y, c.z) == pytest.approx((1.0, 400.0, -400.0), rel=1e-13)
        assert abs(yule_y(t) - 0.46211715726000974) <= 1e-12

    @given(
        st.tuples(*[st.floats(-500, 500) for _ in range(3)]),
        st.floats(-50, 50),
        st.floats(-50, 50),
    )
    @settings(max_examples=300)
    def test_is_a_translation_of_the_margin_coordinates(self, xyz, log_mu, log_nu):
        c = MarginCoords(*xyz)
        mu, nu = math.exp(log_mu), math.exp(log_nu)
        got = theta(margin_transform(psi(c), mu, nu))
        want = (c.x, c.y + math.log(mu), c.z + math.log(nu))
        for g, w in zip((got.x, got.y, got.z), want):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w)), (xyz, log_mu, log_nu)

    @pytest.mark.parametrize("mu,nu", [(0, 1), (1, 0), (-2, 1), (math.nan, 1)])
    def test_rejects_bad_scalars(self, mu, nu):
        with pytest.raises(DegenerateTable):
            margin_transform(MIDPOINT, mu, nu)


class TestCoordinates:
    def test_midpoint_maps_to_origin(self):
        c = theta(MIDPOINT)
        assert (c.x, c.y, c.z) == (0.0, 0.0, 0.0)

    def test_diagonal_table_on_x_axis(self):
        for lam in (5.0, 40.0, 0.2):
            root = math.sqrt(lam)
            t = ProbTable(root, 1, 1, root)
            c = theta(t)
            assert c.x == pytest.approx(0.5 * math.log(lam), abs=1e-12)
            assert abs(c.y) < 1e-12 and abs(c.z) < 1e-12

    def test_known_coordinates(self):
        c = theta(ProbTable(0.4, 0.1, 0.2, 0.3))
        assert c.x == pytest.approx(0.5 * math.log(0.12 / 0.02), abs=1e-12)
        assert c.y == pytest.approx(0.5 * math.log(0.04 / 0.06), abs=1e-12)
        assert c.z == pytest.approx(0.5 * math.log(0.08 / 0.03), abs=1e-12)
        assert (c.x, c.y, c.z) == pytest.approx((0.8959, -0.2027, 0.4904), abs=5e-5)

    def test_psi_origin_is_midpoint(self):
        assert_table_close(psi(MarginCoords(0, 0, 0)), (0.25, 0.25, 0.25, 0.25))

    def test_psi_diagonal_odds_ratio(self):
        t = psi(MarginCoords(0.5 * math.log(40), 0, 0))
        assert odds_ratio(t) == pytest.approx(40.0, rel=1e-12)

    def test_round_trip_table(self):
        t = ProbTable(0.4, 0.1, 0.2, 0.3)
        assert_table_close(psi(theta(t)), t.cells, tol=1e-12)

    def test_round_trip_sweep(self):
        assert max_roundtrip_error(count=10_000, seed=21) < 1e-10

    def test_x_is_log_sqrt_odds_ratio(self):
        for t in random_tables(1000, 22):
            assert theta(t).x == pytest.approx(
                0.5 * math.log(odds_ratio(t)), abs=1e-12
            )

    def test_orbits_are_constant_x_planes(self):
        rng = np.random.default_rng(23)
        for t in random_tables(500, 24):
            mu, nu = rng.uniform(1e-3, 1e3, size=2)
            assert theta(margin_transform(t, mu, nu)).x == pytest.approx(
                theta(t).x, abs=1e-10
            )

    @pytest.mark.parametrize(
        "coords", [(500, 0, 0), (500, 500, 500), (-500, 200, -500), (0, 0, 500)]
    )
    def test_psi_extreme_coordinates_stay_positive(self, coords):
        t = psi(MarginCoords(*coords))
        assert min(t.cells) > 0.0
        assert all(math.isfinite(p) for p in t.cells)

    def test_psi_cells_match_psi_on_arrays(self):
        rng = np.random.default_rng(25)
        corners = np.array(np.meshgrid(*[(-500.0, 500.0)] * 3)).reshape(3, -1).T
        points = np.concatenate(
            [corners, rng.uniform(-500, 500, size=(200, 3)), rng.uniform(-10, 10, size=(200, 3))]
        )
        cells, logs, x = (np.array(a) for a in psi_cells(*points.T))
        assert cells.shape == logs.shape == (4, len(points))
        assert (bits(x) == bits(points[:, 0])).all()
        for point, got, got_logs in zip(points.tolist(), cells.T.tolist(), logs.T.tolist()):
            t = psi(MarginCoords(*point))
            for g, w in zip(got, t.cells):
                assert abs(g - w) <= 1e-15 * w, point
            assert tuple(got_logs) == t.logs, point
            assert t.x == point[0], point

    def test_coords_must_be_finite(self):
        with pytest.raises(ValueError):
            MarginCoords(math.inf, 0, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.0], [np.nan]]),
            np.array([[1.0], [-np.inf]]),
            np.array([[True], [False]]),
            np.array([[1.0], ["1"]], dtype=object),
            np.array([[1.0 + 0.0j], [2.0]]),
        ],
        ids=["nan", "-inf", "bool", "object", "complex"],
    )
    def test_psi_cells_checks_every_array_element(self, bad):
        with pytest.raises(ValueError, match="coordinate y must be finite"):
            psi_cells(0.5, bad, np.zeros(3))

    def test_psi_cells_takes_real_arrays_as_float64(self):
        ints = psi_cells(1, np.array([[0], [-3]], dtype=np.int32), np.array([2, 5], dtype=np.uint8))
        floats = psi_cells(1.0, np.array([[0.0], [-3.0]]), np.array([2.0, 5.0]))
        assert (bits(ints[:2]) == bits(floats[:2])).all()
        assert bits(ints[2]) == bits(floats[2]) == bits(1.0)

    @pytest.mark.parametrize(
        # x + y + z, or the log-ratio of two cells, overflows.
        "coords", [(1e308, 1e308, 1e308), (-1e308, 0.0, 1e308), (0.0, 1.7e308, -1.7e308)]
    )
    def test_psi_with_a_log_that_is_not_finite_is_degenerate(self, coords):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTable, match="not finite"):
                psi(MarginCoords(*coords))
        # The array form keeps raising where the kernels run under errstate.
        with pytest.raises(FloatingPointError):
            MeasureKind("yule_y").on_coords(*coords)

    def test_psi_is_finite_up_to_half_the_largest_double(self):
        t = psi(MarginCoords(8.9e307, -8.9e307, 8.9e307))
        assert all(math.isfinite(v) for v in t.cells + t.logs)

    @given(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        )
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, xyz):
        c = MarginCoords(*xyz)
        back = theta(psi(c))
        assert max(abs(back.x - c.x), abs(back.y - c.y), abs(back.z - c.z)) < 1e-10


class TestLogCells:
    def test_logs_match_mpmath(self):
        rng = np.random.default_rng(27)
        weights = rng.uniform(1e-3, 1.0, size=(200, 4)).tolist() + [
            (1, 1e-300, 1e-300, 1e-300),
            (5e-324, 1, 1, 1e300),
            (3, 1e-17, 1e-17, 1e-16),
        ]
        with mpmath.workdps(700):
            for w in weights:
                total = mpmath.fsum(mpmath.mpf(v) for v in w)
                for got, v in zip(ProbTable(*w).logs, w):
                    # Relative, so the dominant cell's log of about -3e-300
                    # must be right too.
                    want = mpmath.log(mpmath.mpf(v) / total)
                    assert abs(got - want) <= 1e-14 * abs(want), (w, got)

    def test_broadcast_equals_one_table_at_a_time(self):
        rng = np.random.default_rng(28)
        weights = np.concatenate(
            [rng.integers(0, 50, size=(4, 300)) + 0.5, rng.uniform(1e-300, 1.0, size=(4, 300))],
            axis=1,
        )
        logs = np.array(cells_and_logs(weights)[1])
        for column, got in zip(weights.T.tolist(), logs.T.tolist()):
            assert tuple(got) == ProbTable(*column).logs

    @pytest.mark.parametrize("weights", [(5e-324, 1e308, 1, 1), (5e-324, 1, 1, 1e300)])
    def test_a_cell_that_underflows_is_floored_and_keeps_its_log(self, weights):
        # 5e-324 over a total of 1e300 or more rounds to 0: the cell is
        # floored at the smallest positive double, as psi floors its cells.
        t = ProbTable(*weights)
        assert min(t.cells) > 0.0
        assert t.p00 == 5e-324
        w = np.array(weights, dtype=float)
        assert t.logs == tuple(np.array(cells_and_logs(w)[1]).tolist())
        assert t.cells[1:] == tuple((w / ((w[0] + w[3]) + (w[1] + w[2]))).tolist()[1:])

    def test_psi_logs_are_exact_below_the_floor(self):
        # p11 = e^-1000 is floored to a subnormal; its log is not.
        t = psi(MarginCoords(0.0, 500.0, 500.0))
        assert t.p11 > 0.0
        assert t.logs[3] == pytest.approx(-1000.0, rel=1e-15)

    def test_replace_takes_the_logs_of_the_new_cells(self):
        t = psi(MarginCoords(0.0, 500.0, 500.0))
        moved = dataclasses.replace(t, p00=0.5)
        assert moved.logs == ProbTable(0.5, t.p01, t.p10, t.p11).logs

    def test_symmetries_move_the_logs(self):
        t = psi(MarginCoords(0.0, 500.0, 500.0))
        for op, order in (
            ("transpose_markers", (0, 2, 1, 3)),
            ("swap_rows", (2, 3, 0, 1)),
            ("swap_cols", (1, 0, 3, 2)),
        ):
            assert symmetry_apply(t, op).logs == tuple(t.logs[i] for i in order)


def bits(values):
    """The 64-bit patterns of float values, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestOneTableIsAColumnOfAnArray:
    """psi and ProbTable, on the floats of one table, give the bits of
    psi_cells and cells_and_logs on arrays: a table is a column of a grid
    block or a scan tile."""

    def test_psi_equals_psi_cells_bit_for_bit(self):
        rng = np.random.default_rng(41)
        corners = np.array(list(itertools.product((-500.0, 0.0, 500.0), repeat=3)))
        magnitudes = 10.0 ** rng.uniform(-300, np.log10(500), size=(1_000, 3))
        near_independence = np.column_stack(
            [rng.uniform(-1e-6, 1e-6, 2_000), rng.uniform(-30, 30, size=(2_000, 2))]
        )
        points = np.concatenate([
            corners,
            rng.uniform(-500, 500, size=(5_000, 3)),
            rng.uniform(-20, 20, size=(2_000, 3)),
            magnitudes * rng.choice((-1.0, 1.0), size=magnitudes.shape),
            near_independence,
        ])
        assert len(points) >= 10_000
        cells, logs, x = (np.array(a) for a in psi_cells(*points.T))
        one_by_one = [psi(MarginCoords(*point)) for point in points.tolist()]
        assert (bits([t.cells for t in one_by_one]) == bits(cells.T)).all()
        assert (bits([t.logs for t in one_by_one]) == bits(logs.T)).all()
        assert (bits([t.x for t in one_by_one]) == bits(x)).all()

    def test_probtable_equals_cells_and_logs_bit_for_bit(self):
        rng = np.random.default_rng(42)
        n = 12_000
        weights = np.concatenate([
            rng.uniform(0.0, 1.0, size=(4, n // 3)),
            rng.integers(0, 1_000, size=(4, n // 3)) + 0.5,
            10.0 ** rng.uniform(-323, 308, size=(4, n // 3)),
        ], axis=1)
        # The extremes of the double range, in random cells.
        for extreme in (5e-324, 1e308):
            weights[rng.integers(0, 4, n // 4), rng.integers(0, n, n // 4)] = extreme
        with np.errstate(over="ignore"):  # ProbTable rejects an infinite total
            ok = (weights > 0.0).all(axis=0) & np.isfinite(cell_total(weights))
        weights = weights[:, ok]
        assert weights.shape[1] > 10_000
        assert (weights == 5e-324).any() and (weights == 1e308).any()
        cells, logs, x = (np.array(a) for a in cells_and_logs(weights))
        one_by_one = [ProbTable(*column) for column in weights.T.tolist()]
        assert (bits([t.cells for t in one_by_one]) == bits(cells.T)).all()
        assert (bits([t.logs for t in one_by_one]) == bits(logs.T)).all()
        assert (bits([t.x for t in one_by_one]) == bits(x)).all()

    def test_a_column_whose_total_overflows_fails_as_probtable_does(self):
        weights = np.array([
            [0.4, 1e308, 5e-324],
            [0.1, 1e308, 1.0],
            [0.2, 1e308, 1e308],
            [0.3, 1e308, 2.0],
        ])
        with pytest.raises(DegenerateTable) as one_table:
            ProbTable(1e308, 1e308, 1e308, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning comes first
            with pytest.raises(DegenerateTable) as array:
                cells_and_logs(weights)
        assert str(array.value) == str(one_table.value)
        finite = weights[:, [0, 2]]
        cells, logs, x = (np.array(a) for a in cells_and_logs(finite))
        one_by_one = [ProbTable(*column) for column in finite.T.tolist()]
        assert (bits([t.cells for t in one_by_one]) == bits(cells.T)).all()
        assert (bits([t.logs for t in one_by_one]) == bits(logs.T)).all()
        assert (bits([t.x for t in one_by_one]) == bits(x)).all()

    def test_psi_past_the_no_overflow_bound_fails_where_psi_cells_does(self):
        # Where a log of the array form is not finite, psi raises; elsewhere it
        # gives the same bits.  No warning either way (warnings are errors).
        rng = np.random.default_rng(43)
        magnitudes = 10.0 ** rng.uniform(307.0, np.log10(1.7e308), size=(2_000, 3))
        points = magnitudes * rng.choice((-1.0, 0.0, 1.0), size=magnitudes.shape)
        assert (np.abs(points).max(axis=1) > 2.0**1022).mean() > 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            cells, logs, x = (np.array(a) for a in psi_cells(*points.T))
        finite = np.isfinite(logs).all(axis=0)
        assert 100 < finite.sum() < len(points) - 100
        for point, ok, want_cells, want_logs, want_x in zip(
            points.tolist(), finite, cells.T, logs.T, x
        ):
            if ok:
                t = psi(MarginCoords(*point))
                assert (bits(t.cells) == bits(want_cells)).all(), point
                assert (bits(t.logs) == bits(want_logs)).all(), point
                assert bits(t.x) == bits(want_x), point
            else:
                with pytest.raises(DegenerateTable, match="not finite"):
                    psi(MarginCoords(*point))

    @pytest.mark.parametrize(
        "coords,message",
        [
            ((math.inf, math.nan, 0.0), "coordinate x must be finite, got inf"),
            ((0.0, math.nan, -math.inf), "coordinate y must be finite, got nan"),
            ((0.0, 1.0, -math.inf), "coordinate z must be finite, got -inf"),
            ((np.float64(1.0), "inf", 2.0), "coordinate y must be finite, got 'inf'"),
        ],
    )
    def test_margin_coords_names_the_first_coordinate_that_is_not_finite(self, coords, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MarginCoords(*coords)

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "inf", True, None], ids=repr)
    def test_margin_coords_and_psi_cells_raise_one_error(self, bad, position):
        # Both take a coordinate through one check, so they refuse the same
        # values with the same text.
        coords = [0.5, -1.0, 2.0]
        coords[position] = bad
        message = f"coordinate {'xyz'[position]} must be finite, got {bad!r}"
        for make in (MarginCoords, psi_cells):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(*coords)


class TestTheProducersKeepX:
    """Each producer of a table holds x next to its cells and logs."""

    def test_theta_of_psi_gives_back_x_to_the_bit(self):
        rng = np.random.default_rng(44)
        points = rng.uniform(-500.0, 500.0, size=(10_000, 3))
        points[:2_000, 0] = rng.uniform(-1e-6, 1e-6, 2_000)
        for point in points.tolist():
            assert bits(theta(psi(MarginCoords(*point))).x) == bits(point[0]), point

    def test_symmetries_carry_x_as_half_log_odds_of_the_moved_logs(self):
        weights = np.random.default_rng(45).uniform(1e-3, 1.0, size=(300, 4)).tolist()
        for w in weights + [(1, 1, 1, 1), (2, 3, 3, 2), (5e-324, 1, 1, 1e300)]:
            t = ProbTable(*w)
            assert bits(t.x) == bits(tables.half_log_odds(t.logs)), w
            for op in ("transpose_markers", "swap_rows", "swap_cols"):
                moved = symmetry_apply(t, op)
                assert bits(moved.x) == bits(tables.half_log_odds(moved.logs)), (w, op)

    def test_symmetries_of_psi_carry_its_x(self):
        for x in (0.0, -0.0, 1e-300, -2.5, 400.0):
            t = psi(MarginCoords(x, 1.5, -0.25))
            assert bits(symmetry_apply(t, "transpose_markers").x) == bits(x)
            for op in ("swap_rows", "swap_cols"):
                # 0.0 - x: a zero x of either sign becomes +0.0.
                assert bits(symmetry_apply(t, op).x) == bits(0.0 - x), (x, op)


class TestSymmetry:
    def test_transpose_markers(self):
        t = symmetry_apply(ProbTable(0.4, 0.1, 0.2, 0.3), "transpose_markers")
        assert_table_close(t, (0.4, 0.2, 0.1, 0.3))

    def test_swaps_are_involutions(self):
        t = ProbTable(0.4, 0.1, 0.2, 0.3)
        for op in ("transpose_markers", "swap_rows", "swap_cols"):
            assert_table_close(symmetry_apply(symmetry_apply(t, op), op), t.cells)

    def test_swap_rows_inverts_odds_ratio(self):
        for t in random_tables(100, 25):
            assert odds_ratio(symmetry_apply(t, "swap_rows")) == pytest.approx(
                1.0 / odds_ratio(t), rel=1e-10
            )

    def test_coordinate_action(self):
        for t in random_tables(100, 26):
            c = theta(t)
            ct = theta(symmetry_apply(t, "transpose_markers"))
            assert (ct.x, ct.y, ct.z) == pytest.approx((c.x, c.z, c.y), abs=1e-12)
            cr = theta(symmetry_apply(t, "swap_rows"))
            assert (cr.x, cr.y, cr.z) == pytest.approx((-c.x, -c.y, c.z), abs=1e-12)
            cc = theta(symmetry_apply(t, "swap_cols"))
            assert (cc.x, cc.y, cc.z) == pytest.approx((-c.x, c.y, -c.z), abs=1e-12)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            symmetry_apply(MIDPOINT, "rotate")


class TestRayLimit:
    def test_all_positive_direction_hits_vertex(self):
        s = 1.0 / math.sqrt(3.0)
        cells, cls = ray_limit((s, s, s))
        assert cells == (1.0, 0.0, 0.0, 0.0)
        assert cls.kind is BoundaryKind.VERTEX_SINGLE_ONE
        assert cls.detail == "p00"

    def test_three_way_tie_hits_face(self):
        s = 1.0 / math.sqrt(3.0)
        cells, cls = ray_limit((-s, s, s))
        assert cells == pytest.approx((1 / 3, 1 / 3, 1 / 3, 0.0))
        assert cls.kind is BoundaryKind.FACE_SINGLE_ZERO
        assert cls.detail == "p11"

    def test_x_axis_hits_anti_diagonal_edge(self):
        cells, cls = ray_limit((1, 0, 0))
        assert cells == (0.5, 0.0, 0.0, 0.5)
        assert cls.kind is BoundaryKind.DIAGONAL_EDGE_ANTI

    def test_negative_x_axis_hits_main_diagonal_edge(self):
        cells, cls = ray_limit((-1, 0, 0))
        assert cells == (0.0, 0.5, 0.5, 0.0)
        assert cls.kind is BoundaryKind.DIAGONAL_EDGE_MAIN

    def test_vanishing_row_and_column(self):
        cells, cls = ray_limit((0, 1, 0))
        assert cells == (0.5, 0.5, 0.0, 0.0)
        assert cls.kind is BoundaryKind.VANISHING_ROW
        assert cls.detail == "row1"
        cells, cls = ray_limit((0, 0, 1))
        assert cells == (0.5, 0.0, 0.5, 0.0)
        assert cls.kind is BoundaryKind.VANISHING_COLUMN
        assert cls.detail == "col1"

    def test_limits_match_psi_far_along_ray(self):
        # Convergence along the ray is driven by the spread of the cell
        # exponents, so directions with near-tied exponents are skipped.
        rng = np.random.default_rng(27)
        checked = 0
        while checked < 100:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            dx, dy, dz = d
            coeffs = sorted((dx + dy + dz, dy, dz, dx), reverse=True)
            if coeffs[0] - coeffs[1] < 0.05:
                continue
            cells, _ = ray_limit(tuple(d))
            far = psi(MarginCoords(*(2000.0 * d)))
            for got, want in zip(far.cells, cells):
                assert got == pytest.approx(want, abs=1e-9)
            checked += 1

    def test_limit_depends_only_on_the_direction(self):
        # Ties (integer directions) and random directions, at every scale.
        rng = np.random.default_rng(28)
        directions = [d for d in itertools.product(range(-2, 3), repeat=3) if any(d)]
        directions += [tuple(d) for d in rng.normal(size=(300, 3))]
        for d in directions:
            want = ray_limit(d)
            for c in (1e-300, 1e-12, 1e-9, 1e9, 1e300):
                assert ray_limit(tuple(c * np.asarray(d, dtype=float))) == want, (d, c)

    def test_largest_doubles(self):
        cells, cls = ray_limit((1e308, 1e308, 1e308))
        assert cells == (1.0, 0.0, 0.0, 0.0)
        assert cls == BoundaryClass(BoundaryKind.VERTEX_SINGLE_ONE, "p00")
        assert ray_limit((1e308, 1e308, -1e308)) == ray_limit((1, 1, -1))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            ray_limit((0, 0, 0))

    @pytest.mark.parametrize("direction", [(math.nan, 0, 0), (math.inf, 0, 0), (0, -math.inf, 1)])
    def test_non_finite_direction_rejected(self, direction):
        with pytest.raises(ValueError, match="finite"):
            ray_limit(direction)
