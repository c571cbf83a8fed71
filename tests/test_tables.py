"""Tests for tables: construction, group action, coordinates, boundaries."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twobytwo import (
    BoundaryKind,
    DegenerateTable,
    MarginCoords,
    ProbTable,
    make_table,
    margin_transform,
    odds_ratio,
    psi,
    psi_cells,
    ray_limit,
    symmetry_apply,
    theta,
)
from conftest import max_roundtrip_error, random_tables

MIDPOINT = make_table(1, 1, 1, 1)


def assert_table_close(t, cells, tol=1e-12):
    for got, want in zip(t.cells, cells):
        assert got == pytest.approx(want, abs=tol)


class TestMakeTable:
    def test_uniform_weights_give_midpoint(self):
        assert_table_close(make_table(1, 1, 1, 1), (0.25, 0.25, 0.25, 0.25))

    def test_normalized_input_unchanged(self):
        assert_table_close(make_table(0.4, 0.1, 0.2, 0.3), (0.4, 0.1, 0.2, 0.3))

    def test_raw_weights_renormalized(self):
        assert_table_close(make_table(4, 1, 2, 3), (0.4, 0.1, 0.2, 0.3))

    def test_sum_is_one(self):
        t = make_table(0.31, 0.22, 0.17, 0.05)
        assert abs(sum(t.cells) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "cells",
        [(0, 1, 1, 1), (-0.1, 1, 1, 1), (math.nan, 1, 1, 1), (math.inf, 1, 1, 1)],
    )
    def test_rejects_bad_weights(self, cells):
        with pytest.raises(DegenerateTable):
            make_table(*cells)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
    def test_numpy_scalar_cells(self, dtype):
        cells = (1, 2, 3, 4)
        assert ProbTable(*(dtype(v) for v in cells)) == ProbTable(*cells)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_rejects_booleans(self, flag):
        with pytest.raises(DegenerateTable):
            ProbTable(flag, 1, 1, 1)

    def test_margins_and_det(self):
        t = make_table(0.4, 0.1, 0.2, 0.3)
        assert t.row0 == pytest.approx(0.5)
        assert t.row1 == pytest.approx(0.5)
        assert t.col0 == pytest.approx(0.6)
        assert t.col1 == pytest.approx(0.4)
        assert t.det == pytest.approx(0.10)


class TestMarginTransform:
    def test_identity(self):
        t = make_table(0.4, 0.1, 0.2, 0.3)
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
        t = make_table(0.4, 0.1, 0.2, 0.3)
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
        t = make_table(0.4, 0.1, 0.2, 0.3)
        got = margin_transform(t, np.float32(2.0), np.float32(0.5))
        assert got == margin_transform(t, 2.0, 0.5)

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
            t = make_table(root, 1, 1, root)
            c = theta(t)
            assert c.x == pytest.approx(0.5 * math.log(lam), abs=1e-12)
            assert abs(c.y) < 1e-12 and abs(c.z) < 1e-12

    def test_known_coordinates(self):
        c = theta(make_table(0.4, 0.1, 0.2, 0.3))
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
        t = make_table(0.4, 0.1, 0.2, 0.3)
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
        cells = np.array(psi_cells(*points.T))
        assert cells.shape == (4, len(points))
        for point, got in zip(points.tolist(), cells.T.tolist()):
            want = psi(MarginCoords(*point)).cells
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-15 * w, point

    def test_coords_must_be_finite(self):
        with pytest.raises(ValueError):
            MarginCoords(math.inf, 0, 0)

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


class TestSymmetry:
    def test_transpose_markers(self):
        t = symmetry_apply(make_table(0.4, 0.1, 0.2, 0.3), "transpose_markers")
        assert_table_close(t, (0.4, 0.2, 0.1, 0.3))

    def test_swaps_are_involutions(self):
        t = make_table(0.4, 0.1, 0.2, 0.3)
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

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            ray_limit((0, 0, 0))

    @pytest.mark.parametrize("direction", [(math.nan, 0, 0), (math.inf, 0, 0), (0, -math.inf, 1)])
    def test_non_finite_direction_rejected(self, direction):
        with pytest.raises(ValueError, match="finite"):
            ray_limit(direction)
