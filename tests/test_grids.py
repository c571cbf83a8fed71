"""Tests for grid emission: spec validation, determinism, shape properties."""

from __future__ import annotations

import io
import math

import pytest

from twobytwo import (
    GridSpec,
    MarginCoords,
    MeasureKind,
    emit_grid,
    eval_in_coords,
    evaluate,
    psi,
)
from twobytwo.grids import grid_axis
from twobytwo.measures import CLI_NAMES


def render(spec):
    sink = io.BytesIO()
    rows = emit_grid(spec, sink)
    return rows, sink.getvalue()


def parse(payload):
    lines = payload.decode("ascii").splitlines()
    assert lines[0] == "y,z,value"
    out = {}
    for line in lines[1:]:
        y, z, v = (float(part) for part in line.split(","))
        out[(y, z)] = v
    return out


class TestGridSpec:
    def test_valid(self):
        spec = GridSpec(MeasureKind("corr_r"), 5.0, 2.0, 0.5)
        assert len(grid_axis(spec)) == 9

    @pytest.mark.parametrize(
        "odds_ratio,half_width,step",
        [
            (0.0, 2.0, 0.5),
            (-1.0, 2.0, 0.5),
            (math.nan, 2.0, 0.5),
            (5.0, 0.0, 0.5),
            (5.0, -2.0, 0.5),
            (5.0, 2.0, 0.0),
            (5.0, 2.0, -0.1),
            (5.0, 2.0, 5.0),
        ],
    )
    def test_invalid(self, odds_ratio, half_width, step):
        with pytest.raises(ValueError):
            GridSpec(MeasureKind("corr_r"), odds_ratio, half_width, step)


class TestEmitGrid:
    def test_row_count_is_axis_squared(self):
        spec = GridSpec(MeasureKind("yule_y"), 5.0, 3.0, 0.25)
        n = int(round(2 * 3.0 / 0.25)) + 1
        rows, payload = render(spec)
        assert rows == n * n
        assert len(payload.splitlines()) == rows + 1

    def test_byte_identical_determinism(self):
        spec = GridSpec(MeasureKind("hs", 4.0), 40.0, 2.0, 0.5)
        assert render(spec)[1] == render(spec)[1]

    def test_yule_y_grid_is_constant(self):
        lam = 7.0
        spec = GridSpec(MeasureKind("yule_y"), lam, 2.0, 1.0)
        want = math.tanh(0.25 * math.log(lam))
        for value in parse(render(spec)[1]).values():
            assert value == pytest.approx(want, abs=1e-15)

    def test_corr_r_peaks_at_origin(self):
        spec = GridSpec(MeasureKind("corr_r"), 40.0, 4.0, 0.25)
        grid = parse(render(spec)[1])
        best = max(grid, key=grid.get)
        assert best == (0.0, 0.0)

    def test_hs_peak_structure_across_bifurcation(self):
        below = parse(render(GridSpec(MeasureKind("hs", 4.0), 5.0, 4.0, 0.25))[1])
        assert max(below, key=below.get) == (0.0, 0.0)

        above = parse(render(GridSpec(MeasureKind("hs", 4.0), 40.0, 4.0, 0.25))[1])
        top = sorted(above, key=above.get, reverse=True)[:2]
        assert all(yz != (0.0, 0.0) for yz in top)
        # The two leading peaks are transposes of one another.
        assert tuple(reversed(top[0])) == top[1]

    @pytest.mark.parametrize("tag", ["corr_r", "entropy", "hs"])
    def test_transpose_symmetry(self, tag):
        spec = GridSpec(MeasureKind(tag, 4.0), 12.0, 2.0, 0.5)
        grid = parse(render(spec)[1])
        for (y, z), value in grid.items():
            assert grid[(z, y)] == pytest.approx(value, abs=1e-12)

    def test_table_form_measures_also_emit(self):
        spec = GridSpec(MeasureKind("s_mut_inf"), 12.0, 1.0, 0.5)
        grid = parse(render(spec)[1])
        for (y, z), value in grid.items():
            assert grid[(z, y)] == pytest.approx(value, abs=1e-12)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("name", list(CLI_NAMES))
    @pytest.mark.parametrize("odds_ratio", [40.0, 0.2])
    def test_values_match_the_scalar_api(self, name, odds_ratio):
        kind = MeasureKind.from_cli(name)
        spec = GridSpec(kind, odds_ratio, 2.0, 0.5)
        x = 0.5 * math.log(odds_ratio)
        grid = parse(render(spec)[1])
        assert len(grid) == 9 * 9
        for (y, z), value in grid.items():
            c = MarginCoords(x, y, z)
            if kind.measure.coords is not None:
                want = eval_in_coords(kind, c)
            else:
                want = evaluate(kind, psi(c))
            assert abs(value - want) <= 1e-12, (y, z)
