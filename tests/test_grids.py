"""Tests for grid emission: spec validation, determinism, shape properties."""

from __future__ import annotations

import io
import math
import sys

import numpy as np
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
from twobytwo import grids
from twobytwo.grids import _repr_fields, _rows_per_block, grid_axis, grid_rows
from twobytwo.measures import CLI_NAMES
from twobytwo.tables import psi_cells


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
            (5.0, 1e308, 1e-10),
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


def per_row_rows(spec):
    """(y, values) of each row from one kernel call per row."""
    x = 0.5 * math.log(spec.odds_ratio)
    axis = grid_axis(spec)
    z = np.array(axis)
    kind = spec.measure
    for y in axis:
        if kind.measure.coords is not None:
            yield y, kind.on_coords(x, y, z)
        else:
            yield y, kind.on_cells(*psi_cells(x, y, z))


class TestBlocks:
    """Evaluating a block of rows per kernel call changes no bit."""

    @pytest.fixture(params=["partial last block", "one row per block"])
    def shape(self, request, monkeypatch):
        """(half_width, step) of a grid, and the row count of each of its blocks."""
        if request.param == "one row per block":
            # Rows of 21 cells against a budget of 16 cells.
            monkeypatch.setattr(grids, "_BLOCK_CELLS", 16)
            return 1.0, 0.1, [1] * 21
        # 121 rows in blocks of 33: the last block holds 22.
        return 3.0, 0.05, [33, 33, 33, 22]

    @pytest.mark.parametrize("odds_ratio", [0.2, 40.0])
    @pytest.mark.parametrize("name", list(CLI_NAMES))
    def test_rows_equal_a_kernel_call_per_row(self, name, odds_ratio, shape):
        half_width, step, blocks = shape
        spec = GridSpec(MeasureKind.from_cli(name), odds_ratio, half_width, step)
        count = len(grid_axis(spec))
        assert count == sum(blocks) and _rows_per_block(count) == blocks[0]
        got = list(grid_rows(spec))
        want = list(per_row_rows(spec))
        assert [y for y, _ in got] == [y for y, _ in want]
        for (y, values), (_, expected) in zip(got, want):
            expected = np.broadcast_to(expected, (count,))
            np.testing.assert_array_equal(values, expected, err_msg=f"y = {y!r}")
            assert np.array_equal(np.signbit(values), np.signbit(expected)), y
        assert render(spec)[1] == repr_oracle(spec)


def repr_oracle(spec):
    """The grid CSV with every field formatted by repr, cell by cell."""
    axis = grid_axis(spec)
    lines = ["y,z,value"]
    for y, values in grid_rows(spec):
        values = np.broadcast_to(values, (len(axis),)).tolist()
        lines += [f"{y!r},{z!r},{v!r}" for z, v in zip(axis, values)]
    return ("\n".join(lines) + "\n").encode("ascii")


def random_doubles(count, seed, exponents=(0, 2047)):
    """count doubles of random bits with the biased exponent drawn from [lo, hi).

    hi <= 2047 leaves out the exponent of inf and nan.
    """
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=count, dtype=np.uint64)
    exponent = rng.integers(*exponents, size=count, dtype=np.uint64)
    bits = (bits & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    return bits.view(np.float64)


EDGE_VALUES = [
    0.0,
    5e-324,
    sys.float_info.min,
    *(np.nextafter(v, to) for v in (1e-10, 1e-9, 1e-5, 1e-4) for to in (0.0, 1.0)),
    1e-10,
    1e-9,
    1e-5,
    1e-4,
    np.nextafter(1e16, 0.0),
    1e16,
    2.0**53,
    sys.float_info.max,
    1e-07,
    1e20,
]


class TestReprSpelling:
    """_repr_fields spells every double as repr does."""

    @pytest.mark.parametrize(
        "values",
        [
            random_doubles(200_000, 1),
            # |v| in [2**-80, 2**80): where repr switches between the
            # positional and the exponent spelling.
            random_doubles(200_000, 2, (1023 - 80, 1023 + 80)),
            np.array(EDGE_VALUES + [-v for v in EDGE_VALUES]),
            np.array([math.inf, -math.inf, math.nan]),
        ],
        ids=["random bits", "random bits, |v| near 1", "edge values", "non-finite"],
    )
    def test_fields_equal_repr(self, values):
        assert _repr_fields(values) == [repr(v).encode("ascii") for v in values.tolist()]

    @pytest.mark.parametrize("odds_ratio", [0.2, 12.9, 40.0, 1e20])
    @pytest.mark.parametrize("name", list(CLI_NAMES))
    def test_grid_bytes_equal_a_repr_per_cell_oracle(self, name, odds_ratio):
        spec = GridSpec(MeasureKind.from_cli(name), odds_ratio, 6.0, 0.25)
        assert render(spec)[1] == repr_oracle(spec)

    def test_wide_grid_bytes_equal_a_repr_per_cell_oracle(self):
        spec = GridSpec(MeasureKind("hs", 4.0), 12.9, 30.0, 0.5)
        payload = render(spec)[1]
        # Its values cross the band that orjson writes positionally and
        # reach below 1e-100.
        magnitudes = [abs(v) for v in parse(payload).values()]
        assert any(1e-5 <= v < 1e-4 for v in magnitudes)
        assert min(magnitudes) < 1e-100
        assert payload == repr_oracle(spec)

    def test_non_finite_values_are_written_as_repr(self, monkeypatch):
        def rows(spec):
            yield 0.5, np.array([math.inf, -math.inf, math.nan, -0.0])

        monkeypatch.setattr(grids, "grid_rows", rows)
        spec = GridSpec(MeasureKind("corr_r"), 5.0, 1.5, 1.0)
        lines = render(spec)[1].decode("ascii").splitlines()
        assert lines[1:] == ["0.5,-1.5,inf", "0.5,-0.5,-inf", "0.5,0.5,nan", "0.5,1.5,-0.0"]
