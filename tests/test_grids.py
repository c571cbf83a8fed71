"""Tests for grid emission: spec validation, determinism, shape properties."""

from __future__ import annotations

import hashlib
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
)
from twobytwo import grids
from twobytwo.grids import _repr_fields, _rows_per_block, grid_axis, grid_blocks
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
            (5.0, 1e308, 1e-10),
            (2.0, 1e300, 1.0),
            (2.0, 2.0**62, 1.0),
        ],
    )
    def test_invalid(self, odds_ratio, half_width, step):
        with pytest.raises(ValueError):
            GridSpec(MeasureKind("corr_r"), odds_ratio, half_width, step)

    def test_point_count_bound_is_the_largest_numpy_index(self):
        # 2**62 + 1 points pass and 2**63 + 1 do not (the spec is only
        # built, never walked).
        GridSpec(MeasureKind("corr_r"), 2.0, 2.0**61, 1.0)
        with pytest.raises(ValueError, match=str(np.iinfo(np.intp).max)):
            GridSpec(MeasureKind("corr_r"), 2.0, 2.0**62, 1.0)


# (half_width, step) of grids of odd and even point counts; at half-width
# 400 the cell floors act.
AXIS_SHAPES = [(0.3, 0.1), (1.0, 0.4), (6.0, 0.05), (400.0, 50.0)]


class TestAxis:
    """The axis is centred on 0: each point's mirror is on it, to the bit."""

    @pytest.mark.parametrize("half_width,step", AXIS_SHAPES + [(2.0, 0.5), (1.0, 2.0)])
    def test_axis_is_mirror_exact(self, half_width, step):
        spec = GridSpec(MeasureKind("corr_r"), 5.0, half_width, step)
        axis = grid_axis(spec)
        assert len(axis) == round(2.0 * half_width / step) + 1
        assert [-v for v in axis] == axis[::-1]
        assert axis[-1] == pytest.approx(half_width, rel=1e-12)
        assert all(b - a == pytest.approx(step, rel=1e-9) for a, b in zip(axis, axis[1:]))
        if len(axis) % 2:
            middle = axis[len(axis) // 2]
            assert middle == 0.0 and not math.copysign(1.0, middle) < 0.0

    def test_axis_at_the_largest_doubles(self):
        # 2 * half_width overflows; the count of half_width / step does not.
        spec = GridSpec(MeasureKind("corr_r"), 2.0, 1e308, 1e308)
        assert grid_axis(spec) == [-1e308, 0.0, 1e308]

    @pytest.mark.parametrize("odds_ratio", [0.2, 2.0, 12.9, 40.0])
    @pytest.mark.parametrize("half_width,step", AXIS_SHAPES)
    def test_grids_equal_their_point_reflection(self, half_width, step, odds_ratio):
        # (y, z) -> (-y, -z) swaps p00 with p11 and p01 with p10, which
        # every measure keeps to the last bit, sign included.
        for name in CLI_NAMES:
            spec = GridSpec(MeasureKind.from_cli(name), odds_ratio, half_width, step)
            values = np.vstack([block for _, block in grid_blocks(spec)])
            reflected = values[::-1, ::-1]
            assert np.array_equal(values.view(np.int64), reflected.view(np.int64)), spec


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

    @pytest.mark.parametrize("name", list(CLI_NAMES))
    def test_transpose_symmetry_is_exact(self, name):
        # Transposing the markers swaps y and z and leaves every measure;
        # the kernels keep that to the last bit, sign included, which is what
        # lets grid_blocks copy a cell from its transpose.  Checked on one
        # kernel call per row, so the copy itself is not under test; at
        # half-width 400 the cell floors act.
        for odds_ratio in (1e-20, 0.2, 12.9, 40.0, 1e20):
            for half_width, step in ((3.0, 0.25), (400.0, 50.0)):
                spec = GridSpec(MeasureKind.from_cli(name, 4.0), odds_ratio, half_width, step)
                count = len(grid_axis(spec))
                rows = [np.broadcast_to(v, (count,)) for _, v in per_row_rows(spec)]
                values = np.vstack(rows)
                np.testing.assert_array_equal(values, values.T, err_msg=str(spec))
                assert np.array_equal(np.signbit(values), np.signbit(values.T)), spec

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
            want = eval_in_coords(kind, MarginCoords(x, y, z))
            assert value == want, (y, z)


def grid_rows(spec):
    """(y, values) of each row of grid_blocks."""
    for ys, block in grid_blocks(spec):
        yield from zip(ys, block)


def per_row_rows(spec):
    """(y, values) of each row from one kernel call per row."""
    x = 0.5 * math.log(spec.odds_ratio)
    axis = grid_axis(spec)
    z = np.array(axis)
    for y in axis:
        yield y, spec.measure.on_coords(x, y, z)


class TestBlocks:
    """Evaluating a block of rows per kernel call changes no bit."""

    @pytest.fixture(params=["partial last block", "one row per block", "ten rows kept"])
    def shape(self, request, monkeypatch):
        """(half_width, step) of a grid, and the row count of each of its blocks."""
        if request.param == "one row per block":
            # Rows of 21 cells against a budget of 16 cells.
            monkeypatch.setattr(grids, "_BLOCK_CELLS", 16)
            return 1.0, 0.1, [1] * 21
        if request.param == "ten rows kept":
            # 10 of 121 rows kept: the blocks after the first copy only
            # columns 0-9, and the kernel computes the rest of each row.
            monkeypatch.setattr(grids, "_KEPT_CELLS", 10 * 121)
            return 3.0, 0.05, [33, 33, 33, 22]
        # 121 rows in blocks of 33: the last block holds 22.
        return 3.0, 0.05, [33, 33, 33, 22]

    @pytest.mark.parametrize("odds_ratio", [0.2, 40.0])
    @pytest.mark.parametrize("name", list(CLI_NAMES))
    def test_rows_equal_a_kernel_call_per_row(self, name, odds_ratio, shape):
        half_width, step, blocks = shape
        spec = GridSpec(MeasureKind.from_cli(name), odds_ratio, half_width, step)
        count = len(grid_axis(spec))
        assert count == sum(blocks) and _rows_per_block(count) == blocks[0]
        assert [len(ys) for ys, _ in grid_blocks(spec)] == blocks
        got = list(grid_rows(spec))
        want = list(per_row_rows(spec))
        assert [y for y, _ in got] == [y for y, _ in want]
        for (y, values), (_, expected) in zip(got, want):
            expected = np.broadcast_to(expected, (count,))
            np.testing.assert_array_equal(values, expected, err_msg=f"y = {y!r}")
            assert np.array_equal(np.signbit(values), np.signbit(expected)), y
        assert render(spec)[1] == repr_oracle(spec)


class TestKernelCells:
    """grid_blocks runs the kernel on one cell of each transposed pair that
    the kept rows hold."""

    @pytest.fixture
    def cells(self, monkeypatch):
        """A list that gets the number of cells of each kernel call."""
        calls = []
        on_coords = MeasureKind.on_coords

        def counted(self, x, y, z):
            calls.append(np.broadcast(y, z).size)
            return on_coords(self, x, y, z)

        monkeypatch.setattr(MeasureKind, "on_coords", counted)
        return calls

    @pytest.mark.parametrize(
        "kept_cells,want",
        [
            (None, 30_961),
            # One row kept: only column 0 of the rows past the first block
            # is copied.
            (241, 57_856),
            # None kept: the kernel sees every cell.
            (0, 241 * 241),
        ],
    )
    @pytest.mark.parametrize("name", ["HS", "MI"])
    def test_cells_of_the_benchmark_grid(self, name, kept_cells, want, cells, monkeypatch):
        if kept_cells is not None:
            monkeypatch.setattr(grids, "_KEPT_CELLS", kept_cells)
        spec = GridSpec(MeasureKind.from_cli(name), 40.0, 6.0, 0.05)
        assert len(grid_axis(spec)) == 241
        for _ in grid_blocks(spec):
            pass
        assert sum(cells) == want


# sha256 of the CSV that emit_grid writes for the benchmark's grids
# (half-width 6, step 0.05: 241 x 241 cells).
BENCHMARK_GRID_SHA256 = {
    ("HS", 2.0): "b646052f2f87792d7b0fb2271075a079d5c3db3cc801b39d626461d56ccfdee7",
    ("HS", 12.9): "d41a4a268709884b571bf25c1ff2d5e56e8f43251de0811452770b96b6e5b7d1",
    ("HS", 40.0): "b05957e7eb5eeff96b754f4cf609f9df5e06c3c95ff31d40ff2b97e5f3b5637c",
    ("HS", 100.0): "fee882cb7d5d789d7f3264ea5860db5adc3839dd9fad7d3eb5bc1bcdfe0f628f",
    ("MI", 2.0): "b5f7aae8e83f09b06b8fa76cce23a8b4fd5e0b8eeb352b19a46af40a0ad07c00",
    ("MI", 12.9): "f2b975816c7c2bfee7199330f88c8b8740b3689b175c2493ef1b72702b1bb92b",
    ("MI", 40.0): "59fd2c03284b70da40fe8365356c8963bcbee2f0c5729dcbd266c410b2040268",
    ("MI", 100.0): "82f5851da22dc4a68e0e967a98484517db44771dbe874bb67689ebb22b01c39c",
}


@pytest.mark.parametrize("name,odds_ratio", list(BENCHMARK_GRID_SHA256))
def test_benchmark_grid_bytes_are_pinned(name, odds_ratio):
    spec = GridSpec(MeasureKind.from_cli(name), odds_ratio, 6.0, 0.05)
    digest = hashlib.sha256(render(spec)[1]).hexdigest()
    assert digest == BENCHMARK_GRID_SHA256[name, odds_ratio]


def repr_oracle(spec):
    """The grid CSV with every field formatted by repr, cell by cell."""
    axis = grid_axis(spec)
    lines = ["y,z,value"]
    for y, values in grid_rows(spec):
        lines += [f"{y!r},{z!r},{v!r}" for z, v in zip(axis, values.tolist())]
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
        def blocks(spec):
            yield [0.5], np.array([[math.inf, -math.inf, math.nan, -0.0]])

        monkeypatch.setattr(grids, "grid_blocks", blocks)
        spec = GridSpec(MeasureKind("corr_r"), 5.0, 1.5, 1.0)
        lines = render(spec)[1].decode("ascii").splitlines()
        assert lines[1:] == ["0.5,-1.5,inf", "0.5,-0.5,-inf", "0.5,0.5,nan", "0.5,1.5,-0.0"]
