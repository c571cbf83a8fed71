"""End-to-end CLI tests via click's CliRunner."""

from __future__ import annotations

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

import twobytwo
from twobytwo.cli import _Group, _ParamsOnce, main, table1_rows
from twobytwo.critical import critical_points
from twobytwo.grids import GridSpec, _rows_per_block, grid_axis
from twobytwo.measures import DEFAULT_HS_N, MEASURES, MeasureKind
from twobytwo.tables import ProbTable
from conftest import mp_measures


@pytest.fixture
def runner():
    return CliRunner()


class TestMeasure:
    def test_basic_output(self, runner):
        result = runner.invoke(
            main, ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", "lambda,Q,Y,D"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "lambda,6.000000"
        assert lines[1] == "Q,0.714286"
        assert lines[2] == f"Y,{math.tanh(0.25 * math.log(6.0)):.6f}"
        assert lines[3] == "D,0.100000"

    def test_all_names_accepted(self, runner):
        names = "lambda,Q,Y,D,Dprime,r,MI,sMI,kappa,H,Hdiag,HS"
        result = runner.invoke(
            main, ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", names]
        )
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 12

    def test_hs_exponent_flag(self, runner):
        base = runner.invoke(
            main, ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", "HS", "--n", "0"]
        )
        y = runner.invoke(
            main, ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", "Y"]
        )
        assert base.output.split(",")[1] == y.output.split(",")[1]

    @pytest.mark.parametrize(
        "table", ["1,2,3", "a,b,c,d", "0,1,1,1", "-1,2,3,4", "1,2,3,4,5"]
    )
    def test_malformed_table_exits_2(self, runner, table):
        result = runner.invoke(main, ["measure", "--table", table, "--measures", "Y"])
        assert result.exit_code == 2

    def test_table_with_an_overflowing_sum_exits_2(self, runner):
        result = runner.invoke(main, ["measure", "--table", "1e308,1e308,1,1", "--measures", "Y"])
        assert result.exit_code == 2
        assert "cells do not have a finite positive sum" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("n", ["1e10", "1e300"])
    def test_hs_at_a_huge_exponent(self, runner, n):
        # H < Hdiag on this table, so |Y|^exp(n * (Hdiag - H)) goes to 0.
        result = runner.invoke(
            main, ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", "HS", "--n", n]
        )
        assert result.exit_code == 0
        assert result.output == "HS,0.000000\n"

    def test_unknown_measure_exits_2(self, runner):
        result = runner.invoke(
            main, ["measure", "--table", "1,1,1,1", "--measures", "phi"]
        )
        assert result.exit_code == 2

    def test_unknown_flag_exits_2(self, runner):
        result = runner.invoke(main, ["measure", "--tables", "1,1,1,1"])
        assert result.exit_code == 2

    def test_bad_hs_exponent_exits_2(self, runner):
        result = runner.invoke(
            main, ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", "HS", "--n", "-1"]
        )
        assert result.exit_code == 2
        assert "hs needs n >= 0" in result.output
        assert "Traceback" not in result.output

    def test_no_measure_named_exits_2(self, runner):
        result = runner.invoke(main, ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", ","])
        assert result.exit_code == 2
        assert "--measures must name at least one measure" in result.output


class TestUsageErrorWritesNothing:
    """A bad argument is reported before a command writes anything."""

    @pytest.mark.parametrize(
        "args",
        [["--measures", "Y,foo"], ["--measures", "Y,HS", "--n", "-1"]],
        ids=["unknown-name", "bad-n"],
    )
    def test_measure(self, runner, args):
        result = runner.invoke(main, ["measure", "--table", "0.4,0.1,0.2,0.3"] + args)
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["grid", "--measure", "foo", "--odds-ratio", "4", "--half-width", "1", "--step", "1"],
            ["scan", "{input}", "--measure", "Y", "--rank-by", "foo"],
            ["scan", "{input}", "--measure", "Y", "--pseudocount", "-1"],
        ],
        ids=["grid-unknown-name", "scan-unknown-rank-by", "scan-bad-pseudocount"],
    )
    def test_output_file_is_not_created(self, runner, tmp_path, args):
        path = TestScan().make_input(tmp_path)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [a.format(input=path) for a in args] + ["-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert not out.exists()


    def test_scan_rank_by_not_requested(self, runner, tmp_path):
        path = TestScan().make_input(tmp_path)
        out = tmp_path / "out.csv"
        result = runner.invoke(
            main, ["scan", str(path), "--measure", "Y", "--rank-by", "r", "-o", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr.splitlines()[-1] == (
            "Error: rank_by must be one of the requested measures"
        )
        assert result.stdout == ""
        assert not out.exists()


class TestLibraryErrors:
    """An argument the library rejects is a usage error in the library's words;
    a numeric failure exits 1; neither writes to stdout."""

    @pytest.mark.parametrize(
        "args,make",
        [
            (["measure", "--table", "1e308,1e308,1,1", "--measures", "Y"],
             lambda: ProbTable(1e308, 1e308, 1, 1)),
            (["measure", "--table", "1,1,1,1", "--measures", "foo"],
             lambda: MeasureKind.from_cli("foo", DEFAULT_HS_N)),
            (["grid", "--measure", "Y", "--odds-ratio", "4", "--half-width", "1",
              "--step", "0"],
             lambda: GridSpec(MeasureKind.from_cli("Y", DEFAULT_HS_N), 4.0, 1.0, 0.0)),
            (["critical", "--odds-ratio", "0"], lambda: critical_points(0.0)),
            (["critical", "--odds-ratio", "1e-310"], lambda: critical_points(1e-310)),
        ],
        ids=["table-sum", "measure-name", "grid-step", "critical-zero", "critical-subnormal"],
    )
    def test_rejected_argument_exits_2_with_the_library_message(self, runner, args, make):
        with pytest.raises(ValueError) as info:
            make()
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == f"Error: {info.value}"

    @pytest.mark.parametrize("names", ["Y,lambda", "lambda,Y"])
    def test_measure_numeric_failure_writes_nothing(self, runner, names):
        # lambda = 1e600 on this table: past the largest double.
        result = runner.invoke(
            main, ["measure", "--table", "1,1e-300,1e-300,1", "--measures", names]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "Error: lambda: overflow encountered in exp\n"


class TestGrid:
    def test_writes_csv_file(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(
            main,
            [
                "grid",
                "--measure",
                "r",
                "--odds-ratio",
                "5",
                "--half-width",
                "1",
                "--step",
                "0.5",
                "-o",
                str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "y,z,value"
        assert len(lines) == 1 + 5 * 5

    def test_stdout_default(self, runner):
        result = runner.invoke(
            main,
            ["grid", "--measure", "Y", "--odds-ratio", "4", "--half-width", "1", "--step", "1"],
        )
        assert result.exit_code == 0
        assert result.output.startswith("y,z,value\n")

    def test_bad_spec_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["grid", "--measure", "Y", "--odds-ratio", "-4", "--half-width", "1", "--step", "1"],
        )
        assert result.exit_code == 2

    def test_infinite_point_count_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["grid", "--measure", "r", "--odds-ratio", "2", "--half-width", "1e308",
             "--step", "1e-10"],
        )
        assert result.exit_code == 2
        assert "half_width=1e+308 and step=1e-10" in result.output
        assert "Traceback" not in result.output

    def test_point_count_above_intp_max_exits_2(self, runner):
        result = runner.invoke(
            main,
            ["grid", "--measure", "r", "--odds-ratio", "2", "--half-width", "1e300",
             "--step", "1"],
        )
        assert result.exit_code == 2
        assert "half_width=1e+300 and step=1.0" in result.output
        assert "Traceback" not in result.output

    @pytest.fixture
    def failing_lambda(self, monkeypatch):
        """lambda's kernel overflows on every cell."""
        def overflow(p, l, x, n):
            return np.exp(np.full(np.shape(l[0]), 1000.0))

        monkeypatch.setitem(
            MEASURES, "odds_ratio", dataclasses.replace(MEASURES["odds_ratio"], cells=overflow)
        )

    def test_numeric_failure_exits_1(self, runner, failing_lambda):
        result = runner.invoke(
            main,
            ["grid", "--measure", "lambda", "--odds-ratio", "40", "--half-width", "400", "--step", "200"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "y,z,value\nError: lambda: overflow encountered in exp\n"

    def test_numeric_failure_leaves_no_output_file(self, runner, tmp_path, failing_lambda):
        out = tmp_path / "grid.csv"
        result = runner.invoke(
            main,
            ["grid", "--measure", "lambda", "--odds-ratio", "40", "--half-width", "400",
             "--step", "200", "-o", str(out)],
        )
        assert result.exit_code == 1
        assert "lambda: overflow encountered in exp" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("target", ["device", "symlink"])
    def test_numeric_failure_removes_no_output_that_is_not_a_regular_file(
        self, runner, tmp_path, monkeypatch, failing_lambda, target
    ):
        # A recorder in place of os.remove: a wrong removal is seen, and
        # deletes nothing.
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        if target == "device":
            out = os.devnull
        else:
            out = tmp_path / "link.csv"
            out.symlink_to(tmp_path / "grid.csv")
        result = runner.invoke(
            main,
            ["grid", "--measure", "lambda", "--odds-ratio", "40", "--half-width", "400",
             "--step", "200", "-o", str(out)],
        )
        assert result.exit_code == 1
        assert "lambda: overflow encountered in exp" in result.output
        assert removed == []

    @pytest.mark.parametrize("radius", [0.3, 1.5])
    def test_numeric_failure_stops_at_a_whole_block(self, runner, monkeypatch, radius):
        # r's kernel overflows on the cells within a radius of the centre in
        # |l00 - l11| + |l01 - l10|, a set that transposing the markers and
        # the point reflection each keep.  stdout holds the whole blocks
        # before the first row that fails in a walk of one kernel call per
        # row, and those rows equal the walk's.
        corr_r = MEASURES["corr_r"].cells

        def failing(p, l, x, n):
            inside = abs(l[0] - l[3]) + abs(l[1] - l[2]) < radius
            return corr_r(p, l, x, n) * np.exp(np.where(inside, 1000.0, 0.0))

        monkeypatch.setitem(MEASURES, "corr_r", dataclasses.replace(MEASURES["corr_r"], cells=failing))
        spec = GridSpec(MeasureKind("corr_r"), 12.9, 6.0, 0.05)
        axis = grid_axis(spec)
        lines = ["y,z,value\n"]
        for y in axis:
            try:
                values = spec.measure.on_coords(0.5 * math.log(12.9), y, np.array(axis))
            except FloatingPointError:
                break
            lines += [f"{y!r},{z!r},{v!r}\n" for z, v in zip(axis, values.tolist())]
        failing_row = len(lines) // len(axis)
        assert 0 < failing_row < len(axis) // 2
        whole_rows = failing_row - failing_row % _rows_per_block(len(axis))
        result = runner.invoke(
            main,
            ["grid", "--measure", "r", "--odds-ratio", "12.9", "--half-width", "6", "--step", "0.05"],
        )
        assert result.exit_code == 1
        assert result.stderr == "Error: r: overflow encountered in exp\n"
        assert result.stdout == "".join(lines[: 1 + whole_rows * len(axis)])

    def test_lambda_at_the_largest_odds_ratio_is_finite(self, runner):
        # lambda is the odds-ratio DBL_MAX at every point.  The kernel reads
        # the grid's x = ln sqrt(L), not x of logs whose off-diagonal cells
        # underflow at |y| = |z| = 400, so e^{2x} rounds just below DBL_MAX.
        result = runner.invoke(
            main,
            ["grid", "--measure", "lambda", "--odds-ratio", "1.7976931348623157e308",
             "--half-width", "400", "--step", "50"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 1 + 17 * 17
        assert {line.split(",")[2] for line in lines[1:]} == {"1.7976931348622732e+308"}

    @pytest.mark.parametrize("n", ["1e10", "1e300"])
    def test_hs_at_a_huge_exponent(self, runner, n):
        result = runner.invoke(
            main,
            ["grid", "--measure", "HS", "--n", n, "--odds-ratio", "40", "--half-width", "1",
             "--step", "1"],
        )
        assert result.exit_code == 0
        values = [float(line.split(",")[2]) for line in result.output.splitlines()[1:]]
        assert len(values) == 9 and all(0.0 <= v <= 1.0 for v in values)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_lambda_far_out_is_the_odds_ratio(self, runner, tmp_path, to_file):
        # At |y| = |z| = 400 the off-diagonal cells reach e^-800; lambda is
        # still the odds-ratio, 40 (mpmath: exp(2 * (ln 40) / 2) = 40).
        out = tmp_path / "grid.csv"
        args = ["grid", "--measure", "lambda", "--odds-ratio", "40", "--half-width", "400",
                "--step", "200"]
        result = runner.invoke(main, args + (["-o", str(out)] if to_file else []))
        assert result.exit_code == 0
        text = out.read_text() if to_file else result.output
        lines = text.splitlines()
        assert lines[0] == "y,z,value" and len(lines) == 26
        for line in lines[1:]:
            assert abs(float(line.split(",")[2]) - 40.0) <= 1e-10 * 40.0, line


# `twobytwo critical` stdout, byte for byte, at odds-ratios on each side of
# the magic one, just past it, and at the extremes.
CRITICAL_STDOUT = {
    "1e-3": (
        "diag,saddle,0.0153267150159,0.484673284984,0.484673284984,0.0153267150159,0,0\n"
        "L_upper,maximum,0.330102475466,0.334779001377,0.334779001377,0.000339521779123,3.43981016071,3.43981016071\n"
        "L_lower,maximum,0.000339521779123,0.334779001377,0.334779001377,0.330102475466,-3.43981016071,-3.43981016071\n"
    ),
    "0.025": (
        "diag,saddle,0.0682635297479,0.431736470252,0.431736470252,0.0682635297479,0,0\n"
        "L_upper,maximum,0.278729617935,0.354983943722,0.354983943722,0.0113024946213,1.60260936814,1.60260936814\n"
        "L_lower,maximum,0.0113024946213,0.354983943722,0.354983943722,0.278729617935,-1.60260936814,-1.60260936814\n"
    ),
    "0.5": (
        "diag,maximum,0.207106781187,0.292893218813,0.292893218813,0.207106781187,0,0\n"
    ),
    "1": (
        "diag,maximum,0.25,0.25,0.25,0.25,0,0\n"
    ),
    "5": (
        "diag,maximum,0.345491502813,0.154508497187,0.154508497187,0.345491502813,0,0\n"
    ),
    "12.9": (
        "diag,saddle,0.391106848773,0.108893151227,0.108893151227,0.391106848773,0,0\n"
        "L_upper,maximum,0.39107855263,0.111728409462,0.106114485278,0.39107855263,0.0257762249164,-0.0257762249164\n"
        "L_lower,maximum,0.39107855263,0.106114485278,0.111728409462,0.39107855263,-0.0257762249164,0.0257762249164\n"
    ),
    "12.89615347308678": (  # magic_odds_ratio() * (1 + 1e-9)
        "diag,saddle,0.391094147183,0.108905852817,0.108905852817,0.391094147183,0,0\n"
        "L_upper,maximum,0.391094147088,0.108910993328,0.108900712496,0.391094147088,4.72005492211e-05,-4.72005492211e-05\n"
        "L_lower,maximum,0.391094147088,0.108900712496,0.108910993328,0.391094147088,-4.72005492211e-05,4.72005492211e-05\n"
    ),
    "13": (
        "diag,saddle,0.391435363522,0.108564636478,0.108564636478,0.391435363522,0,0\n"
        "L_upper,maximum,0.390676403292,0.123850447905,0.0947967455109,0.390676403292,0.133669846912,-0.133669846912\n"
        "L_lower,maximum,0.390676403292,0.0947967455109,0.123850447905,0.390676403292,-0.133669846912,0.133669846912\n"
    ),
    "40": (
        "diag,saddle,0.431736470252,0.0682635297479,0.0682635297479,0.431736470252,0,0\n"
        "L_upper,maximum,0.354983943722,0.278729617935,0.0113024946213,0.354983943722,1.60260936814,-1.60260936814\n"
        "L_lower,maximum,0.354983943722,0.0113024946213,0.278729617935,0.354983943722,-1.60260936814,1.60260936814\n"
    ),
    "1e4": (
        "diag,saddle,0.49504950495,0.0049504950495,0.0049504950495,0.49504950495,0,0\n"
        "L_upper,maximum,0.333527305499,0.332911974625,3.34143773706e-05,0.333527305499,4.603323563,-4.603323563\n"
        "L_lower,maximum,0.333527305499,3.34143773706e-05,0.332911974625,0.333527305499,-4.603323563,4.603323563\n"
    ),
    "1e300": (
        "diag,saddle,0.5,5e-151,5e-151,0.5,0,0\n"
        "L_upper,maximum,0.333333333333,0.333333333333,3.33333333333e-301,0.333333333333,345.387763949,-345.387763949\n"
        "L_lower,maximum,0.333333333333,3.33333333333e-301,0.333333333333,0.333333333333,-345.387763949,345.387763949\n"
    ),
}


class TestCritical:
    @pytest.mark.parametrize("odds_ratio", CRITICAL_STDOUT)
    def test_stdout_is_pinned_byte_for_byte(self, runner, odds_ratio):
        result = runner.invoke(main, ["critical", "--odds-ratio", odds_ratio])
        assert result.exit_code == 0
        assert result.stdout_bytes == "".join(CRITICAL_STDOUT[odds_ratio]).encode("ascii")

    def test_below_magic_single_line(self, runner):
        result = runner.invoke(main, ["critical", "--odds-ratio", "5"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("diag,maximum,")

    def test_above_magic_three_lines(self, runner):
        result = runner.invoke(main, ["critical", "--odds-ratio", "40"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("diag,saddle,")
        assert lines[1].startswith("L_upper,maximum,")
        assert lines[2].startswith("L_lower,maximum,")
        cells = [float(v) for v in lines[1].split(",")[2:6]]
        assert sum(cells) == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_point_prints_exact_zero_margins(self, runner):
        result = runner.invoke(main, ["critical", "--odds-ratio", "40"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].endswith(",0,0")
        assert "-0" not in [field for line in lines for field in line.split(",")]

    def test_extreme_odds_ratio_three_lines(self, runner):
        result = runner.invoke(main, ["critical", "--odds-ratio", "1e300"])
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 3

    def test_bad_odds_ratio_exits_2(self, runner):
        result = runner.invoke(main, ["critical", "--odds-ratio", "0"])
        assert result.exit_code == 2


class TestScan:
    def make_input(self, tmp_path, n_samples=200, n_markers=6, seed=3):
        rng = np.random.default_rng(seed)
        ids = [f"m{k}" for k in range(n_markers)]
        rows = rng.integers(0, 2, size=(n_samples, n_markers))
        lines = ["\t".join(ids)]
        lines += ["\t".join(str(v) for v in row) for row in rows]
        path = tmp_path / "markers.tsv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_end_to_end(self, runner, tmp_path):
        path = self.make_input(tmp_path)
        out = tmp_path / "hits.csv"
        result = runner.invoke(
            main,
            ["scan", str(path), "--measure", "HS", "--measure", "Y", "--top", "5", "-o", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id_a,id_b,n,n00,n01,n10,n11,HS,Y"
        assert len(lines) == 6

    def test_rank_by_must_be_requested(self, runner, tmp_path):
        path = self.make_input(tmp_path)
        result = runner.invoke(
            main, ["scan", str(path), "--measure", "Y", "--rank-by", "r"]
        )
        assert result.exit_code == 2

    def test_parse_error_reported(self, runner, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n0\t2\n")
        result = runner.invoke(main, ["scan", str(path), "--measure", "Y"])
        assert result.exit_code == 1
        assert "line 2, column 2" in result.output

    def test_non_utf8_byte_reported(self, runner, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"a\tb\n0\t1\n1\t\xff\n")
        result = runner.invoke(main, ["scan", str(path), "--measure", "Y"])
        assert result.exit_code == 1
        assert "Error: line 3, column 2: invalid UTF-8 byte 0xff" in result.output

    def test_zero_pseudocount_exits_1(self, runner, tmp_path):
        path = tmp_path / "zero.tsv"
        path.write_text("a\tb\tc\n0\t0\t1\n1\t1\t0\n1\t1\t1\n")
        result = runner.invoke(main, ["scan", str(path), "--measure", "Y", "--pseudocount", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "pair (a, b): zero cell" in result.output
        assert "Traceback" not in result.output

    def test_zero_cell_past_the_first_pair_exits_1(self, runner, tmp_path):
        # (a, b) has every cell; c is always 1, so (a, c) has zero cells.
        path = tmp_path / "zero.tsv"
        path.write_text("a\tb\tc\n0\t0\t1\n0\t1\t1\n1\t0\t1\n1\t1\t1\n")
        result = runner.invoke(main, ["scan", str(path), "--measure", "Y", "--pseudocount", "0"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("Error: pair (a, c): zero cell")

    def test_file_is_read_before_the_arguments_are_checked(self, runner, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\n0\t2\n")
        result = runner.invoke(
            main, ["scan", str(path), "--measure", "Y", "--pseudocount", "nan"]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "Error: line 2, column 2: invalid token '2'\n"

    def test_pseudocount_with_an_overflowing_table_sum_exits_1(self, runner, tmp_path):
        path = self.make_input(tmp_path)
        result = runner.invoke(main, ["scan", str(path), "--measure", "Y", "--pseudocount", "1e308"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "cells do not have a finite positive sum" in result.output

    @pytest.mark.parametrize("n", ["1e10", "1e300"])
    def test_hs_at_a_huge_exponent(self, runner, tmp_path, n):
        path = self.make_input(tmp_path)
        result = runner.invoke(main, ["scan", str(path), "--measure", "HS", "--n", n])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].endswith(",HS") and len(lines) == 11

    def test_numeric_failure_exits_1(self, runner, tmp_path):
        # Zero counts plus a subnormal pseudocount: lambda of (a, b) is
        # 1 * 2 / (1e-320)^2, past the largest double.
        path = tmp_path / "zero.tsv"
        path.write_text("a\tb\tc\n0\t0\t1\n1\t1\t0\n1\t1\t1\n")
        result = runner.invoke(
            main, ["scan", str(path), "--measure", "lambda", "--pseudocount", "1e-320"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: lambda: overflow encountered in exp\n"

    def test_subnormal_pseudocount_values_match_mpmath(self, runner, tmp_path):
        # Zero counts plus a subnormal pseudocount give subnormal cells; Y and
        # r are finite and printed as mpmath rounds them.
        path = tmp_path / "zero.tsv"
        path.write_text("a\tb\tc\n0\t0\t1\n1\t1\t0\n1\t1\t1\n")
        result = runner.invoke(
            main,
            ["scan", str(path), "--measure", "Y", "--measure", "r", "--pseudocount", "1e-320"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "id_a,id_b,n,n00,n01,n10,n11,Y,r"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            counts = [int(c) for c in fields[3:7]]
            want = mp_measures([mpmath.mpf(c) + mpmath.mpf(1e-320) for c in counts])
            for got, tag in zip(fields[7:], ("yule_y", "corr_r")):
                assert got == f"{float(want[tag]):.6f}", (line, tag)

    def test_measure_failing_only_outside_the_top_pairs(self, runner, tmp_path):
        # (a, b) has no zero cell; (a, c) and (b, c) have one, in lambda's
        # denominator, where lambda truly overflows with a subnormal
        # pseudocount and D does not.
        a = [k % 2 for k in range(40)]
        b = [1 - v if k in (3, 10, 17, 24) else v for k, v in enumerate(a)]
        c = [int(k == 1) for k in range(40)]
        path = tmp_path / "rare.tsv"
        path.write_text("a\tb\tc\n" + "".join(f"{u}\t{v}\t{w}\n" for u, v, w in zip(a, b, c)))
        args = ["scan", str(path), "--measure", "D", "--measure", "lambda", "--pseudocount", "1e-320"]
        result = runner.invoke(main, args + ["--top", "1"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1].startswith("a,b,40,")
        result = runner.invoke(main, args + ["--top", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: lambda: overflow encountered in exp\n"

    def test_bad_hs_exponent_exits_2(self, runner, tmp_path):
        path = self.make_input(tmp_path)
        result = runner.invoke(main, ["scan", str(path), "--measure", "HS", "--n", "nan"])
        assert result.exit_code == 2
        assert "hs needs n >= 0" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--top", "0"], "0 is not in the range x>=1"),
            (["--top", "-3"], "-3 is not in the range x>=1"),
            (["--pseudocount", "-0.5"], "pseudocount must be finite and >= 0, got -0.5"),
            (["--pseudocount", "nan"], "pseudocount must be finite and >= 0, got nan"),
            (["--pseudocount", "inf"], "pseudocount must be finite and >= 0, got inf"),
        ],
    )
    def test_bad_top_or_pseudocount_exits_2(self, runner, tmp_path, args, message):
        path = self.make_input(tmp_path)
        result = runner.invoke(main, ["scan", str(path), "--measure", "Y"] + args)
        assert result.exit_code == 2
        assert message in result.output
        assert "Traceback" not in result.output

    def test_stdin_reads_the_same_bytes_as_a_path(self, runner, tmp_path):
        path = self.make_input(tmp_path)
        from_path = runner.invoke(main, ["scan", str(path), "--measure", "Y"])
        from_stdin = runner.invoke(main, ["scan", "-", "--measure", "Y"], input=path.read_bytes())
        assert from_path.exit_code == from_stdin.exit_code == 0, from_stdin.output
        assert from_stdin.stdout_bytes == from_path.stdout_bytes

    def test_jobs_flag_matches_serial(self, runner, tmp_path):
        path = self.make_input(tmp_path, n_markers=8)
        serial = runner.invoke(main, ["scan", str(path), "--measure", "HS"])
        threaded = runner.invoke(main, ["scan", str(path), "--measure", "HS", "--jobs", "4"])
        assert serial.output == threaded.output


class TestTable1:
    def test_row_shape(self, runner):
        result = runner.invoke(main, ["table1"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "p00,p01,p10,p11,lambda,Y,r,Dprime,HS4"
        assert len(lines) == 36
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 9
            cells = [float(v) for v in fields[:4]]
            assert sum(cells) == pytest.approx(1.0, abs=2.5e-3)

    def test_no_negative_zero(self, runner):
        # At L = 1, psi(0, 10, 10) keeps x = 0; x of its logs is -1.78e-15,
        # which would print Y, r, D' and HS4 as -0.000.
        result = runner.invoke(main, ["table1"])
        assert result.exit_code == 0
        assert "-0.000" not in result.output

    def test_rows_helper_midpoint(self):
        rows = table1_rows()
        assert len(rows) == 35
        first = rows[0]
        assert first[:4] == pytest.approx((0.25,) * 4)
        assert first[4] == 1
        assert first[5:] == pytest.approx((0.0,) * 4, abs=1e-12)

    def test_rows_helper_takes_no_hs_exponent(self):
        # The reference table is HS_4 by definition.
        assert not inspect.signature(table1_rows).parameters

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "table1.csv"
        result = runner.invoke(main, ["table1", "-o", str(out)])
        assert result.exit_code == 0
        assert len(out.read_text().splitlines()) == 36


class TestOutputOption:
    @pytest.mark.parametrize(
        "args",
        [
            ["grid", "--measure", "Y", "--odds-ratio", "4", "--half-width", "1", "--step", "1"],
            ["scan", "{input}", "--measure", "Y"],
            ["table1"],
        ],
        ids=["grid", "scan", "table1"],
    )
    def test_missing_directory_exits_1(self, runner, tmp_path, args):
        path = TestScan().make_input(tmp_path)
        args = [a.format(input=path) for a in args]
        target = tmp_path / "missing" / "out.csv"
        result = runner.invoke(main, args + ["-o", str(target)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Could not open file" in result.output
        assert "Traceback" not in result.output


def run_cli(args, unbuffered=False, **kwargs):
    """Run the CLI in a fresh interpreter, on this checkout's package, with
    stdout block-buffered as by default, or unbuffered."""
    env = dict(os.environ, PYTHONPATH=str(Path(twobytwo.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "twobytwo.cli", *args], env=env,
                            stderr=subprocess.PIPE, **kwargs)


GRID_ARGS = ["grid", "--measure", "HS", "--odds-ratio", "12.9", "--half-width", "6", "--step", "0.05"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestWriteFailure:
    """A write that fails (here, to a full device) ends in an ``Error:`` line
    and exit 1, whether it fails while the command writes or when its output
    is closed."""

    COMMANDS = {
        "grid": GRID_ARGS,
        "small grid": ["grid", "--measure", "Y", "--odds-ratio", "4", "--half-width", "1", "--step", "1"],
        "table1": ["table1"],
        "critical": ["critical", "--odds-ratio", "40"],
        "measure": ["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", "Y,HS"],
        "scan": ["scan", "{input}", "--measure", "Y"],
    }

    def check(self, process):
        stderr = process.communicate()[1].decode()
        assert process.returncode == 1, stderr
        assert "Error: [Errno 28] No space left on device" in stderr.splitlines()
        assert "Traceback" not in stderr

    @pytest.mark.parametrize("name", ["grid", "small grid", "table1", "scan"])
    def test_output_option(self, name, tmp_path):
        path = TestScan().make_input(tmp_path)
        args = [a.format(input=path) for a in self.COMMANDS[name]]
        self.check(run_cli(args + ["-o", "/dev/full"], stdout=subprocess.DEVNULL))

    # Buffered, an output shorter than stdout's buffer fails only when it is
    # flushed, after the command returns; unbuffered, every write fails.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_stdout(self, name, unbuffered, tmp_path):
        path = TestScan().make_input(tmp_path)
        args = [a.format(input=path) for a in self.COMMANDS[name]]
        with open("/dev/full", "wb") as full:
            self.check(run_cli(args, unbuffered, stdout=full))


def test_closed_pipe_exits_quietly():
    # grid | head -1: the reader goes after the first line, and grid stops
    # with no word on stderr.
    process = run_cli(GRID_ARGS, stdout=subprocess.PIPE)
    assert process.stdout.readline() == b"y,z,value\n"
    process.stdout.close()
    stderr = process.communicate()[1]
    assert stderr == b""
    assert process.returncode == 1


# One in-process invocation of each command, with its stdin.
INVOCATIONS = {
    "measure": (["measure", "--table", "0.4,0.1,0.2,0.3", "--measures", "Y,HS"], None),
    "grid": (["grid", "--measure", "Y", "--odds-ratio", "4", "--half-width", "1", "--step", "1"], None),
    "critical": (["critical", "--odds-ratio", "40"], None),
    "scan": (["scan", "-", "--measure", "Y"], "a\tb\n0\t1\n1\t0\n1\t1\n"),
    "table1": (["table1"], None),
}


class TestParamsOnce:
    """Each command builds click's parameter list once and keeps it."""

    COMMANDS = [main, *main.commands.values()]

    @pytest.mark.parametrize("help_names", [["--help"], ["-h", "--help"], []], ids=str)
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
    def test_the_kept_list_is_clicks_own(self, command, help_names):
        ctx = click.Context(command, help_option_names=help_names)
        want = click.Command.get_params(command, ctx)
        for _ in range(2):
            got = command.get_params(ctx)
            assert [id(p) for p in got] == [id(p) for p in want]
        if help_names:
            assert got[-1] is command.get_help_option(ctx)
        else:
            assert all(p.name != "help" for p in got)

    @pytest.mark.parametrize("name", INVOCATIONS)
    def test_a_second_invocation_builds_no_list(self, runner, monkeypatch, name):
        args, stdin = INVOCATIONS[name]
        first = runner.invoke(main, args, input=stdin)
        assert first.exit_code == 0, first.output
        builds = []
        build = click.Command.get_params

        def counted(self, ctx):
            builds.append(self.name)
            return build(self, ctx)

        monkeypatch.setattr(click.Command, "get_params", counted)
        second = runner.invoke(main, args, input=stdin)
        assert second.exit_code == 0, second.output
        assert second.stdout_bytes == first.stdout_bytes
        assert builds == []

    def test_clicks_duplicate_option_warning_still_fires(self, runner):
        group = _Group()

        @group.command()
        @click.option("--a")
        @click.option("--a", "b")
        def dup(a, b):
            pass

        with pytest.warns(UserWarning, match="--a is used more than once"):
            runner.invoke(group, ["dup"])

    # Lines that each help lists: the group's, its five commands; each
    # command's, one of its own options.
    HELP_LINES = {
        (): ("\n  measure ", "\n  grid ", "\n  critical ", "\n  scan ", "\n  table1 "),
        ("measure",): ("\n  --measures ",),
        ("grid",): ("\n  --half-width ",),
        ("critical",): ("\n  --odds-ratio ",),
        ("scan",): ("\n  --rank-by ",),
        ("table1",): ("\n  -o, --output ",),
    }

    @pytest.mark.parametrize("args", [[], *([name] for name in main.commands)], ids=str)
    def test_help_is_the_same_without_the_memo(self, runner, monkeypatch, args):
        kept = runner.invoke(main, [*args, "--help"])
        monkeypatch.delattr(_ParamsOnce, "get_params")
        built = runner.invoke(main, [*args, "--help"])
        assert kept.exit_code == built.exit_code == 0
        assert kept.stdout_bytes == built.stdout_bytes
        for line in self.HELP_LINES[tuple(args)]:
            assert line in kept.output
