"""Command-line interface: measure, grid, critical, scan and table1."""

from __future__ import annotations

import math
import sys

import click

from .critical import DomainError, SolverError, critical_points
from .grids import GridSpec, emit_grid
from .measures import (
    CLI_NAMES,
    DEFAULT_HS_N,
    MeasureKind,
    UnsupportedKind,
    evaluate,
)
from .scanner import ParseError, load_matrix, render_results, scan
from .tables import DegenerateTable, MarginCoords, ProbTable, psi

__all__ = ["main", "table1_rows"]

# Row construction behind the reference table: for each odds-ratio the
# diagonal table, the three-equal-entries (L-shaped) table, and three junk
# tables with a nearly vanishing row or column.  y=10 stands in for the
# boundary; all tables stay strictly positive.
TABLE1_ODDS_RATIOS = (1, 2, 5, 10, 20, 50, 100)


def _table1_yz(x):
    return ((0.0, 0.0), (x, -x), (10.0, -10.0), (10.0, -x), (10.0, 10.0))


def table1_rows(n=DEFAULT_HS_N):
    """(p00, p01, p10, p11, odds_ratio, Y, r, Dprime, HS_n) for all 35 rows."""
    kinds = [MeasureKind(tag, n) for tag in ("yule_y", "corr_r", "d_prime", "hs")]
    rows = []
    for lam in TABLE1_ODDS_RATIOS:
        x = 0.5 * math.log(lam)
        for y, z in _table1_yz(x):
            table = psi(MarginCoords(x, y, z))
            rows.append(
                table.cells + (lam,) + tuple(evaluate(k, table) for k in kinds)
            )
    return rows


def _round_half_away(value, digits=3):
    scale = 10 ** digits
    return math.copysign(math.floor(abs(value) * scale + 0.5), value) / scale


def _parse_table(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise click.UsageError(
            f"--table needs four comma-separated decimals, got {text!r}"
        )
    try:
        cells = [float(p) for p in parts]
    except ValueError:
        raise click.UsageError(f"--table has a non-numeric entry: {text!r}") from None
    try:
        return ProbTable(*cells)
    except DegenerateTable as exc:
        raise click.UsageError(str(exc)) from None


def _open_sink(path):
    if path is None or path == "-":
        return sys.stdout.buffer, False
    return open(path, "wb"), True


@click.group()
def main():
    """Association measures and entropy analysis for 2x2 probability tables."""


@main.command()
@click.option("--table", "table_text", required=True, help="p00,p01,p10,p11 (row-major)")
@click.option(
    "--measures",
    "measures_text",
    required=True,
    help=f"comma-separated names from: {', '.join(CLI_NAMES)}",
)
@click.option("--n", default=DEFAULT_HS_N, show_default=True, help="HS exponent weight")
def measure(table_text, measures_text, n):
    """Print measure,value lines for one table."""
    table = _parse_table(table_text)
    names = [name.strip() for name in measures_text.split(",") if name.strip()]
    if not names:
        raise click.UsageError("--measures must name at least one measure")
    for name in names:
        try:
            kind = MeasureKind.from_cli(name, n)
        except UnsupportedKind as exc:
            raise click.UsageError(str(exc)) from None
        try:
            value = evaluate(kind, table)
        except ArithmeticError as exc:
            raise click.ClickException(f"{name}: {exc}") from None
        click.echo(f"{name},{value:.6f}")


@main.command()
@click.option("--measure", "measure_name", required=True, help="measure name")
@click.option("--odds-ratio", required=True, type=float)
@click.option("--half-width", required=True, type=float)
@click.option("--step", required=True, type=float)
@click.option("--n", default=DEFAULT_HS_N, show_default=True, help="HS exponent weight")
@click.option("-o", "--output", default=None, help="output file (default stdout)")
def grid(measure_name, odds_ratio, half_width, step, n, output):
    """Emit a y,z,value CSV grid of a margin weighting function."""
    try:
        kind = MeasureKind.from_cli(measure_name, n)
        spec = GridSpec(kind, odds_ratio, half_width, step)
    except (UnsupportedKind, ValueError) as exc:
        raise click.UsageError(str(exc)) from None
    sink, close = _open_sink(output)
    try:
        emit_grid(spec, sink)
    except ArithmeticError as exc:
        raise click.ClickException(f"{measure_name}: {exc}") from None
    finally:
        if close:
            sink.close()


@main.command()
@click.option("--odds-ratio", "odds_ratio", required=True, type=float)
def critical(odds_ratio):
    """Critical tables of entropy at fixed odds-ratio (CSV lines)."""
    try:
        points = critical_points(odds_ratio)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from None
    except SolverError as exc:
        raise click.ClickException(str(exc)) from None
    for pt in points:
        cells = ",".join(f"{p:.12g}" for p in pt.table.cells)
        click.echo(
            f"{pt.branch},{pt.classification},{cells},"
            f"{pt.coords.y:.12g},{pt.coords.z:.12g}"
        )


@main.command("scan")
@click.argument("input_file", type=click.File("rb"))
@click.option(
    "--measure",
    "measure_names",
    multiple=True,
    required=True,
    help="measure name (repeatable); the first one ranks unless --rank-by is set",
)
@click.option("--rank-by", default=None, help="measure name to rank pairs by")
@click.option("--top", default=10, show_default=True, help="number of pairs to report")
@click.option(
    "--pseudocount",
    default=0.5,
    show_default=True,
    help="added to every cell count; samples with NA are dropped pairwise",
)
@click.option("--n", default=DEFAULT_HS_N, show_default=True, help="HS exponent weight")
@click.option("--jobs", default=1, show_default=True, help="ignored; kept for compatibility")
@click.option("-o", "--output", default=None, help="output file (default stdout)")
def scan_cmd(input_file, measure_names, rank_by, top, pseudocount, n, jobs, output):
    """Rank marker pairs of a 0/1/NA TSV matrix by association strength."""
    try:
        kinds = [MeasureKind.from_cli(name, n) for name in measure_names]
        rank_kind = (
            MeasureKind.from_cli(rank_by, n) if rank_by is not None else kinds[0]
        )
    except UnsupportedKind as exc:
        raise click.UsageError(str(exc)) from None
    if rank_kind not in kinds:
        raise click.UsageError("--rank-by must be one of the requested measures")
    try:
        matrix = load_matrix(input_file)
        results = scan(matrix, kinds, rank_kind, top, pseudocount, jobs)
    except (ParseError, DegenerateTable, ValueError, ArithmeticError) as exc:
        raise click.ClickException(str(exc)) from None
    text = render_results(results, kinds)
    sink, close = _open_sink(output)
    try:
        sink.write(text.encode("utf-8"))
    finally:
        if close:
            sink.close()


@main.command()
@click.option("-o", "--output", default=None, help="output file (default stdout)")
def table1(output):
    """Reference table: Y, r, D' and HS_4 on 35 selected tables."""
    lines = ["p00,p01,p10,p11,lambda,Y,r,Dprime,HS4"]
    for row in table1_rows():
        cells = [f"{_round_half_away(v):.3f}" for v in row[:4]]
        values = [f"{_round_half_away(v):.3f}" for v in row[5:]]
        lines.append(",".join(cells + [str(row[4])] + values))
    text = "\n".join(lines) + "\n"
    sink, close = _open_sink(output)
    try:
        sink.write(text.encode("utf-8"))
    finally:
        if close:
            sink.close()


if __name__ == "__main__":
    main()
