"""Command-line interface: measure, grid, critical, scan and table1."""

from __future__ import annotations

import math
import os

import click
from click.utils import LazyFile

from .critical import critical_points
from .grids import GridSpec, emit_grid
from .measures import CLI_NAMES, DEFAULT_HS_N, MeasureKind, evaluate
from .scanner import load_matrix, render_results, scan
from .tables import MarginCoords, ProbTable, psi

__all__ = ["main", "table1_rows"]

# Row construction behind the reference table: for each odds-ratio the
# diagonal table, the three-equal-entries (L-shaped) table, and three junk
# tables with a nearly vanishing row or column.  y=10 stands in for the
# boundary; all tables stay strictly positive.
TABLE1_ODDS_RATIOS = (1, 2, 5, 10, 20, 50, 100)


def table1_rows():
    """(p00, p01, p10, p11, odds_ratio, Y, r, Dprime, HS_4) for all 35 rows."""
    kinds = [MeasureKind(tag) for tag in ("yule_y", "corr_r", "d_prime", "hs")]
    rows = []
    for lam in TABLE1_ODDS_RATIOS:
        x = 0.5 * math.log(lam)
        for y, z in ((0.0, 0.0), (x, -x), (10.0, -10.0), (10.0, -x), (10.0, 10.0)):
            table = psi(MarginCoords(x, y, z))
            rows.append(
                table.cells + (lam,) + tuple(evaluate(k, table) for k in kinds)
            )
    return rows


def _checked(make, *args):
    """make(*args); an argument the library rejects with ValueError is a usage error."""
    try:
        return make(*args)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


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
    return _checked(ProbTable, *cells)


_n = click.option("--n", default=DEFAULT_HS_N, show_default=True, help="HS exponent weight")
# Click opens the file on the first write and closes it when the command ends.
_output = click.option(
    "-o", "--output", type=click.File("wb"), default="-", help="output file (default stdout)"
)


def _kinds(names, n):
    """The MeasureKinds of CLI measure names at HS weight n; a bad one is a usage error."""
    return [_checked(MeasureKind.from_cli, name, n) for name in names]


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
@_n
def measure(table_text, measures_text, n):
    """Print measure,value lines for one table."""
    table = _parse_table(table_text)
    names = [name.strip() for name in measures_text.split(",") if name.strip()]
    if not names:
        raise click.UsageError("--measures must name at least one measure")
    lines = []
    for name, kind in zip(names, _kinds(names, n)):
        try:
            lines.append(f"{name},{evaluate(kind, table):.6f}\n")
        except ArithmeticError as exc:
            raise click.ClickException(f"{name}: {exc}") from None
    click.echo("".join(lines), nl=False)


@main.command()
@click.option("--measure", "measure_name", required=True, help="measure name")
@click.option("--odds-ratio", required=True, type=float)
@click.option("--half-width", required=True, type=float)
@click.option("--step", required=True, type=float)
@_n
@_output
def grid(measure_name, odds_ratio, half_width, step, n, output):
    """Emit a y,z,value CSV grid of a margin weighting function."""
    (kind,) = _kinds([measure_name], n)
    spec = _checked(GridSpec, kind, odds_ratio, half_width, step)
    try:
        emit_grid(spec, output)
    except ArithmeticError as exc:
        if isinstance(output, LazyFile):  # a file, not stdout: leave no partial CSV
            output.close()
            os.remove(output.name)
        raise click.ClickException(f"{measure_name}: {exc}") from None


@main.command()
@click.option("--odds-ratio", "odds_ratio", required=True, type=float)
def critical(odds_ratio):
    """Critical tables of entropy at fixed odds-ratio (CSV lines)."""
    for pt in _checked(critical_points, odds_ratio):
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
@click.option("--top", default=10, show_default=True, type=click.IntRange(min=1),
              help="number of pairs to report")
@click.option(
    "--pseudocount",
    default=0.5,
    show_default=True,
    help="added to every cell count; samples with NA are dropped pairwise",
)
@_n
@click.option("--jobs", default=1, show_default=True, help="ignored; kept for compatibility")
@_output
def scan_cmd(input_file, measure_names, rank_by, top, pseudocount, n, jobs, output):
    """Rank marker pairs of a 0/1/NA TSV matrix by association strength."""
    kinds = _kinds(measure_names, n)
    rank_kind = kinds[0] if rank_by is None else _kinds([rank_by], n)[0]
    if not (math.isfinite(pseudocount) and pseudocount >= 0.0):
        raise click.UsageError(f"--pseudocount must be finite and >= 0, got {pseudocount!r}")
    if rank_kind not in kinds:
        raise click.UsageError("--rank-by must be one of the requested measures")
    try:
        matrix = load_matrix(input_file)
        results = scan(matrix, kinds, rank_kind, top, pseudocount, jobs)
    except (ValueError, ArithmeticError) as exc:
        raise click.ClickException(str(exc)) from None
    output.write(render_results(results, kinds).encode("utf-8"))


@main.command()
@_output
def table1(output):
    """Reference table: Y, r, D' and HS_4 on 35 selected tables."""
    lines = ["p00,p01,p10,p11,lambda,Y,r,Dprime,HS4"]
    for row in table1_rows():
        cells = [f"{_round_half_away(v):.3f}" for v in row[:4]]
        values = [f"{_round_half_away(v):.3f}" for v in row[5:]]
        lines.append(",".join(cells + [str(row[4])] + values))
    output.write(("\n".join(lines) + "\n").encode("utf-8"))


if __name__ == "__main__":
    main()
