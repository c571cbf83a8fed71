"""Command-line interface: measure, grid, critical, scan and table1."""

from __future__ import annotations

import errno
import math
import os
import stat
import sys

import click
from click.utils import LazyFile

from .critical import critical_points
from .grids import GridSpec, emit_grid
from .measures import CLI_NAMES, DEFAULT_HS_N, MeasureKind, evaluate
from .scanner import ParseError, load_matrix, render_results, scan
from .tables import DegenerateTable, MarginCoords, ProbTable, psi

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


def _checked(make, *args, data=()):
    """make(*args); an error whose type is in data is about the input (exit 1),
    any other ValueError is an argument the library rejects (usage error, exit 2)."""
    try:
        return make(*args)
    except data as exc:
        raise click.ClickException(str(exc)) from None
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


class _ParamsOnce:
    """A command that builds its parameter list once per help-option set.

    click rebuilds the list, and re-runs its duplicate-option check, each
    time it asks for it: twice per command in every invocation.  The list
    is fixed once the command is defined, so the first build is kept."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._params_by_help = {}

    def get_params(self, ctx):
        key = tuple(ctx.help_option_names)
        params = self._params_by_help.get(key)
        if params is None:
            params = self._params_by_help[key] = super().get_params(ctx)
        return params


class _Command(_ParamsOnce, click.Command):
    """A click command whose parameter list is built once."""


class _Group(_ParamsOnce, click.Group):
    """A group whose commands end an OSError, such as a full disk while the
    output is written or closed, in click's ``Error:`` line and exit 1.  A
    closed pipe stays click's: ``grid | head`` exits quietly."""

    command_class = _Command

    def invoke(self, ctx):
        try:
            rv = super().invoke(ctx)
            # click's close of stdout swallows a failed flush: flush here, so
            # an output shorter than stdout's buffer fails in the command too.
            sys.stdout.flush()
            return rv
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                raise
            try:
                sys.stdout.flush()
            except OSError:  # stdout failed: drop its bytes, or exit fails again
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Group)
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
    kinds = _kinds(names, n)
    values = _checked(lambda: [evaluate(kind, table) for kind in kinds], data=ArithmeticError)
    click.echo("".join(f"{name},{v:.6f}\n" for name, v in zip(names, values)), nl=False)


@main.command()
@click.option("--measure", "measure_name", required=True, help="measure name")
@click.option("--odds-ratio", required=True, type=float)
@click.option("--half-width", required=True, type=float)
@click.option("--step", required=True, type=float)
@_n
@_output
def grid(measure_name, odds_ratio, half_width, step, n, output):
    """Emit a y,z,value CSV grid of a margin weighting function."""
    spec = _checked(GridSpec, *_kinds([measure_name], n), odds_ratio, half_width, step)
    try:
        emit_grid(spec, output)
    except ArithmeticError as exc:
        if isinstance(output, LazyFile):  # a file, not stdout: leave no partial CSV
            output.close()
            # Only a regular file: not a device such as /dev/null, nor a symlink.
            if stat.S_ISREG(os.lstat(output.name).st_mode):
                os.remove(output.name)
        raise click.ClickException(str(exc)) from None


@main.command()
@click.option("--odds-ratio", "odds_ratio", required=True, type=float)
def critical(odds_ratio):
    """Critical tables of entropy at fixed odds-ratio (CSV lines)."""
    lines = [
        "%s,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n"
        % (pt.branch, pt.classification, *pt.table.cells, pt.coords.y, pt.coords.z)
        for pt in _checked(critical_points, odds_ratio)
    ]
    click.echo("".join(lines), nl=False)


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
    matrix = _checked(load_matrix, input_file, data=ParseError)
    results = _checked(scan, matrix, kinds, rank_kind, top, pseudocount, jobs,
                       data=(DegenerateTable, ArithmeticError))
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
