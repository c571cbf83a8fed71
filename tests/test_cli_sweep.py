"""A seeded sweep of the CLI over special and random arguments.

Every command either succeeds, fails on its input (exit 1) or rejects an
argument (exit 2), each with an ``Error:`` line; no exception escapes click,
whatever the numbers.  Grids stay at 41 points a side or fewer, since a spec
under the point cap can still write billions of lines.
"""

from __future__ import annotations

import numpy as np
import pytest
from click.testing import CliRunner

from twobytwo.cli import main
from twobytwo.critical import magic_odds_ratio
from twobytwo.grids import GridSpec, _point_count
from twobytwo.measures import CLI_NAMES, MeasureKind

SPECIAL = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324",
           repr(magic_odds_ratio()), "", "abc", "0", "-0.0", "1", "-1", "2", "0.5"]
NAMES = [*CLI_NAMES, "", "abc", "lambda,HS", "Y,,r"]
MAX_WALKED = 41


def number(rng):
    """A special value half the time, else a random sign and magnitude in
    [1e-320, 1e308], as the CLI would read it."""
    if rng.random() < 0.5:
        return SPECIAL[rng.integers(len(SPECIAL))]
    return repr(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, 308.0)))


def magnitude(rng):
    """A random magnitude in [1e-3, 1e3]."""
    return float(10.0 ** rng.uniform(-3.0, 3.0))


def small_number(rng):
    """A random magnitude in [1e-3, 1e3], or a special value now and then."""
    return number(rng) if rng.random() < 0.2 else repr(magnitude(rng))


def points(half_width, step):
    """Points a side of the grid that GridSpec accepts, or 0 if it refuses."""
    try:
        return _point_count(GridSpec(MeasureKind("corr_r"), 2.0, float(half_width), float(step)))
    except ValueError:
        return 0


def matrix(rng):
    """A small 0/1/NA marker matrix as TSV text, sometimes malformed."""
    n_markers, n_samples = rng.integers(2, 6), rng.integers(1, 12)
    tokens = rng.choice(["0", "1", "NA"], p=[0.45, 0.45, 0.1], size=(n_samples, n_markers))
    if rng.random() < 0.1:
        tokens[rng.integers(n_samples), rng.integers(n_markers)] = rng.choice(["2", "", "x"])
    lines = ["\t".join(f"m{i}" for i in range(n_markers))]
    lines += ["\t".join(row) for row in tokens]
    return "\n".join(lines) + "\n"


def name(rng):
    """A measure name, now and then one that is not."""
    return str(rng.choice(NAMES if rng.random() < 0.2 else list(CLI_NAMES)))


def measure_args(rng):
    table = ",".join(number(rng) if rng.random() < 0.2 else small_number(rng) for _ in range(4))
    names = ",".join(name(rng) for _ in range(rng.integers(1, 4)))
    return ["measure", "--table", table, "--measures", names, "--n", small_number(rng)], None


def grid_args(rng):
    while True:
        if rng.random() < 0.3:
            half_width, step = number(rng), number(rng)
        else:
            half_width = magnitude(rng)
            if rng.random() < 0.1:  # points outside psi's domain, near the largest double
                half_width = float(rng.uniform(0.5, 1.79)) * 1e308
            step = half_width / (int(rng.integers(2, 50)) / 2)  # 2 to 49 steps
            half_width, step = repr(half_width), repr(step)
        if points(half_width, step) <= MAX_WALKED:
            break
    odds_ratio = number(rng) if rng.random() < 0.3 else small_number(rng)
    return ["grid", "--measure", name(rng), "--odds-ratio", odds_ratio,
            "--half-width", half_width, "--step", step, "--n", small_number(rng)], None


def critical_args(rng):
    odds_ratio = number(rng) if rng.random() < 0.5 else small_number(rng)
    return ["critical", "--odds-ratio", odds_ratio], None


def scan_args(rng):
    args = ["scan", "-", "--pseudocount", small_number(rng), "--n", small_number(rng)]
    for _ in range(rng.integers(1, 3)):
        args += ["--measure", name(rng)]
    if rng.random() < 0.3:
        args += ["--rank-by", name(rng)]
    if rng.random() < 0.5:
        args += ["--top", str(rng.choice(["1", "3", "0", "-2", "abc", "100"]))]
    return args, matrix(rng)


@pytest.mark.parametrize(
    "make_args,seed",
    [(measure_args, 1), (grid_args, 2), (critical_args, 3), (scan_args, 4)],
    ids=["measure", "grid", "critical", "scan"],
)
def test_every_run_exits_0_1_or_2(make_args, seed):
    rng = np.random.default_rng(seed)
    runner = CliRunner()
    exits = set()
    for _ in range(400):
        args, stdin = make_args(rng)
        result = runner.invoke(main, args, input=stdin)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args, repr(result.exception))
        assert result.exit_code in (0, 1, 2), (args, result.exit_code)
        assert "Traceback" not in result.output, args
        if result.exit_code:
            assert "Error: " in result.stderr, (args, result.stderr)
        exits.add(result.exit_code)
    # The sweep reaches successes and usage errors.
    assert exits >= {0, 2}, exits


@pytest.mark.parametrize(
    "half_width,exit_code",
    [("131071.5", None), ("131072", 2), ("131072.25", 2)],
)
def test_the_point_cap(half_width, exit_code):
    # 2**18 points are accepted (the spec is built, not walked), and
    # 2**18 + 1 are refused before anything is written.
    assert points(half_width, "1") == (2**18 if exit_code is None else 0)
    if exit_code is not None:
        result = CliRunner().invoke(
            main, ["grid", "--measure", "r", "--odds-ratio", "2",
                   "--half-width", half_width, "--step", "1"])
        assert result.exit_code == exit_code
        assert result.stdout == ""
        assert f"half_width={float(half_width)!r} and step=1.0" in result.stderr
        assert "Traceback" not in result.output
