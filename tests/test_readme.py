"""The CLI examples of README.md run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from twobytwo.cli import main
from twobytwo.measures import CLI_NAMES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
CLI_SECTION = README.split("\n## CLI\n")[1]
COMMANDS = [
    shlex.split(line)[1:]
    for line in re.search(r"```sh\n(.*?)```", CLI_SECTION, re.S)[1].splitlines()
    if line.startswith("twobytwo ")
]


def test_every_command_is_found():
    assert [args[0] for args in COMMANDS] == ["measure", "grid", "critical", "scan", "table1"]


@pytest.mark.parametrize("args", COMMANDS, ids=[args[0] for args in COMMANDS])
def test_command_runs(args):
    runner = CliRunner()
    with runner.isolated_filesystem():
        rng = np.random.default_rng(38)
        rows = rng.choice(["0", "1", "NA"], size=(40, 8), p=[0.5, 0.4, 0.1])
        lines = ["\t".join(f"m{k}" for k in range(8))] + ["\t".join(row) for row in rows]
        Path("markers.tsv").write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output


def test_measure_names_are_the_cli_names():
    sentence = re.search(r"Measure names: (.*?)\.\n", CLI_SECTION, re.S)[1]
    assert re.findall(r"`([^`]+)`", sentence) == list(CLI_NAMES)
