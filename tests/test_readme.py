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


LIBRARY_BLOCK = re.search(r"\n## Library example\n.*?```python\n(.*?)```", README, re.S)[1]
NUMBER = r"-?\d+\.\d+"


def test_library_example_prints_what_its_comments_show(capsys):
    exec(compile(LIBRARY_BLOCK, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("# ")[1] for line in LIBRARY_BLOCK.splitlines() if "# " in line]
    assert comments == ["MarginCoords(x=0.896, y=-0.203, z=0.490)", "0.420..., 0.387..."]
    for line, comment in zip(printed, comments):
        got = re.findall(NUMBER, line)
        shown = re.findall(NUMBER + r"(?:\.\.\.)?", comment)
        assert len(got) == len(shown), (line, comment)
        for value, digits in zip(got, shown):
            if digits.endswith("..."):  # the leading digits
                assert value.startswith(digits[:-3]), (line, comment)
            else:  # rounded to the digits shown
                assert f"{float(value):.{len(digits.split('.')[1])}f}" == digits, (line, comment)
