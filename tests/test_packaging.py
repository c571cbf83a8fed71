"""The test extra of pyproject.toml installs what the suite imports."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
LOCAL = {"conftest", "twobytwo"}


def imported_top_level_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_of_the_tests_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.split(r"[<>=!~ ;\[]", r, maxsplit=1)[0].lower() for r in requirements}
    imported = set().union(*map(imported_top_level_modules, (ROOT / "tests").glob("*.py")))
    third_party = imported - LOCAL - set(sys.stdlib_module_names) - {"__future__"}
    assert "mpmath" in third_party
    assert third_party - declared == set()
