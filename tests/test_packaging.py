"""pyproject.toml declares what the package and its tests import: the
package's runtime dependencies, and with them the test extra."""

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


def third_party_imports(paths):
    imported = set().union(*map(imported_top_level_modules, paths))
    return imported - LOCAL - set(sys.stdlib_module_names) - {"__future__"}


def test_every_third_party_import_of_the_tests_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.split(r"[<>=!~ ;\[]", r, maxsplit=1)[0].lower() for r in requirements}

    runtime = names(project["dependencies"])
    test_only = names(project["optional-dependencies"]["test"])
    tests = third_party_imports((ROOT / "tests").glob("*.py"))
    assert "mpmath" in tests
    assert tests - runtime - test_only == set()
    # The package itself may import its runtime dependencies only.
    package = third_party_imports((ROOT / "src").rglob("*.py"))
    assert "numpy" in package
    assert package - runtime == set()
