"""Every Python file of the project parses with the grammar of Python 3.10.

pyproject.toml's requires-python floor is 3.10, and this test runs on any
interpreter.  It catches grammar only: a stdlib module, function or argument
new in 3.11 (tomllib, for one) still passes here and fails only on 3.10.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "perfbench", "tests") for p in (ROOT / d).rglob("*.py"))


def test_the_files_are_found():
    assert ROOT / "src" / "twobytwo" / "scanner.py" in FILES
    assert Path(__file__).resolve() in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_bytes(), filename=str(path), feature_version=(3, 10))
