"""The benchmark tracer's call sites name attributes that exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_call_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"twobytwo.{module}.{attr}"
        for module, attr in tracing.CALL_SITES
        if not hasattr(importlib.import_module(f"twobytwo.{module}"), attr)
    ]
    assert tracing.CALL_SITES
    assert missing == []
