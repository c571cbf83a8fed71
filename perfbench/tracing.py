"""Spans around the public functions of the twobytwo modules.

The traced run replaces each public function with a wrapper under the name
the calling module uses (``scanner``, ``grids`` and ``critical`` import
``evaluate``, ``psi``, ``theta`` and ``ProbTable`` by name), and wraps
``ProbTable`` construction through the class.  Wrappers are installed
around each traced op only and removed afterwards, so output checks and
untraced ops run the original code.

A span records its name, start, end, parent span and op id.  Spans are kept
in flat arrays in memory, written out at exit and reduced to per-op call
counts and self times: a span's duration minus the durations of its
children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from array import array

import numpy as np

ROOT_SPAN = "cli"

# (module of the twobytwo package, attribute) for every wrapped call site.
CALL_SITES = (
    ("cli", "load_matrix"),
    ("cli", "scan"),
    ("cli", "render_results"),
    ("cli", "emit_grid"),
    ("cli", "critical_points"),
    ("scanner", "count_pair"),
    ("scanner", "counts_to_table"),
    ("scanner", "evaluate"),
    ("grids", "eval_in_coords"),
    ("grids", "evaluate"),
    ("grids", "psi"),
    ("critical", "critical_points"),
    ("critical", "theta"),
    ("critical", "lambert_w0"),
    ("critical", "lambert_w_minus1"),
)

# Span names, one per wrapped function, in the order metrics are reported.
LAYER_SPANS = (
    "scanner.load_matrix",
    "scanner.scan",
    "scanner.count_pair",
    "scanner.counts_to_table",
    "scanner.render_results",
    "tables.ProbTable",
    "tables.psi",
    "tables.theta",
    "measures.evaluate",
    "measures.eval_in_coords",
    "grids.emit_grid",
    "critical.critical_points",
    "critical.lambert_w0",
    "critical.lambert_w_minus1",
)


def span_name(fn):
    """``<defining module>.<function>``, e.g. ``measures.evaluate``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder with wrappers for the twobytwo call sites."""

    FIELDS = ("index", "name_id", "parent", "op", "start", "end")

    def __init__(self, package="twobytwo"):
        self.names = []
        self._name_ids = {}
        # Six int64 fields per finished span (FIELDS), in order of finishing.
        self.records = array("q")
        self._next_index = itertools.count()
        self._stack = [-1]
        self.op_id = -1
        modules = {m: importlib.import_module(f"{package}.{m}") for m, _ in CALL_SITES}
        self._sites = [(modules[m], attr, getattr(modules[m], attr)) for m, attr in CALL_SITES]
        prob_table = importlib.import_module(f"{package}.tables").ProbTable
        self._sites.append((prob_table, "__init__", prob_table.__init__))
        self._wrapped = [
            self.wrap(fn, "tables.ProbTable" if attr == "__init__" else span_name(fn))
            for _, attr, fn in self._sites
        ]

    def __len__(self):
        return len(self.records) // len(self.FIELDS)

    def intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name):
        """Return fn wrapped so that every call records one span called name."""
        nid = self.intern(name)
        record, next_index, stack = self.records.extend, self._next_index, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = next(next_index)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record((index, nid, stack[-1], self.op_id, start, end))

        return traced

    def install(self):
        for (owner, attr, _), wrapped in zip(self._sites, self._wrapped):
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in self._sites:
            setattr(owner, attr, original)

    def arrays(self):
        """Spans in order of starting, as int64 arrays keyed by FIELDS.

        A span's parent is the index of the enclosing span, -1 for a root.
        """
        table = np.array(self.records, dtype=np.int64).reshape(-1, len(self.FIELDS))
        table = table[np.argsort(table[:, 0])]
        return {field: table[:, i] for i, field in enumerate(self.FIELDS)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent, start, end):
    """Self time of every span: its duration minus its direct children's."""
    duration = (end - start).astype(np.float64)
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children


def per_op_totals(names, spans):
    """{name: (calls, self_ns)} summed over all spans, and the number of ops.

    Ops are the root spans; dividing by their number gives per-op figures
    whose self times add up to the mean root duration.
    """
    own = self_times(spans["parent"], spans["start"], spans["end"])
    calls = np.bincount(spans["name_id"], minlength=len(names))
    self_ns = np.bincount(spans["name_id"], weights=own, minlength=len(names))
    n_ops = int(np.count_nonzero(spans["parent"] < 0))
    return {n: (int(calls[i]), float(self_ns[i])) for i, n in enumerate(names)}, n_ops
