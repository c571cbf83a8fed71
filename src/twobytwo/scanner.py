"""Pairwise scan of binary marker matrices for strongly associated pairs.

Reads a samples-by-markers 0/1 matrix (TSV, NA for missing), builds the
2x2 count table of every marker pair over pairwise-complete samples,
converts counts to probability tables with an additive pseudocount, and
ranks pairs by the absolute value of a chosen measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# evaluate is not called here; perfbench/tracing.py wraps scanner.evaluate.
from .measures import MeasureKind, evaluate
from .tables import DegenerateTable, ProbTable

__all__ = [
    "ParseError",
    "BinaryMatrix",
    "PairResult",
    "load_matrix",
    "count_pair",
    "counts_to_table",
    "scan",
    "render_results",
]

_MISSING = -1
_TOKENS = {"0": 0, "1": 1, "NA": _MISSING}


class ParseError(ValueError):
    """Malformed scanner input; carries 1-based line and column numbers."""

    def __init__(self, message, line, column=None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


@dataclass
class BinaryMatrix:
    """Samples-by-markers matrix of {0, 1, missing(-1)} entries."""

    marker_ids: list[str]
    data: np.ndarray  # shape (n_samples, n_markers), dtype int8

    @property
    def n_samples(self):
        return self.data.shape[0]

    @property
    def n_markers(self):
        return self.data.shape[1]


@dataclass
class PairResult:
    """One scanned marker pair: counts over complete samples plus measures."""

    id_a: str
    id_b: str
    counts: tuple[int, int, int, int]  # (n00, n01, n10, n11)
    n: int
    values: dict[MeasureKind, float] = field(default_factory=dict)


def load_matrix(source, fmt="tsv"):
    """Parse a TSV byte stream: header of marker ids, then 0/1/NA rows."""
    if fmt != "tsv":
        raise ValueError(f"unsupported format {fmt!r}")
    text = source.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    marker_ids = lines[0].rstrip("\n").split("\t")
    if len(marker_ids) < 2:
        raise ParseError("need at least 2 markers in the header", 1)

    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split("\t")
        if len(tokens) != len(marker_ids):
            raise ParseError(
                f"expected {len(marker_ids)} fields, got {len(tokens)}", line_no
            )
        row = []
        for col_no, token in enumerate(tokens, start=1):
            token = token.strip()
            if token not in _TOKENS:
                raise ParseError(f"invalid token {token!r}", line_no, col_no)
            row.append(_TOKENS[token])
        rows.append(row)
    data = np.array(rows, dtype=np.int8).reshape(len(rows), len(marker_ids))
    return BinaryMatrix(marker_ids, data)


def count_pair(matrix, i, j):
    """2x2 counts (n00, n01, n10, n11) for markers i, j over complete samples."""
    if i == j:
        raise ValueError("need two distinct markers")
    a = matrix.data[:, i]
    b = matrix.data[:, j]
    ok = (a != _MISSING) & (b != _MISSING)
    a = a[ok]
    b = b[ok]
    n11 = int(np.count_nonzero(a & b))
    n1_ = int(np.count_nonzero(a))
    n_1 = int(np.count_nonzero(b))
    n = int(a.size)
    n10 = n1_ - n11
    n01 = n_1 - n11
    n00 = n - n11 - n10 - n01
    return n00, n01, n10, n11


def counts_to_table(counts, pseudocount):
    """Probability table proportional to count + pseudocount per cell."""
    if pseudocount < 0.0:
        raise ValueError(f"pseudocount must be >= 0, got {pseudocount!r}")
    cells = [c + pseudocount for c in counts]
    if any(c <= 0.0 for c in cells):
        raise DegenerateTable(
            f"zero cell with pseudocount {pseudocount}: counts {tuple(counts)}"
        )
    return ProbTable(*cells)


def scan(matrix, measures, rank_by, top_k, pseudocount=0.5, jobs=1):
    """Evaluate all marker pairs and return the top_k by |rank_by| value.

    The counts of every pair come from four matrix products and each
    measure is evaluated once over all pairs.  Ties break on (id_a, id_b).
    ``jobs`` is ignored; it is kept for compatibility.
    """
    if rank_by not in measures:
        raise ValueError("rank_by must be one of the requested measures")
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k!r}")
    ids = matrix.marker_ids
    ia, ib = np.triu_indices(matrix.n_markers, 1)
    if ia.size == 0:
        return []

    # Float64 products count exactly up to 2**53 samples.
    seen = (matrix.data != _MISSING).astype(np.float64)
    ones = (matrix.data == 1).astype(np.float64)
    n = (seen.T @ seen)[ia, ib]
    n11 = (ones.T @ ones)[ia, ib]
    n10 = (ones.T @ seen)[ia, ib] - n11
    n01 = (seen.T @ ones)[ia, ib] - n11
    counts = np.stack([n - n11 - n10 - n01, n01, n10, n11], axis=1).astype(np.int64)

    # counts_to_table decides which pairs have a table: check the first pair,
    # where a bad pseudocount fails, and the first pair with a zero cell.
    cells = counts + pseudocount
    for k in [0] + np.flatnonzero((cells <= 0.0).any(axis=1))[:1].tolist():
        try:
            counts_to_table(tuple(counts[k].tolist()), pseudocount)
        except DegenerateTable as exc:
            raise DegenerateTable(f"pair ({ids[ia[k]]}, {ids[ib[k]]}): {exc}") from exc

    probs = cells.T / cells.sum(axis=1)
    values = {kind: kind.on_cells(*probs) for kind in measures}
    _, id_rank = np.unique(ids, return_inverse=True)
    order = np.lexsort((id_rank[ib], id_rank[ia], -np.abs(values[rank_by])))[:top_k]

    results = []
    for k in order.tolist():
        c = tuple(counts[k].tolist())
        values_k = {kind: float(v[k]) for kind, v in values.items()}
        results.append(PairResult(ids[ia[k]], ids[ib[k]], c, sum(c), values_k))
    return results


def render_results(results, measures):
    """Deterministic CSV rendering of scan results (6-decimal values)."""
    header = "id_a,id_b,n,n00,n01,n10,n11," + ",".join(k.cli_name for k in measures)
    lines = [header]
    for r in results:
        fields = [r.id_a, r.id_b, str(r.n)] + [str(c) for c in r.counts]
        fields += [f"{r.values[k]:.6f}" for k in measures]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"
