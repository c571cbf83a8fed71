"""Pairwise scan of binary marker matrices for strongly associated pairs.

Reads a samples-by-markers 0/1 matrix (TSV, NA for missing), builds the
2x2 count table of every marker pair over pairwise-complete samples,
converts counts to probability tables with an additive pseudocount, and
ranks pairs by the absolute value of a chosen measure.  ``scan`` runs four
stages in order: ``_grams`` holds three m x m products (a fourth array is a
transposed view), ``_keys`` one float64 key per pair from cache-sized tiles,
``_top`` sorts the top_k pairs, ties included, and ``_results`` evaluates
every measure on those alone.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# evaluate is not called here; perfbench/tracing.py wraps scanner.evaluate.
from .measures import MeasureKind, evaluate
from .tables import DegenerateTable, ProbTable, cells_and_logs, real

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
# Code of each byte of the canonical form, with NA read from its N.
_NOT_A_TOKEN = -2
_BYTE_TOKENS = np.full(256, _NOT_A_TOKEN, dtype=np.int8)
_BYTE_TOKENS[[ord("0"), ord("1"), ord("N")]] = [0, 1, _MISSING]

# scan counts in float32, exact for integers to 2**24, up to this many samples.
_FLOAT32_SAMPLES = 2**24

# Pairs per tile of scan: its 4 x pairs arrays of counts, cells and logs stay
# in cache.  Tiles of 4,096 pairs paid more in per-tile overhead, and tiles
# of 32,768 were slower on 300 markers.
_TILE_PAIRS = 16384


class ParseError(ValueError):
    """Malformed scanner input; carries 1-based line and column numbers."""

    def __init__(self, message, line, column=None):
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class BinaryMatrix:
    """Samples-by-markers matrix of {0, 1, missing(-1)} integers (or bools), one
    marker id per column; ValueError otherwise.  Frozen, so the check holds for
    its fields; writes into the data array in place are not checked."""

    marker_ids: list[str]
    data: np.ndarray  # shape (n_samples, n_markers), dtype int8

    def __post_init__(self):
        data = self.data
        if not isinstance(data, np.ndarray) or data.ndim != 2 or data.dtype.kind not in "biu":
            raise ValueError("data must be a 2-d ndarray of integers, got "
                             f"{np.ndim(data)}-d {getattr(data, 'dtype', type(data).__name__)}")
        if data.size and not (_MISSING <= data.min() and data.max() <= 1):
            raise ValueError("data entries must be -1 (missing), 0 or 1")
        if len(self.marker_ids) != data.shape[1]:
            raise ValueError(f"{len(self.marker_ids)} marker ids for {data.shape[1]} columns")

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


def load_matrix(source):
    """Parse a TSV byte stream: header of marker ids, then 0/1/NA rows.

    Canonical input is read in one vectorised pass: a UTF-8 header line,
    then rows made only of 0/1/NA tokens joined by single tabs, each row
    ended by a newline (optional on the last).  Any other input (CRLF,
    blank lines, spaces around tokens, a header that ``str.splitlines``
    would split, and every malformed input) goes to the line-by-line
    parser, which accepts the same matrices and reports the line and
    column of the first error, a byte that is not UTF-8 before any other
    error.  A text stream raises TypeError.
    """
    raw = source.read()
    if not isinstance(raw, bytes):
        raise TypeError(f"load_matrix needs a binary stream, got {type(raw).__name__} from read()")
    return _parse_canonical(raw) or _parse_lines(_decode(raw))


def _decode(raw):
    """raw as UTF-8 text; a bad byte raises ParseError at its line and field."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode.  Split as _parse_lines splits
        # its text, they give the bad byte's line and field; the "?" stands
        # for the bad byte, so that a line break just before it counts.
        lines = (raw[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            f"invalid UTF-8 byte {raw[exc.start]:#04x}",
            len(lines),
            lines[-1].count("\t") + 1,
        ) from None


def _parse_canonical(raw):
    """BinaryMatrix of canonical input (see load_matrix), or None."""
    header, _, body = raw.partition(b"\n")
    try:
        header = header.decode("utf-8")
    except UnicodeDecodeError:
        return None
    marker_ids = header.split("\t")
    if header.splitlines() != [header] or len(marker_ids) < 2:
        return None
    if body and not body.endswith(b"\n"):
        body += b"\n"
    chars = np.frombuffer(body, dtype=np.uint8)
    # Each A must follow an N and each N must be followed by an A; dropping
    # the A leaves one byte per token.
    is_a = chars == ord("A")
    if chars.size and (is_a[0] or not np.array_equal(chars[:-1] == ord("N"), is_a[1:])):
        return None
    chars = chars[~is_a]
    # Every row then reads token, tab, token, ..., tab, token, newline.
    width = 2 * len(marker_ids)
    if chars.size % width:
        return None
    rows = chars.reshape(-1, width)
    separators = np.full(len(marker_ids), ord("\t"), dtype=np.uint8)
    separators[-1] = ord("\n")
    data = np.take(_BYTE_TOKENS, rows[:, ::2])
    if (data == _NOT_A_TOKEN).any() or not (rows[:, 1::2] == separators).all():
        return None
    return BinaryMatrix(marker_ids, data)


def _parse_lines(text):
    """Line-by-line parser: skips blank lines and strips spaces around tokens."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    marker_ids = lines[0].split("\t")
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
    """2x2 counts (n00, n01, n10, n11) for markers i, j over complete samples;
    i and j are distinct integers in [0, n_markers), ValueError otherwise."""
    for index in (i, j):
        if (isinstance(index, bool) or not isinstance(index, numbers.Integral)
                or not 0 <= index < matrix.n_markers):
            raise ValueError(
                f"marker index must be an integer in [0, {matrix.n_markers}), got {index!r}"
            )
    if i == j:
        raise ValueError(f"need two distinct markers, got {i!r} twice")
    a, b = matrix.data[:, i], matrix.data[:, j]
    # A missing -1 matches neither 0 nor 1, so its sample is in no cell.
    return tuple(int(np.count_nonzero((a == u) & (b == v))) for u in (0, 1) for v in (0, 1))


def _float_pseudocount(pseudocount):
    """pseudocount as a float; ValueError unless it is a real >= 0 (as given: a
    tiny negative Fraction rounds to -0.0), finite as a double, not a bool."""
    value = real(pseudocount)
    if 0.0 <= value < math.inf and pseudocount >= 0:
        return value
    raise ValueError(f"pseudocount must be finite and >= 0, got {pseudocount!r}")


def counts_to_table(counts, pseudocount):
    """Probability table proportional to count + pseudocount per cell; ValueError
    unless each count is a real >= 0 (as given) and the pseudocount a finite one,
    none a bool, and DegenerateTable for a zero cell or a count past the double range."""
    alpha, counts = _float_pseudocount(pseudocount), tuple(counts)
    cells = [real(c) for c in counts]
    if not all(value >= 0.0 and c >= 0 for value, c in zip(cells, counts)):
        raise ValueError(f"counts must be reals >= 0, got {counts}")
    if math.inf in cells:
        raise DegenerateTable(f"a count is past the double range: counts {counts}")
    cells = [c + alpha for c in cells]
    if any(c <= 0.0 for c in cells):
        raise DegenerateTable(f"zero cell with pseudocount {pseudocount}: counts {counts}")
    return ProbTable(*cells)


def scan(matrix, measures, rank_by, top_k, pseudocount=0.5, jobs=1):
    """Evaluate all marker pairs and return the top_k by |rank_by| value.

    The arguments (top_k an integer >= 1, pseudocount a finite real >= 0)
    and the table of the first pair are checked before the stages _grams,
    _keys, _top and _results run.  ``jobs`` is ignored, kept for compatibility.
    """
    if rank_by not in measures:
        raise ValueError("rank_by must be one of the requested measures")
    if isinstance(top_k, bool) or not isinstance(top_k, numbers.Integral):
        raise ValueError(f"top_k must be an integer, got {top_k!r}")
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k!r}")
    pseudocount = _float_pseudocount(pseudocount)
    ids = matrix.marker_ids
    n_markers = matrix.n_markers
    if n_markers < 2:
        return []
    _table_or_raise(ids, 0, 1, count_pair(matrix, 0, 1), pseudocount)
    grams = _grams(matrix)
    # row_start[i] is the number of the pair (i, i + 1), the first of row i.
    row_start = np.cumsum(np.arange(n_markers, 0, -1)) - n_markers
    key = _keys(grams, row_start, ids, rank_by, pseudocount)
    top_a, top_b = _top(key, row_start, ids, top_k)
    return _results(grams, top_a, top_b, ids, measures, pseudocount)


def _table_or_raise(ids, i, j, counts, pseudocount):
    """Check that the pair (i, j) has a table; counts_to_table decides which
    pairs have one, and its DegenerateTable is raised naming the pair."""
    try:
        counts_to_table(tuple(int(c) for c in counts), pseudocount)
    except DegenerateTable as exc:
        raise DegenerateTable(f"pair ({ids[i]}, {ids[j]}): {exc}") from exc


def _pairs(row_start, k):
    """(i, j) of the pairs numbered k, j > i, in ``np.triu_indices`` order."""
    i = np.searchsorted(row_start, k, side="right") - 1
    return i, k - row_start[i] + i + 1


def _grams(matrix):
    """The three m x m products, in float32 up to 2**24 samples (its integer
    sums are exact there) and float64 above, as four arrays: at [i, j] the
    cells n00, n01, n10 and n11 of the pair (i, j), the third a transposed
    view of the second.  The 0/1 copies of the data die with this frame."""
    dtype = np.float32 if matrix.n_samples <= _FLOAT32_SAMPLES else np.float64
    zeros = (matrix.data == 0).astype(dtype)
    ones = (matrix.data == 1).astype(dtype)
    zeros_ones = zeros.T @ ones
    return zeros.T @ zeros, zeros_ones, zeros_ones.T, ones.T @ ones


def _keys(grams, row_start, ids, rank_by, pseudocount):
    """-|rank_by value| of every pair, one float64 each, in pair order, from
    tiles of about _TILE_PAIRS pairs, whole rows of markers each, at least
    one: a tile gathers its counts from the grams, adds the pseudocount and
    evaluates rank_by on its cells and logs, so its arrays stay in cache.
    The first pair with a zero cell, in pair order, raises DegenerateTable."""
    n_markers = len(row_start)
    key = np.empty(int(row_start[-1]))
    row = 0
    while row < n_markers - 1:
        lo = row_start[row]
        stop = max(row + 1, np.searchsorted(row_start, lo + _TILE_PAIRS, side="right") - 1)
        upper = np.arange(n_markers) > np.arange(row, stop)[:, None]
        counts = np.stack([g[row:stop][upper] for g in grams])
        cells = np.add(counts, pseudocount, dtype=np.float64)
        for k in np.flatnonzero((cells <= 0.0).any(axis=0))[:1].tolist():
            _table_or_raise(ids, *_pairs(row_start, lo + k), counts[:, k], pseudocount)
        rank_values = rank_by.on_cells(*cells_and_logs(cells))
        np.negative(np.abs(rank_values), out=key[lo : row_start[stop]])
        row = stop
    return key


def _top(key, row_start, ids, top_k):
    """(i, j) of the top_k pairs by key: the pairs whose key is at most the
    top_k-th smallest, every tie included, sorted on (key, id_a, id_b)."""
    kth = min(top_k, key.size) - 1
    candidates = np.flatnonzero(key <= np.partition(key, kth)[kth])
    _, id_rank = np.unique(ids, return_inverse=True)
    i, j = _pairs(row_start, candidates)
    order = np.lexsort((id_rank[j], id_rank[i], key[candidates]))[:top_k]
    return i[order], j[order]


def _results(grams, top_a, top_b, ids, measures, pseudocount):
    """PairResults of the pairs (top_a, top_b): their counts gathered again and
    every measure evaluated on them alone, so a measure that would fail
    only on a pair outside them does not fail the scan."""
    counts = np.stack([g[top_a, top_b] for g in grams])
    top = cells_and_logs(np.add(counts, pseudocount, dtype=np.float64))
    values = {kind: kind.on_cells(*top) for kind in measures}
    results = []
    for k, c in enumerate(counts.T.astype(np.int64).tolist()):
        values_k = {kind: float(v[k]) for kind, v in values.items()}
        results.append(PairResult(ids[top_a[k]], ids[top_b[k]], tuple(c), sum(c), values_k))
    return results


def render_results(results, measures):
    """Deterministic CSV rendering of scan results (6-decimal values).

    An id holding a comma or a double quote is quoted, so every row has the
    header's fields; any other id is written as it is.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id_a", "id_b", "n", "n00", "n01", "n10", "n11"]
                    + [k.cli_name for k in measures])
    for r in results:
        writer.writerow([r.id_a, r.id_b, r.n, *r.counts]
                        + [f"{r.values[k]:.6f}" for k in measures])
    return out.getvalue()
