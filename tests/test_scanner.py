"""Tests for the pairwise scanner: parsing, counting, ranking, determinism."""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twobytwo import (
    BinaryMatrix,
    DegenerateTable,
    MeasureKind,
    ParseError,
    count_pair,
    counts_to_table,
    evaluate,
    load_matrix,
    scan,
    yule_y,
)
from twobytwo import scanner
from twobytwo.measures import CLI_NAMES
from twobytwo.scanner import _MISSING, _decode, _parse_canonical, _parse_lines, render_results


def matrix_from(text):
    return load_matrix(io.BytesIO(text.encode("utf-8")))


SMALL = "\n".join(
    [
        "m1\tm2\tm3",
        "0\t0\t1",
        "1\t1\t0",
        "1\t1\t1",
        "0\t1\tNA",
        "NA\t0\t0",
    ]
)


def random_matrix(n_samples, n_markers, seed, header_prefix="m"):
    rng = np.random.default_rng(seed)
    ids = [f"{header_prefix}{k}" for k in range(n_markers)]
    rows = rng.integers(0, 2, size=(n_samples, n_markers))
    lines = ["\t".join(ids)]
    lines += ["\t".join(str(v) for v in row) for row in rows]
    return "\n".join(lines)


class TestLoadMatrix:
    def test_small_example(self):
        m = matrix_from(SMALL)
        assert m.marker_ids == ["m1", "m2", "m3"]
        assert m.n_samples == 5
        assert m.n_markers == 3
        assert m.data[3, 2] == -1
        assert m.data[1, 0] == 1

    def test_blank_lines_skipped(self):
        m = matrix_from("a\tb\n0\t1\n\n1\t0\n")
        assert m.n_samples == 2

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            matrix_from("")
        assert err.value.line == 1

    def test_single_marker_header(self):
        with pytest.raises(ParseError) as err:
            matrix_from("only\n0\n")
        assert err.value.line == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            matrix_from("a\tb\n0\t1\n0\n")
        assert err.value.line == 3
        assert err.value.column is None

    def test_invalid_token_position(self):
        with pytest.raises(ParseError) as err:
            matrix_from("a\tb\n0\t1\n0\t2\n")
        assert err.value.line == 3
        assert err.value.column == 2
        assert "'2'" in str(err.value)

    @pytest.mark.parametrize(
        "raw,line,column",
        [
            (b"a\tb\n0\t1\n1\t\xff\n", 3, 2),
            (b"a\xff\tb\n0\t1\n", 1, 1),
            (b"a\tb\xff\n0\t1\n", 1, 2),
            (b"a\tb\n0\t1\n\xff", 3, 1),
            (b"a\tb\r\n0\t1\r\n1\t\xe2\x82\n", 3, 2),
        ],
    )
    def test_non_utf8_byte_position(self, raw, line, column):
        with pytest.raises(ParseError) as err:
            load_matrix(io.BytesIO(raw))
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value).startswith(f"line {line}, column {column}: invalid UTF-8 byte")

    def test_a_text_stream_is_refused(self):
        message = "load_matrix needs a binary stream, got str from read()"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            load_matrix(io.StringIO(SMALL))


def parse_outcome(parse):
    """The matrix a parser returns, or the error it raises, in comparable form."""
    try:
        m = parse()
    except ParseError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return m.marker_ids, m.data.dtype, m.data.shape, m.data.tolist()


def assert_parsers_agree(raw):
    fast = parse_outcome(lambda: load_matrix(io.BytesIO(raw)))
    loop = parse_outcome(lambda: _parse_lines(_decode(raw)))
    assert fast == loop


CANONICAL = b"m2\tm10\tm1\n0\t1\tNA\nNA\t0\t1\n1\t1\t0\nNA\tNA\tNA\n"

# (raw input, whether the vectorised pass reads it)
PARSER_CASES = {
    "final newline": (CANONICAL, True),
    "no final newline": (CANONICAL[:-1], True),
    "header only": (b"a\tb\n", True),
    "header only, no newline": (b"a\tb", True),
    "utf-8 header": ("\u00e4\t\u03b2\ufeff\n0\t1\n".encode(), True),
    "empty header id": (b"\tb\n0\t1\n", True),
    "crlf": (CANONICAL.replace(b"\n", b"\r\n"), False),
    "cr": (CANONICAL.replace(b"\n", b"\r"), False),
    "blank line": (b"a\tb\n0\t1\n\n1\t0\n", False),
    "trailing blank lines": (b"a\tb\n0\t1\n\n\n", False),
    "whitespace line": (b"a\tb\n0\t1\n  \n1\t0\n", False),
    "spaces around tokens": (b"a\tb\n 0\t1 \nNA \t 0\n", False),
    "form feed inside a header id": (b"a\x0cx\tb\n0\t1\n", False),
    "form feed ending the header": (b"a\tb\x0c\n0\t1\n", False),
    "line separator inside a header id": ("a\u2028x\tb\ty\n0\t1\n".encode(), False),
    "vertical tab in a row": (b"a\tb\n0\x0b1\n", False),
    "bad token, first column": (b"a\tb\tc\n0\t1\t0\n2\t1\t0\n", False),
    "bad token, last column": (b"a\tb\tc\n0\t1\t0\n1\t0\tx\n", False),
    "lone N": (b"a\tb\n0\tN\n", False),
    "lone N, no final newline": (b"a\tb\n0\tN", False),
    "lone A": (b"a\tb\nA\t1\n", False),
    "NAA": (b"a\tb\nNAA\t1\n", False),
    "empty field": (b"a\tb\tc\n0\t\t1\n", False),
    "trailing tab": (b"a\tb\n0\t1\t\n", False),
    "short row": (b"a\tb\tc\n0\t1\t0\n0\t1\n", False),
    "long row": (b"a\tb\n0\t1\t1\n", False),
    "two rows on one line": (b"a\tb\n0\t1\t1\t0\n", False),
    "non-utf-8 header": (b"a\xff\tb\n0\t1\n", False),
    "non-utf-8 row": (b"a\tb\n0\t\xff\n", False),
    "non-utf-8 byte on line 3": (b"a\tb\n0\t1\n1\t\xff\n", False),
    "empty input": (b"", False),
    "one marker": (b"a\n0\n", False),
}


class TestParserEquivalence:
    @pytest.mark.parametrize("raw,canonical", PARSER_CASES.values(), ids=PARSER_CASES)
    def test_matches_the_line_parser(self, raw, canonical):
        assert (_parse_canonical(raw) is not None) == canonical
        assert_parsers_agree(raw)

    def test_workload_sized_matrix(self):
        rng = np.random.default_rng(21)
        data = rng.choice(np.array(["0", "1", "NA"]), size=(400, 60), p=[0.5, 0.45, 0.05])
        lines = ["\t".join(f"m{k}" for k in range(60))] + ["\t".join(row) for row in data]
        raw = "\n".join(lines).encode()
        assert _parse_canonical(raw) is not None
        assert_parsers_agree(raw)
        assert_parsers_agree(raw + b"\n")

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.lists(st.sampled_from([b"0", b"1", b"NA"]), min_size=3, max_size=3)),
        final_newline=st.booleans(),
        glitch=st.sampled_from([b"", b"\r", b" ", b"\n", b"\t", b"2", b"N", b"A", b"\xff"]),
        at=st.integers(min_value=0),
        width=st.integers(min_value=0, max_value=1),
    )
    def test_matches_the_line_parser_near_canonical(self, rows, final_newline, glitch, at, width):
        # A canonical 3-marker matrix with one byte replaced or inserted at `at`.
        body = b"\n".join(b"\t".join(row) for row in rows) + b"\n" * final_newline
        at %= len(body) + 1
        assert_parsers_agree(b"a\tb\tc\n" + body[:at] + glitch + body[at + width :])


class TestBinaryMatrix:
    @pytest.mark.parametrize(
        "ids,data,message",
        [
            # Unchecked, too few ids ended scan in a bare IndexError and extra ids were dropped.
            (["a", "b"], np.zeros((2, 3), np.int8), "2 marker ids for 3 columns"),
            (["a", "b", "c", "d"], np.zeros((2, 3), np.int8), "4 marker ids for 3 columns"),
            (["a", "b"], np.zeros(2, np.int8), "got 1-d int8"),
            (["a", "b"], np.zeros((2, 2)), "got 2-d float64"),
            (["a", "b"], [[0, 1], [1, 0]], "got 2-d list"),
            # Unchecked, scan counted (a, b) as (1, 0, 1, 1) and count_pair as (0, 1, 1, 1).
            (["a", "b", "c"], np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]]), "-1 (missing), 0 or 1"),
            (["a", "b"], np.array([[0, -2], [1, 0]], np.int8), "-1 (missing), 0 or 1"),
        ],
        ids=["fewer ids", "more ids", "1-d", "float", "list", "entry 2", "entry -2"],
    )
    def test_rejected(self, ids, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BinaryMatrix(ids, data)

    def test_empty_matrix(self):
        # The min/max check is skipped: a zero-size reduction would raise.
        header_only = matrix_from("a\tb\n")
        assert header_only.data.shape == (0, 2)
        assert BinaryMatrix([], np.empty((3, 0), np.int8)).n_markers == 0
        kind = MeasureKind("yule_y")
        assert [r.counts for r in scan(header_only, [kind], kind, 1)] == [(0, 0, 0, 0)]

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_any_integer_or_bool_dtype(self, dtype):
        m = matrix_from(random_matrix(40, 5, seed=8))
        other = BinaryMatrix(m.marker_ids, m.data.astype(dtype))
        kind = MeasureKind("hs")
        assert scan(other, [kind], kind, 10) == scan(m, [kind], kind, 10)

    def test_fields_cannot_be_assigned(self):
        # The check runs at construction; assigned after it, an entry of 2
        # made scan and count_pair disagree, and two ids for three columns
        # ended scan in a bare IndexError.
        m = BinaryMatrix(["a", "b", "c"], np.zeros((3, 3), np.int8))
        for name, value in [("data", np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]])),
                            ("marker_ids", ["a", "b"])]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, value)


class TestCountPair:
    def test_counts_with_pairwise_deletion(self):
        m = matrix_from(SMALL)
        # Rows 4 and 5 each have one NA involving m1/m3.
        assert count_pair(m, 0, 1) == (1, 1, 0, 2)
        assert count_pair(m, 0, 2) == (0, 1, 1, 1)
        assert count_pair(m, 1, 2) == (1, 1, 1, 1)

    def test_counts_sum_to_complete_samples(self):
        text = random_matrix(200, 5, seed=7)
        m = matrix_from(text)
        for i in range(5):
            for j in range(i + 1, 5):
                assert sum(count_pair(m, i, j)) == 200

    def test_na_rows_dropped(self):
        lines = ["a\tb"] + ["1\t1"] * 9 + ["NA\t1"]
        m = matrix_from("\n".join(lines))
        counts = count_pair(m, 0, 1)
        assert sum(counts) == 9
        assert counts == (0, 0, 0, 9)

    def test_same_marker_rejected(self):
        m = matrix_from(SMALL)
        with pytest.raises(ValueError):
            count_pair(m, 1, 1)

    @pytest.mark.parametrize(
        "i,j,bad", [(-1, 2, "-1"), (0, 3, "3"), (True, 2, "True"), (0, 1.0, "1.0")]
    )
    def test_index_outside_the_markers_rejected(self, i, j, bad):
        # -1 would alias marker 2, and True would index as a mask.
        m = matrix_from(SMALL)
        with pytest.raises(ValueError, match=rf"integer in \[0, 3\), got {bad}$"):
            count_pair(m, i, j)

    def test_numpy_integer_indices(self):
        m = matrix_from(SMALL)
        assert count_pair(m, np.int64(0), np.intp(1)) == count_pair(m, 0, 1)


class TestCountsToTable:
    def test_pseudocount_half(self):
        t = counts_to_table((5, 0, 0, 5), 0.5)
        assert t.cells == pytest.approx((5.5 / 12, 0.5 / 12, 0.5 / 12, 5.5 / 12))

    def test_zero_pseudocount_on_positive_counts(self):
        t = counts_to_table((1, 2, 3, 4), 0.0)
        assert t.cells == pytest.approx((0.1, 0.2, 0.3, 0.4))

    def test_zero_cell_without_pseudocount(self):
        with pytest.raises(DegenerateTable):
            counts_to_table((0, 0, 0, 0), 0.0)

    def test_negative_pseudocount(self):
        with pytest.raises(ValueError):
            counts_to_table((1, 1, 1, 1), -0.1)
        # Negative, although its float rounds to -0.0.
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0"):
            counts_to_table((1, 2, 3, 4), Fraction(-1, 10**400))

    @pytest.mark.parametrize("pseudocount", [math.nan, math.inf, -math.inf])
    def test_non_finite_pseudocount(self, pseudocount):
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0") as info:
            counts_to_table((1, 1, 1, 1), pseudocount)
        assert not isinstance(info.value, DegenerateTable)

    @pytest.mark.parametrize(
        "pseudocount", [True, False, np.True_, "0.5", None, Decimal("0.5")], ids=repr
    )
    def test_non_real_or_bool_pseudocount(self, pseudocount):
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0") as info:
            counts_to_table((1, 2, 3, 4), pseudocount)
        assert not isinstance(info.value, DegenerateTable)

    @pytest.mark.parametrize(
        "pseudocount,same_as",
        [(np.float32(0.5), 0.5), (1, 1.0), (Fraction(1, 2), 0.5)],
        ids=["float32", "int", "Fraction"],
    )
    def test_any_real_pseudocount(self, pseudocount, same_as):
        assert counts_to_table((1, 2, 3, 4), pseudocount) == counts_to_table((1, 2, 3, 4), same_as)

    def test_pseudocount_past_the_double_range(self):
        # A Python int is a real that may not fit a double.
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0") as info:
            counts_to_table((1, 2, 3, 4), 10**400)
        assert not isinstance(info.value, DegenerateTable)

    @pytest.mark.parametrize("count", [-1, -0.2], ids=repr)
    def test_negative_count(self, count):
        with pytest.raises(ValueError, match="counts must be reals >= 0") as info:
            counts_to_table((count, 2, 3, 4), 0.5)
        assert not isinstance(info.value, DegenerateTable)

    def test_count_past_the_double_range_is_degenerate(self):
        with pytest.raises(DegenerateTable, match="past the double range"):
            counts_to_table((10**400, 1, 1, 1), 0.5)

    def test_shrinkage_reduces_association(self):
        counts = (50, 0, 25, 25)
        magnitudes = [
            abs(yule_y(counts_to_table(counts, alpha)))
            for alpha in (0.1, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


class TestScan:
    def test_duplicate_column_ranks_first(self):
        base = random_matrix(500, 10, seed=11)
        lines = base.splitlines()
        header = lines[0] + "\tdup0"
        rows = [line + "\t" + line.split("\t")[0] for line in lines[1:]]
        m = matrix_from("\n".join([header] + rows))
        kind = MeasureKind("hs", 4.0)
        results = scan(m, [kind], kind, top_k=3)
        assert (results[0].id_a, results[0].id_b) == ("m0", "dup0")
        assert results[0].counts[1] == 0 and results[0].counts[2] == 0
        assert abs(results[0].values[kind]) > abs(results[1].values[kind])

    def test_top_k_clamps_to_pair_count(self):
        m = matrix_from(random_matrix(50, 4, seed=12))
        kind = MeasureKind("yule_q")
        assert len(scan(m, [kind], kind, top_k=100)) == 6

    def test_invalid_arguments(self):
        m = matrix_from(SMALL)
        q = MeasureKind("yule_q")
        y = MeasureKind("yule_y")
        with pytest.raises(ValueError):
            scan(m, [q], y, top_k=5)
        with pytest.raises(ValueError):
            scan(m, [q], q, top_k=0)

    @pytest.mark.parametrize("pseudocount", [-0.5, math.nan, math.inf, Fraction(-1, 10**400)])
    def test_bad_pseudocount_is_not_blamed_on_a_pair(self, pseudocount):
        m = matrix_from(SMALL)
        q = MeasureKind("yule_q")
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0") as info:
            scan(m, [q], q, top_k=5, pseudocount=pseudocount)
        assert not isinstance(info.value, DegenerateTable)

    @pytest.mark.parametrize("pseudocount", [math.nan, -1.0, 10**400], ids=repr)
    def test_bad_pseudocount_fails_a_matrix_of_one_marker(self, pseudocount):
        # Fewer than two markers give no pairs, but the argument is still checked.
        m = BinaryMatrix(["a"], np.zeros((3, 1), np.int8))
        q = MeasureKind("yule_q")
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0"):
            scan(m, [q], q, 5, pseudocount=pseudocount)
        assert scan(m, [q], q, 5) == []

    @pytest.mark.parametrize("pseudocount", [True, np.True_, "0.5", None], ids=repr)
    def test_non_real_or_bool_pseudocount(self, pseudocount):
        m = matrix_from(SMALL)
        q = MeasureKind("yule_q")
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0") as info:
            scan(m, [q], q, top_k=5, pseudocount=pseudocount)
        assert not isinstance(info.value, DegenerateTable)

    @pytest.mark.parametrize("pseudocount", [np.float32(0.5), Fraction(1, 2)], ids=repr)
    def test_any_real_pseudocount(self, pseudocount):
        m = matrix_from(SMALL)
        q = MeasureKind("yule_q")
        assert scan(m, [q], q, 3, pseudocount) == scan(m, [q], q, 3, 0.5)

    @pytest.mark.parametrize("top_k", [2.5, math.nan, True, 0])
    def test_top_k_must_be_a_positive_integer(self, top_k):
        m = matrix_from(SMALL)
        q = MeasureKind("yule_q")
        with pytest.raises(ValueError, match="top_k must be"):
            scan(m, [q], q, top_k=top_k)

    def test_top_k_may_be_a_numpy_integer(self):
        m = matrix_from(SMALL)
        q = MeasureKind("yule_q")
        assert scan(m, [q], q, top_k=np.int64(2)) == scan(m, [q], q, top_k=2)

    @pytest.mark.parametrize(
        "pseudocount,error,message",
        [
            (math.nan, ValueError, "pseudocount must be finite and >= 0, got nan"),
            (-1.0, ValueError, "pseudocount must be finite and >= 0, got -1.0"),
            (1e308, DegenerateTable,
             "pair (m1, m2): cells do not have a finite positive sum: "
             "[1e+308, 1e+308, 1e+308, 1e+308]"),
            # (m1, m2) of SMALL has n10 = 0.
            (0.0, DegenerateTable,
             "pair (m1, m2): zero cell with pseudocount 0.0: counts (1, 1, 0, 2)"),
        ],
    )
    def test_first_pair_fails_before_any_matrix_product(self, pseudocount, error, message):
        class NoProducts(np.ndarray):
            def __matmul__(self, other):
                raise AssertionError("a matrix product ran")

            __rmatmul__ = __matmul__

        m = matrix_from(SMALL)
        m = BinaryMatrix(m.marker_ids, m.data.view(NoProducts))
        q = MeasureKind("yule_q")
        with pytest.raises(AssertionError, match="a matrix product ran"):
            scan(m, [q], q, top_k=3)
        with pytest.raises(error) as info:
            scan(m, [q], q, top_k=3, pseudocount=pseudocount)
        assert type(info.value) is error and str(info.value) == message

    def test_jobs_do_not_change_output(self):
        m = matrix_from(random_matrix(300, 12, seed=13))
        kinds = [MeasureKind("hs", 4.0), MeasureKind("corr_r")]
        serial = render_results(scan(m, kinds, kinds[0], 10, jobs=1), kinds)
        threaded = render_results(scan(m, kinds, kinds[0], 10, jobs=4), kinds)
        assert serial == threaded

    def test_values_consistent_with_direct_evaluation(self):
        m = matrix_from(random_matrix(120, 6, seed=14))
        kind = MeasureKind("yule_y")
        for r in scan(m, [kind], kind, top_k=15):
            want = yule_y(counts_to_table(r.counts, 0.5))
            assert r.values[kind] == pytest.approx(want, abs=1e-12)

    def test_independent_markers_score_low(self):
        m = matrix_from(random_matrix(10_000, 8, seed=15))
        kind = MeasureKind("hs", 4.0)
        results = scan(m, [kind], kind, top_k=28)
        values = sorted(abs(r.values[kind]) for r in results)
        assert values[len(values) // 2] < 0.1

    @pytest.mark.parametrize(
        "text,pair",
        [
            ("a\tb\tc\n0\t0\t1\n1\t1\t0\n1\t1\t1", "(a, b)"),
            # (a, b) has no zero cell; (a, c) has two, (b, c) none.
            ("a\tb\tc\n0\t0\t0\n1\t0\t1\n0\t1\t0\n1\t1\t1", "(a, c)"),
        ],
    )
    def test_zero_pseudocount_names_first_zero_cell_pair(self, text, pair):
        m = matrix_from(text)
        kind = MeasureKind("yule_y")
        with pytest.raises(DegenerateTable) as err:
            scan(m, [kind], kind, top_k=3, pseudocount=0.0)
        assert str(err.value).startswith(f"pair {pair}: zero cell")

    def test_ties_break_on_id_strings(self):
        column = ["0", "1", "1", "0", "1", "0"]
        lines = ["m2\tm10\tm1"] + ["\t".join([v] * 3) for v in column]
        m = matrix_from("\n".join(lines))
        kind = MeasureKind("yule_y")
        results = scan(m, [kind], kind, top_k=3)
        assert [(r.id_a, r.id_b) for r in results] == [
            ("m10", "m1"),
            ("m2", "m1"),
            ("m2", "m10"),
        ]

    def test_all_pair_counts_match_count_pair_with_na(self):
        rng = np.random.default_rng(16)
        data = rng.choice(np.array(["0", "1", "NA"]), size=(80, 7), p=[0.5, 0.4, 0.1])
        ids = [f"m{k}" for k in range(7)]
        lines = ["\t".join(ids)] + ["\t".join(row) for row in data]
        m = matrix_from("\n".join(lines))
        kind = MeasureKind("corr_r")
        results = scan(m, [kind], kind, top_k=21)
        assert len(results) == 21
        for r in results:
            i, j = ids.index(r.id_a), ids.index(r.id_b)
            assert r.counts == count_pair(m, i, j)
            assert r.n == sum(r.counts)

    @pytest.mark.parametrize("top_k", [1, 3, 10, 11, 12, 25, 66, 67, 500])
    def test_ties_at_the_cutoff_follow_a_full_sort(self, top_k):
        # Six copies of one column and five of another: 15 and 10 pairs with
        # identical tables, so more than top_k pairs tie at the k-th |v|.
        rng = np.random.default_rng(18)
        base = rng.integers(0, 2, size=(60, 3)).astype(str)
        base[rng.random(base.shape) < 0.1] = "NA"
        columns = [0, 1, 0, 0, 1, 0, 2, 1, 0, 1, 0, 1]
        ids = ["m9", "m10", "m1", "m2", "m11", "m20", "m3", "m0", "m100", "m12", "m5", "m4"]
        lines = ["\t".join(ids)] + ["\t".join(row[columns]) for row in base]
        m = matrix_from("\n".join(lines))
        kind = MeasureKind("yule_y")
        pairs = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                v = evaluate(kind, counts_to_table(count_pair(m, i, j), 0.5))
                pairs.append((-abs(v), ids[i], ids[j], v))
        want = sorted(pairs)[:top_k]
        assert len(pairs) == 66
        results = scan(m, [kind], kind, top_k=top_k)
        assert [(r.id_a, r.id_b, r.values[kind]) for r in results] == [w[1:] for w in want]

    def test_other_measures_are_evaluated_on_the_top_k_only(self):
        # m3 is 1 in one sample only, so (m1, m3) and (m2, m3) have a zero
        # cell.  With a subnormal pseudocount lambda truly overflows there (a
        # zero cell in its denominator) and D does not.
        a = [k % 2 for k in range(40)]
        b = [1 - v if k in (3, 10, 17, 24) else v for k, v in enumerate(a)]
        c = [int(k == 1) for k in range(40)]
        lines = ["m1\tm2\tm3"] + [f"{u}\t{v}\t{w}" for u, v, w in zip(a, b, c)]
        m = matrix_from("\n".join(lines))
        d, y = MeasureKind("d_raw"), MeasureKind("odds_ratio")
        (top,) = scan(m, [d, y], d, top_k=1, pseudocount=1e-320)
        assert (top.id_a, top.id_b) == ("m1", "m2")
        assert top.values[y] == evaluate(y, counts_to_table(top.counts, 1e-320))
        # Inside the top k, or as the ranking measure, lambda fails the scan.
        with pytest.raises(FloatingPointError):
            scan(m, [d, y], d, top_k=2, pseudocount=1e-320)
        with pytest.raises(FloatingPointError):
            scan(m, [d, y], y, top_k=1, pseudocount=1e-320)

    @pytest.mark.parametrize(
        "matrix,pseudocount",
        [
            (matrix_from(random_matrix(300, 12, seed=17)), 0.5),
            # A table total summed in another order than ProbTable's changes
            # the last bits of some cells here.
            (matrix_from(random_matrix(1000, 12, seed=17)), 0.1),
        ],
        ids=["300x12-0.5", "1000x12-0.1"],
    )
    def test_values_equal_the_scalar_api_bit_for_bit(self, matrix, pseudocount):
        # Ranking ties are exact ties of these values, so the bulk kernels must
        # agree with evaluate() on the pair's own table to the last bit.
        kinds = [MeasureKind.from_cli(name) for name in CLI_NAMES]
        results = scan(matrix, kinds, kinds[-1], top_k=66, pseudocount=pseudocount)
        for r in results:
            table = counts_to_table(r.counts, pseudocount)
            for kind in kinds:
                assert type(r.values[kind]) is float
                assert r.values[kind] == evaluate(kind, table), (r.id_a, r.id_b, kind)

    def test_values_do_not_depend_on_marker_order(self):
        # Reversing the columns transposes the table of every pair, which
        # leaves all twelve measures, so each pair keeps its values to the bit.
        m = matrix_from(random_matrix(1000, 12, seed=17))
        flipped = BinaryMatrix(m.marker_ids[::-1], np.ascontiguousarray(m.data[:, ::-1]))
        kinds = [MeasureKind.from_cli(name) for name in CLI_NAMES]

        def values_by_pair(matrix):
            results = scan(matrix, kinds, kinds[-1], top_k=66, pseudocount=0.1)
            return {frozenset((r.id_a, r.id_b)): [r.values[k] for k in kinds] for r in results}

        assert values_by_pair(flipped) == values_by_pair(m)

    def test_one_marker_has_no_pairs(self):
        m = BinaryMatrix(["m0"], np.array([[0], [1], [_MISSING]], dtype=np.int8))
        kind = MeasureKind("yule_y")
        assert scan(m, [kind], kind, top_k=5) == []

    def test_float64_counts_equal_float32_counts_and_count_pair(self, monkeypatch):
        # Above _FLOAT32_SAMPLES samples scan counts in float64; a limit of 0
        # takes that branch on a small matrix.
        rng = np.random.default_rng(37)
        data = rng.choice(np.array([0, 1, _MISSING], dtype=np.int8), size=(300, 12))
        m = BinaryMatrix([f"m{k}" for k in range(12)], data)
        kinds = [MeasureKind.from_cli(name) for name in CLI_NAMES]
        dtypes = []
        original = scanner._grams

        def spy(matrix):
            grams = original(matrix)
            dtypes.append(grams[0].dtype.name)
            return grams

        monkeypatch.setattr(scanner, "_grams", spy)
        in_float32 = scan(m, kinds, kinds[-1], top_k=66, pseudocount=0.1)
        monkeypatch.setattr(scanner, "_FLOAT32_SAMPLES", 0)
        in_float64 = scan(m, kinds, kinds[-1], top_k=66, pseudocount=0.1)
        assert dtypes == ["float32", "float64"]
        assert in_float64 == in_float32
        for r in in_float64:
            assert r.counts == count_pair(m, int(r.id_a[1:]), int(r.id_b[1:]))

    def test_rank_by_ignores_n_of_a_measure_that_does_not_read_it(self):
        m = matrix_from(SMALL)
        results = scan(m, [MeasureKind("yule_y", 2.0)], MeasureKind("yule_y"), 2)
        assert [r.values for r in results] == [
            r.values for r in scan(m, [MeasureKind("yule_y")], MeasureKind("yule_y"), 2)
        ]


DEFAULT_TILE_PAIRS = scanner._TILE_PAIRS


def pairs_of_each_tile(monkeypatch, matrix, kind):
    """The pair count of each tile that scan evaluates rank_by on."""
    sizes = []
    original = scanner.cells_and_logs

    def spy(cells):
        sizes.append(cells.shape[1])
        return original(cells)

    with monkeypatch.context() as m:
        m.setattr(scanner, "cells_and_logs", spy)
        scan(matrix, [kind], kind, top_k=1)
    return sizes[:-1]  # the last call is the top_k's


def scan_with_default_tiles(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(scanner, "_TILE_PAIRS", DEFAULT_TILE_PAIRS)
        return scan(*args, **kwargs)


class TestTiles:
    # 12 markers: rows of 11, 10, ..., 1 pairs, 66 pairs in all.
    @pytest.fixture(params=["one row per tile", "a partial last tile"])
    def tiles(self, request, monkeypatch):
        """Pair counts of the tiles of a scan of 12 markers."""
        if request.param == "one row per tile":
            monkeypatch.setattr(scanner, "_TILE_PAIRS", 1)
            return list(range(11, 0, -1))
        # Rows of 11 + 10 + 9 and 8 + 7 + 6 + 5 + 4 fill 30 pairs; 3 + 2 + 1 remain.
        monkeypatch.setattr(scanner, "_TILE_PAIRS", 30)
        return [30, 30, 6]

    def test_tiles_are_whole_rows(self, tiles, monkeypatch):
        m = matrix_from(random_matrix(50, 12, seed=30))
        assert pairs_of_each_tile(monkeypatch, m, MeasureKind("yule_y")) == tiles

    @pytest.mark.parametrize("pseudocount", [0.5, 0.1])
    def test_results_equal_the_default_tiles_and_count_pair(self, tiles, monkeypatch, pseudocount):
        rng = np.random.default_rng(31)
        data = rng.choice(np.array(["0", "1", "NA"]), size=(300, 12), p=[0.5, 0.4, 0.1])
        ids = [f"m{k}" for k in range(12)]
        m = matrix_from("\n".join(["\t".join(ids)] + ["\t".join(row) for row in data]))
        kinds = [MeasureKind.from_cli(name) for name in CLI_NAMES]
        for rank_by in kinds:
            got = scan(m, kinds, rank_by, top_k=66, pseudocount=pseudocount)
            assert got == scan_with_default_tiles(
                monkeypatch, m, kinds, rank_by, top_k=66, pseudocount=pseudocount
            )
            assert len(got) == 66
            for r in got:
                assert r.counts == count_pair(m, ids.index(r.id_a), ids.index(r.id_b))

    def test_zero_pseudocount_names_the_first_zero_cell_pair_of_a_later_tile(
        self, tiles, monkeypatch
    ):
        # m9 copies m8 and m11 is the complement of m10: (m8, m9) and
        # (m10, m11) are the only pairs with a zero cell, in the last rows.
        rng = np.random.default_rng(32)
        data = rng.integers(0, 2, size=(200, 12))
        data[:, 9] = data[:, 8]
        data[:, 11] = 1 - data[:, 10]
        ids = [f"m{k}" for k in range(12)]
        m = matrix_from("\n".join(["\t".join(ids)] + ["\t".join(map(str, row)) for row in data]))
        kind = MeasureKind("yule_y")
        with pytest.raises(DegenerateTable) as err:
            scan(m, [kind], kind, top_k=3, pseudocount=0.0)
        assert str(err.value).startswith("pair (m8, m9): zero cell")
        with pytest.raises(DegenerateTable) as want:
            scan_with_default_tiles(monkeypatch, m, [kind], kind, top_k=3, pseudocount=0.0)
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("pseudocount", [-0.5, math.nan, math.inf])
    def test_bad_pseudocount_is_not_blamed_on_a_pair(self, tiles, pseudocount):
        m = matrix_from(random_matrix(40, 12, seed=33))
        q = MeasureKind("yule_q")
        with pytest.raises(ValueError, match="pseudocount must be finite and >= 0") as info:
            scan(m, [q], q, top_k=5, pseudocount=pseudocount)
        assert not isinstance(info.value, DegenerateTable)

    @pytest.mark.parametrize("top_k", [1, 3, 10, 11, 12, 25, 66])
    def test_ties_across_tiles_follow_a_full_sort(self, tiles, top_k):
        # Copies of three columns: pairs with one table lie in every tile.
        rng = np.random.default_rng(34)
        base = rng.integers(0, 2, size=(60, 3)).astype(str)
        columns = [0, 1, 0, 0, 1, 0, 2, 1, 0, 1, 0, 1]
        ids = ["m9", "m10", "m1", "m2", "m11", "m20", "m3", "m0", "m100", "m12", "m5", "m4"]
        m = matrix_from("\n".join(["\t".join(ids)] + ["\t".join(row[columns]) for row in base]))
        kind = MeasureKind("yule_y")
        pairs = []
        for i in range(12):
            for j in range(i + 1, 12):
                v = evaluate(kind, counts_to_table(count_pair(m, i, j), 0.5))
                pairs.append((-abs(v), ids[i], ids[j], v))
        want = sorted(pairs)[:top_k]
        results = scan(m, [kind], kind, top_k=top_k)
        assert [(r.id_a, r.id_b, r.values[kind]) for r in results] == [w[1:] for w in want]

    @pytest.mark.parametrize("top_k", [1, 2, 100])
    def test_two_markers(self, tiles, top_k):
        m = matrix_from(random_matrix(30, 2, seed=35))
        kind = MeasureKind("hs")
        (r,) = scan(m, [kind], kind, top_k=top_k)
        assert (r.id_a, r.id_b) == ("m0", "m1")
        assert r.counts == count_pair(m, 0, 1)
        assert r.values[kind] == evaluate(kind, counts_to_table(r.counts, 0.5))

    def test_top_k_at_or_above_the_pair_count(self, tiles, monkeypatch):
        m = matrix_from(random_matrix(80, 12, seed=36))
        kind = MeasureKind("corr_r")
        everything = scan(m, [kind], kind, top_k=66)
        assert len(everything) == 66
        assert scan(m, [kind], kind, top_k=10**6) == everything
        assert everything == scan_with_default_tiles(monkeypatch, m, [kind], kind, top_k=66)


class TestRender:
    def test_header_and_format(self):
        m = matrix_from(SMALL)
        kinds = [MeasureKind("yule_y"), MeasureKind("hs", 4.0)]
        text = render_results(scan(m, kinds, kinds[0], 3), kinds)
        lines = text.splitlines()
        assert lines[0] == "id_a,id_b,n,n00,n01,n10,n11,Y,HS"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert len(fields) == 9
        float(fields[-1])  # parses as a decimal
        assert len(fields[-1].split(".")[1]) == 6

    def test_ids_with_commas_and_quotes_read_back(self):
        ids = ["rs1,a", 'rs2"b', "c", "plain id"]
        m = matrix_from(random_matrix(40, 4, seed=37).replace("m0\tm1\tm2\tm3", "\t".join(ids)))
        kinds = [MeasureKind("yule_y"), MeasureKind("kappa")]
        results = scan(m, kinds, kinds[0], 6)
        rows = list(csv.reader(io.StringIO(render_results(results, kinds))))
        assert rows[0] == ["id_a", "id_b", "n", "n00", "n01", "n10", "n11", "Y", "kappa"]
        assert len(rows) == 7
        assert all(len(row) == len(rows[0]) for row in rows)
        assert [row[:2] for row in rows[1:]] == [[r.id_a, r.id_b] for r in results]
        assert {row[0] for row in rows[1:]} | {row[1] for row in rows[1:]} == set(ids)

    def test_plain_ids_are_written_as_they_are(self):
        m = matrix_from(SMALL)
        kinds = [MeasureKind("yule_y")]
        (r,) = scan(m, kinds, kinds[0], 1)
        line = render_results([r], kinds).splitlines()[1]
        assert line == f"{r.id_a},{r.id_b},{r.n},{','.join(map(str, r.counts))},{r.values[kinds[0]]:.6f}"
