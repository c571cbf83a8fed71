"""Tests for the pairwise scanner: parsing, counting, ranking, determinism."""

from __future__ import annotations

import io

import numpy as np
import pytest

from twobytwo import (
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
from twobytwo.measures import CLI_NAMES
from twobytwo.scanner import render_results


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

    def test_unsupported_format(self):
        with pytest.raises(ValueError):
            load_matrix(io.BytesIO(b"a\tb\n"), fmt="csv")


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

    def test_values_equal_the_scalar_api_bit_for_bit(self):
        # Ranking ties are exact ties of these values, so the bulk kernels must
        # agree with evaluate() on the pair's own table to the last bit.
        m = matrix_from(random_matrix(300, 12, seed=17))
        kinds = [MeasureKind.from_cli(name) for name in CLI_NAMES]
        results = scan(m, kinds, kinds[-1], top_k=66)
        for r in results:
            table = counts_to_table(r.counts, 0.5)
            for kind in kinds:
                assert type(r.values[kind]) is float
                assert r.values[kind] == evaluate(kind, table), (r.id_a, r.id_b, kind)


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
