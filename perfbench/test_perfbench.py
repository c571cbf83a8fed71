"""Tests of the benchmark itself: seeded inputs, span arithmetic, output checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import run

CLI = run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "scan": dict(n_samples=200, n_markers=30, top=20),
    "grid": dict(half_width=1.0, step=0.25, samples=20),
    "critical": dict(count=500),
}


def make(name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, workdir, **SMALL[name])


def run_op(workload, k=0):
    for path in workload.output_paths:
        path.unlink(missing_ok=True)
    return run.invoke_all(CLI, workload.invocations(k))


def input_files(workdir):
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    make(name, 7, tmp_path / "a")
    make(name, 7, tmp_path / "b")
    make(name, 8, tmp_path / "c")
    first = input_files(tmp_path / "a")
    assert first and first == input_files(tmp_path / "b")
    if name != "grid":  # grid draws one of 24 odds-ratio orders
        assert first != input_files(tmp_path / "c")


def test_scan_inputs_follow_the_recipe():
    data = workloads.scan_matrix(3, 1000, 300)
    assert data.shape == (1000, 300)
    assert abs(np.mean(data == workloads.NA) - 0.05) < 0.005
    seen = (data[:, 6] != workloads.NA) & (data[:, 5] != workloads.NA)
    assert 0.05 < np.mean(data[seen, 6] != data[seen, 5]) < 0.15


def test_pair_counts_match_the_scanner(tmp_path):
    from twobytwo.scanner import BinaryMatrix, count_pair

    data = workloads.scan_matrix(5, 120, 12)
    counts = workloads.pair_counts(data)
    matrix = BinaryMatrix([str(j) for j in range(12)], data)
    for i in range(12):
        for j in range(i + 1, 12):
            assert tuple(counts[i, j]) == count_pair(matrix, i, j)


def spans(rows):
    """Span arrays from (name_id, parent, op, start, end) rows."""
    table = np.array(rows, dtype=np.int64)
    return {f: table[:, i] for i, f in enumerate(("name_id", "parent", "op", "start", "end"))}


def test_self_times_of_a_recursive_critical_solve():
    # critical --odds-ratio 0.01: the solve at 1/L runs inside the outer call.
    names = ["cli", "critical.critical_points", "critical.lambert_w0", "tables.theta",
             "tables.ProbTable"]
    tree = spans([
        (0, -1, 0, 0, 100),    # 0 cli
        (1, 0, 0, 10, 90),     # 1 critical_points(0.01)
        (1, 1, 0, 20, 60),     # 2 critical_points(100.0), recursive
        (2, 2, 0, 25, 30),     # 3 lambert_w0
        (2, 2, 0, 40, 44),     # 4 lambert_w0
        (4, 1, 0, 62, 64),     # 5 ProbTable from symmetry_apply
        (3, 1, 0, 65, 70),     # 6 theta
        (0, -1, 1, 200, 210),  # 7 cli of a second op with no library call
    ])
    own = tracing.self_times(tree["parent"], tree["start"], tree["end"])
    assert own.tolist() == [20, 80 - 40 - 2 - 5, 40 - 5 - 4, 5, 4, 2, 5, 10]
    totals, n_ops = tracing.per_op_totals(names, tree)
    assert n_ops == 2
    assert totals["critical.critical_points"] == (2, 33 + 31)
    assert totals["critical.lambert_w0"] == (2, 9)
    assert sum(s for _, s in totals.values()) == 100 + 10


def test_traced_op_counts_calls_and_self_times_add_up():
    tracer = tracing.Tracer()
    op = tracer.wrap(run.invoke_all, tracing.ROOT_SPAN)
    tracer.op_id = 0
    tracer.install()
    try:
        out = op(CLI, [["critical", "--odds-ratio", "0.01"]])
    finally:
        tracer.uninstall()
    assert out[0].count("\n") == 3
    arrays = tracer.arrays()
    totals, n_ops = tracing.per_op_totals(tracer.names, arrays)
    assert n_ops == 1
    assert totals["critical.critical_points"][0] == 2
    assert totals["tables.theta"][0] == 6
    root = arrays["end"][0] - arrays["start"][0]
    assert sum(s for _, s in totals.values()) == pytest.approx(root, abs=1e-3)
    # Uninstalled: later calls record nothing.
    run.invoke_all(CLI, [["critical", "--odds-ratio", "2"]])
    assert len(tracer) == len(arrays["start"])


def test_scan_check_rejects_swapped_rank_and_wrong_count(tmp_path):
    scan = make("scan", 11, tmp_path)
    run_op(scan)
    good = scan.output_paths[0].read_text()
    assert scan.check(0, None) == []
    lines = good.splitlines(keepends=True)
    hs = [abs(float(line.split(",")[7])) for line in lines[1:]]
    r = next(r for r in range(1, len(hs)) if hs[r] < hs[r - 1])
    swapped = lines[:r] + [lines[r + 1], lines[r]] + lines[r + 2:]
    errors = workloads.check_scan("".join(swapped), scan.marker_ids, scan.counts,
                                  scan.abs_hs, scan.measures, scan.top)
    assert any("out of order" in e for e in errors)
    fields = lines[1].split(",")
    fields[6] = str(int(fields[6]) + 1)
    wrong = [lines[0], ",".join(fields)] + lines[2:]
    errors = workloads.check_scan("".join(wrong), scan.marker_ids, scan.counts,
                                  scan.abs_hs, scan.measures, scan.top)
    assert any("counts" in e for e in errors)
    dropped = lines[:1] + lines[2:]
    errors = workloads.check_scan("".join(dropped), scan.marker_ids, scan.counts,
                                  scan.abs_hs, scan.measures, scan.top)
    assert any("unreported" in e for e in errors)


def test_grid_check_rejects_truncated_and_reordered_grids(tmp_path):
    grid = make("grid", 3, tmp_path)
    run_op(grid)
    assert grid.check(0, None) == []
    hs_path = grid.output_paths[0]
    lines = hs_path.read_bytes().splitlines(keepends=True)
    hs_path.write_bytes(b"".join(lines[:-1]))
    assert any("rows" in e for e in grid.check(0, None))
    hs_path.write_bytes(b"".join(lines[:1] + [lines[2], lines[1]] + lines[3:]))
    assert any("y-major" in e for e in grid.check(0, None))


@pytest.mark.parametrize("odds_ratio", ["0.01", "5.0", "40.0"])
def test_critical_check_accepts_the_solver_output(odds_ratio):
    (text,) = run.invoke_all(CLI, [["critical", "--odds-ratio", odds_ratio]])
    errors, residual = workloads.check_critical(text, float(odds_ratio))
    assert errors == [] and residual <= 1e-9
    assert workloads.check_critical_oracle(text, float(odds_ratio)) == []


def test_critical_check_rejects_a_wrong_odds_ratio():
    (text,) = run.invoke_all(CLI, [["critical", "--odds-ratio", "40.0"]])
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) * 1.001)
    corrupt = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    errors, residual = workloads.check_critical(corrupt, 40.0)
    assert residual > 1e-4 and any("residual" in e for e in errors)
    assert workloads.check_critical("\n".join(lines[:1]) + "\n", 40.0)[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)
    assert run.tail(list(range(40_000))) == (39_599, 99.0, 400)


def test_reference_samples_inside_an_op_give_its_kernel_and_handler_time():
    reference = run.Reference()
    reference.begin.extend((95, 195, 295, 395))
    reference.end.extend((100, 200, 300, 400))
    reference.ns.extend((10, 20, 40, 60))
    kernel, handler = reference.per_op(np.array([150, 210, 290, 500]),
                                       np.array([250, 290, 450, 600]))
    assert kernel.tolist() == [20.0, 30.0, 50.0, 60.0]
    assert handler.tolist() == [5.0, 0.0, 10.0, 0.0]


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(run.PER_LAYER.values())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

    class Stub:
        unit = "pairs"
        units_per_op = 2

    loop = run.Loop(Stub(), CLI)
    reference = run.Reference()
    reference.sample()
    after = reference.end[0] + 10
    loop.samples.extend((1, after, 1_000_000, 2, after + 2_000_000, 3_000_000))
    metrics, _, _ = run.end_to_end(loop, reference, 0.2)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()
    ]
    kernel_ns = reference.ns[0]
    assert metrics["op_p50_ref"][0] == pytest.approx(2_000_000 / kernel_ns)
    assert metrics["units_per_ref"][0] == pytest.approx(4 / (4_000_000 / kernel_ns))
