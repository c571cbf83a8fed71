"""Seeded inputs, CLI invocations and output checks of the three workloads.

Each workload draws its inputs from ``numpy.random.default_rng(seed)`` and
writes them into a work directory before anything is timed; the program
sees only those files and its command-line arguments.  One op is one CLI
invocation (two for ``grid``).  The checks run outside the op timer and
return a list of error strings, empty when the output is right.

The workloads use only the flags --measure, --top, --odds-ratio,
--half-width, --step and -o.
"""

from __future__ import annotations

import math
import time

import numpy as np

from twobytwo.critical import entropy_grid_argmax
from twobytwo.measures import MeasureKind, evaluate
from twobytwo.scanner import counts_to_table
from twobytwo.tables import MarginCoords, psi

NA = -1
# Odds-ratio at which the constrained-entropy maximum bifurcates: W0(1/e)**-2.
MAGIC_ODDS_RATIO = 0.27846454276107380 ** -2
MAX_ERRORS = 5


# --- scan -------------------------------------------------------------------


def scan_matrix(seed, n_samples, n_markers):
    """Samples-by-markers int8 matrix of 0/1/NA(-1).

    Marker 1-frequencies are uniform in [0.01, 0.5]; every 7th marker is a
    copy of its left neighbour with 10% of the samples flipped; 5% of all
    entries are NA.
    """
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.01, 0.5, size=n_markers)
    data = (rng.random((n_samples, n_markers)) < freq).astype(np.int8)
    for j in range(6, n_markers, 7):
        data[:, j] = data[:, j - 1]
        data[rng.choice(n_samples, n_samples // 10, replace=False), j] ^= 1
    data[rng.random((n_samples, n_markers)) < 0.05] = NA
    return data


def matrix_tsv(marker_ids, data):
    tokens = np.array(["NA", "0", "1"])[data + 1]
    lines = ["\t".join(marker_ids)] + ["\t".join(row) for row in tokens]
    return ("\n".join(lines) + "\n").encode("ascii")


def pair_counts(data):
    """(n00, n01, n10, n11) of every marker pair over pairwise-complete samples.

    Entry [i, j] counts marker i as the row variable, as ``count_pair(i, j)``
    does.  Computed by matrix products, independently of the scanner.
    """
    seen = (data != NA).astype(np.float64)
    ones = (data == 1).astype(np.float64)
    n11 = ones.T @ ones
    n10 = ones.T @ seen - n11
    n01 = seen.T @ ones - n11
    n00 = seen.T @ seen - n11 - n10 - n01
    return np.rint(np.stack([n00, n01, n10, n11], axis=-1)).astype(np.int64)


def check_scan(text, marker_ids, counts, abs_hs, measures, top, pseudocount=0.5):
    """Check a scan CSV against the count oracle and the measure formulas.

    counts is ``pair_counts`` of the input; abs_hs holds |HS| of every pair
    i < j in ``np.triu_indices`` order.  Values are printed with 6 decimals,
    so each must lie within half a unit of the 6th decimal (plus 1e-12) of
    ``evaluate(kind, counts_to_table(counts, pseudocount))``.
    """
    kinds = {name: MeasureKind.from_cli(name) for name in measures}
    header = "id_a,id_b,n,n00,n01,n10,n11," + ",".join(measures)
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"scan: header is {lines[:1]!r}, want {header!r}"]
    rows = lines[1:]
    errors = []
    if len(rows) != top:
        errors.append(f"scan: {len(rows)} rows, want {top}")
    index = {marker: j for j, marker in enumerate(marker_ids)}
    reported = set()
    prev_key = last_abs = None
    for rank, line in enumerate(rows, start=1):
        fields = line.split(",")
        i, j = (index.get(f) for f in fields[:2]) if len(fields) >= 2 else (None, None)
        if len(fields) != 7 + len(measures) or i is None or j is None or i >= j:
            errors.append(f"scan: rank {rank}: malformed row {line!r}")
            continue
        want = tuple(int(c) for c in counts[i, j])
        if fields[2:7] != [str(sum(want))] + [str(c) for c in want]:
            errors.append(f"scan: rank {rank}: counts {fields[2:7]}, want n={sum(want)} {want}")
        table = counts_to_table(want, pseudocount)
        values = {name: evaluate(kind, table) for name, kind in kinds.items()}
        for name, got in zip(measures, fields[7:]):
            if not abs(float(got) - values[name]) <= 0.5e-6 + 1e-12:
                errors.append(f"scan: rank {rank}: {name}={got}, want {values[name]!r}")
        # Non-increasing |rank measure|; exact ties break on (id_a, id_b).
        key = (abs(values[measures[0]]), fields[0], fields[1])
        if prev_key is not None and (
            key[0] > prev_key[0] + 1e-12 or (key[0] == prev_key[0] and key[1:] < prev_key[1:])
        ):
            errors.append(f"scan: rank {rank} ({fields[0]},{fields[1]}) is out of order")
        prev_key, last_abs = key, key[0]
        reported.add((i, j))
    if last_abs is not None:
        ia, ib = np.triu_indices(len(marker_ids), 1)
        better = np.flatnonzero(abs_hs > last_abs + 1e-12)
        missing = [(int(ia[p]), int(ib[p])) for p in better if (ia[p], ib[p]) not in reported]
        if missing:
            errors.append(f"scan: {len(missing)} unreported pairs beat the last reported one")
    return errors[:MAX_ERRORS]


class Scan:
    """`twobytwo scan M.tsv --measure HS --measure Y --measure MI --top 100`."""

    name = "scan"
    unit = "pairs"
    measures = ("HS", "Y", "MI")

    def __init__(self, seed, workdir, n_samples=1000, n_markers=300, top=100):
        self.top = top
        self.data = scan_matrix(seed, n_samples, n_markers)
        self.marker_ids = [f"m{j:03d}" for j in range(n_markers)]
        self.input_path = workdir / "markers.tsv"
        self.input_path.write_bytes(matrix_tsv(self.marker_ids, self.data))
        self.output_paths = [workdir / "scan.csv"]
        self.counts = pair_counts(self.data)
        upper = self.counts[np.triu_indices(n_markers, 1)]
        self.units_per_op = len(upper)
        hs = MeasureKind.from_cli(self.measures[0])
        self.abs_hs = np.array(
            [abs(evaluate(hs, counts_to_table(tuple(int(c) for c in row), 0.5))) for row in upper]
        )
        self.layer_metrics = {
            "scanner.zero_cell_share": float(np.mean(upper.min(axis=1) == 0)),
        }

    def invocations(self, k):
        args = ["scan", str(self.input_path)]
        for name in self.measures:
            args += ["--measure", name]
        return [args + ["--top", str(self.top), "-o", str(self.output_paths[0])]]

    def check(self, k, stdouts):
        text = self.output_paths[0].read_text()
        return check_scan(
            text, self.marker_ids, self.counts, self.abs_hs, self.measures, self.top
        )

    def final_check(self):
        return {}


# --- grid -------------------------------------------------------------------


def check_grid(path, measure, odds_ratio, half_width, step, sample):
    """Check a y,z,value grid CSV: header, y-major rows, sampled values.

    sample is a set of 0-based data-row indices whose value must agree with
    ``evaluate(kind, psi(x, y, z))`` to 1e-9; every value must be finite.
    """
    kind = MeasureKind.from_cli(measure)
    x = 0.5 * math.log(odds_ratio)
    count = int(round(2.0 * half_width / step)) + 1
    axis = [-half_width + i * step for i in range(count)]
    errors = []
    rows = 0
    with open(path, "rb") as f:
        header = f.readline()
        if header != b"y,z,value\n":
            return [f"grid {measure}: header is {header!r}"]
        for r, line in enumerate(f):
            i, j = divmod(r, count)
            try:
                y, z, value = (float(v) for v in line.split(b","))
            except ValueError:
                errors.append(f"grid {measure}: row {r + 1} malformed: {line!r}")
                break
            if i >= count or abs(y - axis[i]) > 1e-9 or abs(z - axis[j]) > 1e-9:
                errors.append(f"grid {measure}: row {r + 1} ({y}, {z}) is not y-major")
                break
            if not math.isfinite(value):
                errors.append(f"grid {measure}: row {r + 1} value {value}")
            elif r in sample:
                want = evaluate(kind, psi(MarginCoords(x, y, z)))
                if not abs(value - want) <= 1e-9:
                    errors.append(f"grid {measure}: ({y}, {z}) = {value!r}, want {want!r}")
            rows = r + 1
            if len(errors) >= MAX_ERRORS:
                break
    if not errors and rows != count * count:
        errors.append(f"grid {measure}: {rows} rows, want {count * count}")
    return errors


class Grid:
    """`twobytwo grid --half-width 6 --step 0.05` for HS, then MI, at one L."""

    name = "grid"
    unit = "cells"
    measures = ("HS", "MI")
    odds_ratios = (2.0, 12.9, 40.0, 100.0)

    def __init__(self, seed, workdir, half_width=6.0, step=0.05, samples=1000):
        rng = np.random.default_rng(seed)
        order_path = workdir / "odds_ratios.txt"
        order_path.write_text("".join(f"{float(v)!r}\n" for v in rng.permutation(self.odds_ratios)))
        self.order = order_path.read_text().split()
        self.half_width, self.step = half_width, step
        count = int(round(2.0 * half_width / step)) + 1
        self.units_per_op = len(self.measures) * count * count
        self.sample = set(rng.choice(count * count, samples, replace=False).tolist())
        self.output_paths = [workdir / f"grid_{m}.csv" for m in self.measures]
        self.bytes_by_odds_ratio = {}

    def invocations(self, k):
        odds_ratio = self.order[k % len(self.order)]
        return [
            ["grid", "--measure", m, "--odds-ratio", odds_ratio,
             "--half-width", repr(self.half_width), "--step", repr(self.step), "-o", str(path)]
            for m, path in zip(self.measures, self.output_paths)
        ]

    def check(self, k, stdouts):
        odds_ratio = self.order[k % len(self.order)]
        errors = []
        for measure, path in zip(self.measures, self.output_paths):
            errors += check_grid(
                path, measure, float(odds_ratio), self.half_width, self.step, self.sample
            )
        self.bytes_by_odds_ratio[odds_ratio] = sum(p.stat().st_size for p in self.output_paths)
        return errors

    def final_check(self):
        return {}

    @property
    def layer_metrics(self):
        """Output bytes of one op, averaged over the odds-ratios it ran at;
        the bytes at one odds-ratio repeat exactly."""
        sizes = self.bytes_by_odds_ratio.values()
        return {"grids.bytes_out": sum(sizes) / len(sizes) if sizes else 0.0}


# --- critical ---------------------------------------------------------------


def parse_critical(text):
    """[(branch, classification, (p00, p01, p10, p11), y, z)] from CLI output."""
    points = []
    for line in text.splitlines():
        fields = line.split(",")
        cells = tuple(float(v) for v in fields[2:6])
        points.append((fields[0], fields[1], cells, float(fields[6]), float(fields[7])))
    return points


def check_critical(text, odds_ratio):
    """Check `critical` output for one L; return (errors, worst log-odds residual).

    The diagonal point comes first and is a maximum up to the magic
    odds-ratio (of L, or 1/L when L < 1) and a saddle past it, where the two
    L-shaped maxima follow; they are transposes of each other once an L < 1
    solution is mapped back by a column swap.
    """
    try:
        points = parse_critical(text)
    except (ValueError, IndexError):
        return [f"critical L={odds_ratio!r}: malformed output {text!r}"], math.inf
    folded = max(odds_ratio, 1.0 / odds_ratio)
    beyond = folded > MAGIC_ODDS_RATIO
    want = [("diag", "saddle" if beyond else "maximum")]
    if beyond:
        want += [("L_upper", "maximum"), ("L_lower", "maximum")]
    errors = []
    got = [p[:2] for p in points]
    if got != want:
        errors.append(f"critical L={odds_ratio!r}: points {got}, want {want}")
    residual = 0.0
    for _, _, (p00, p01, p10, p11), _, _ in points:
        log_odds = math.log(p00) + math.log(p11) - math.log(p01) - math.log(p10)
        residual = max(residual, abs(log_odds - math.log(odds_ratio)))
    if not residual <= 1e-9:
        errors.append(f"critical L={odds_ratio!r}: log odds-ratio residual {residual:.3g}")
    if len(points) == 3 and got == want:
        upper, lower = points[1][2], points[2][2]
        if odds_ratio < 1.0:
            upper, lower = ((t[1], t[0], t[3], t[2]) for t in (upper, lower))
        transposed = (lower[0], lower[2], lower[1], lower[3])
        if not all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(upper, transposed)):
            errors.append(f"critical L={odds_ratio!r}: L-shaped maxima are not transposes")
    return errors, residual


def check_critical_oracle(text, odds_ratio, half_width=8.0, step=0.01):
    """A returned maximum lies within one grid step of entropy_grid_argmax."""
    gy, gz, _ = entropy_grid_argmax(odds_ratio, half_width, step)
    maxima = [(y, z) for _, cls, _, y, z in parse_critical(text) if cls == "maximum"]
    distance = min((max(abs(y - gy), abs(z - gz)) for y, z in maxima), default=math.inf)
    if distance > step + 1e-9:
        return [f"critical L={odds_ratio!r}: nearest maximum is {distance:.3g} from the grid argmax"]
    return []


class Critical:
    """`twobytwo critical --odds-ratio L`, L log-uniform in [1e-3, 1e4]."""

    name = "critical"
    unit = "solves"
    units_per_op = 1
    oracle_ops = 3

    def __init__(self, seed, workdir, count=100_000):
        rng = np.random.default_rng(seed)
        path = workdir / "odds_ratios.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in 10.0 ** rng.uniform(-3.0, 4.0, count)))
        self.odds_ratios = path.read_text().split()
        self.output_paths = []
        self.max_residual = 0.0
        self.oracle_texts = {}
        self.oracle_ms = []

    def invocations(self, k):
        return [["critical", "--odds-ratio", self.odds_ratios[k % len(self.odds_ratios)]]]

    def check(self, k, stdouts):
        text = stdouts[0]
        errors, residual = check_critical(text, float(self.odds_ratios[k % len(self.odds_ratios)]))
        self.max_residual = max(self.max_residual, residual)
        if len(self.oracle_texts) < self.oracle_ops and not errors:
            self.oracle_texts[k] = text
        return errors

    def final_check(self):
        """Oracle check of the first ops' outputs: {op: errors}."""
        failed = {}
        for k, text in self.oracle_texts.items():
            start = time.perf_counter()
            errors = check_critical_oracle(text, float(self.odds_ratios[k % len(self.odds_ratios)]))
            self.oracle_ms.append(1e3 * (time.perf_counter() - start))
            if errors:
                failed[k] = errors
        return failed

    @property
    def layer_metrics(self):
        return {
            "critical.max_log_odds_residual": self.max_residual,
            "critical.entropy_grid_argmax.self_ms": (
                float(np.median(self.oracle_ms)) if self.oracle_ms else 0.0
            ),
        }


WORKLOADS = {w.name: w for w in (Scan, Grid, Critical)}
