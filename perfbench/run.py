"""Benchmark of the twobytwo CLI on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``scan``, ``grid`` and ``critical``.  Each is a
closed loop with one client and one thread in this process: one op is one
CLI invocation (two for ``grid``) run through the click entry point on
inputs generated from the seed, after one warm-up op.  Every output is
checked outside the op timer; a raise, a non-zero exit or a failed check
counts the op as failed.

The machine this runs on is shared, and its speed can change twofold for
seconds at a time.  While ops run, a timer signal therefore times a fixed
pure-Python reference kernel (``reference_kernel``) every 0.1 s, and the
op-time metrics with the suffix ``_ref`` divide each op's wall time, less
the time of the samples taken inside it, by the kernel time those samples
measured: the op's cost in kernel runs, which a slower or faster machine
state leaves nearly unchanged.  Raw wall-time figures are printed beside
them.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced ops; the spans of the traced ones give the per-layer metrics
(see tracing.py) and are written to
``.perfbench/spans-<workload>-seed<seed>.npz``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The program is
imported from ``src/`` of the checkout; without it the run exits with code 1
before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from tracing import LAYER_SPANS, ROOT_SPAN, Tracer, per_op_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_RUNS = 9
# The reference kernel is sampled this often (s), as the best of 2 runs.
REF_INTERVAL = 0.1
REF_LOOPS = 1500
# Spans kept in memory by one traced run (48 bytes each).
SPAN_BUDGET = 1_500_000


def import_program():
    """Import twobytwo.cli from the checkout's src/, or exit with code 1."""
    if not (SRC / "twobytwo" / "cli.py").is_file():
        sys.exit(f"perfbench: no twobytwo sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import twobytwo.cli

    if Path(twobytwo.cli.__file__).resolve().parent != SRC / "twobytwo":
        sys.exit(f"perfbench: twobytwo was imported from {twobytwo.cli.__file__}, not {SRC}")
    return twobytwo.cli.main


def _read_first(path, prefix=""):
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(prefix):
                return line[len(prefix):].strip().lstrip(":").strip()
    except OSError:
        pass
    return "unknown"


def _git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(seed):
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    digest = hashlib.sha256()
    for path in sorted((SRC / "twobytwo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l2_cache": _read_first(cache.format(2)),
        "l3_cache": _read_first(cache.format(3)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class SetupTimer:
    """Wall time (s) of fresh interpreters importing twobytwo.cli.

    Called between ops, it takes one sample each time `interval` seconds
    have passed, so the samples spread over the timed phase; the first
    import, which may compile the bytecode cache, is not counted.
    """

    def __init__(self, interval, runs=SETUP_RUNS):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.interval = interval
        self.runs = runs
        self.times = []
        self.spawn()
        self.times.clear()
        self.due = time.perf_counter()

    def spawn(self):
        # A reference sample due meanwhile waits until the child has ended.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import twobytwo.cli"], env=self.env,
                           cwd=ROOT, check=True)
            self.times.append(time.perf_counter() - start)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __call__(self):
        if len(self.times) < self.runs and time.perf_counter() >= self.due:
            self.spawn()
            self.due = time.perf_counter() + self.interval

    def median(self):
        while len(self.times) < self.runs:
            self.spawn()
        return statistics.median(self.times)


def reference_kernel():
    """Fixed pure-Python work (float math, tuples, a dict): about 1 ms."""
    acc = 0.0
    seen = {}
    for i in range(REF_LOOPS):
        key = (i % 17, i & 3)
        seen[key] = math.log1p(i * 1e-3) + acc * 1e-9
        acc += seen[key] / (1.0 + key[1])
    return acc


class Reference:
    """Samples the reference kernel every REF_INTERVAL s from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so samples also
    land inside ops and follow changes of machine speed within a long op.
    Each handler run is recorded as an interval, so its time can be taken
    out of the op it interrupted.  Used as a context manager around the loop.
    """

    def __init__(self):
        self.begin = array("q")  # perf_counter_ns when each handler run began
        self.end = array("q")  # and ended
        self.ns = array("q")  # kernel time, best of 2, ns

    def sample(self, signum=None, frame=None):
        begin = time.perf_counter_ns()
        best = None
        for _ in range(2):
            start = time.perf_counter_ns()
            reference_kernel()
            best = min(best or math.inf, time.perf_counter_ns() - start)
        self.begin.append(begin)
        self.ns.append(best)
        self.end.append(time.perf_counter_ns())

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def per_op(self, start_ns, end_ns):
        """(kernel ns, handler ns) for each op [start, end].

        The kernel time is the mean of the samples taken inside the op, or,
        for an op with none, the kernel time interpolated to its midpoint.
        The handler time is the total of the handler runs inside the op; a
        handler run lies wholly inside or outside an op, since the op's
        clock reads happen between bytecodes too.
        """
        begin, end = np.array(self.begin), np.array(self.end)
        ns = np.array(self.ns, dtype=np.float64)
        first = np.searchsorted(begin, start_ns, side="left")
        last = np.searchsorted(end, end_ns, side="right")
        count = np.maximum(last - first, 0)
        last = first + count

        def total(values):
            cumulative = np.concatenate([[0.0], np.cumsum(values)])
            return cumulative[last] - cumulative[first]

        inside = total(ns) / np.maximum(count, 1)
        kernel = np.where(count > 0, inside, np.interp((start_ns + end_ns) / 2, end, ns))
        return kernel, total(end - begin)


def invoke_all(main, invocations, stdout=None):
    """Run CLI invocations in-process; return their captured stdout texts.

    Pass the same `stdout` buffer to every call of a loop: click caches a
    wrapper per stream that keeps the stream alive, so a new buffer per call
    would grow the process by one buffer per op.
    """
    stdout = stdout or io.StringIO()
    outputs = []
    for args in invocations:
        stdout.seek(0)
        stdout.truncate()
        with contextlib.redirect_stdout(stdout):
            code = main.main(args=args, prog_name="twobytwo", standalone_mode=False)
        if code not in (None, 0):
            raise RuntimeError(f"exit code {code}")
        outputs.append(stdout.getvalue())
    return outputs


class Loop:
    """Closed loop over a workload's ops: times, checks and failure counts."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.next_op = 0
        self.attempted = 0
        self.failed = set()
        self.errors = []
        self.samples = array("q")  # op, start ns, elapsed ns of every good op
        self.stdout = io.StringIO()

    def fail(self, k, errors):
        self.failed.add(k)
        if len(self.errors) < 10:
            self.errors += [f"op {k}: {e}" for e in errors]

    def run(self, seconds, op=invoke_all, tracer=None, between=()):
        """Run ops for about `seconds`; return the wall times (ns) of good ops.

        Each callable in `between` runs after each op and its check, outside
        the timer.
        """
        times = array("q")
        deadline = time.perf_counter() + seconds
        while True:
            k = self.next_op
            self.next_op += 1
            self.attempted += 1
            invocations = self.workload.invocations(k)
            for path in self.workload.output_paths:
                path.unlink(missing_ok=True)
            if tracer is not None:
                tracer.op_id = k
                tracer.install()
            try:
                start = time.perf_counter_ns()
                outputs = op(self.main, invocations, self.stdout)
                elapsed = time.perf_counter_ns() - start
            except (Exception, SystemExit) as exc:
                self.fail(k, [f"{invocations[0][0]} raised {type(exc).__name__}: {exc}"])
                outputs = None
            finally:
                if tracer is not None:
                    tracer.uninstall()
            if outputs is not None:
                try:
                    errors = self.workload.check(k, outputs)
                except (OSError, ValueError, IndexError) as exc:
                    errors = [f"output check raised {type(exc).__name__}: {exc}"]
                if errors:
                    self.fail(k, errors)
                else:
                    times.append(elapsed)
                    self.samples.extend((k, start, elapsed))
            for hook in between:
                hook()
            if time.perf_counter() >= deadline:
                return times

    def finish(self):
        for k, errors in self.workload.final_check().items():
            self.fail(k, errors)


def tail(values):
    """(value, percentile, samples beyond) of the highest percentile, up to
    p99, that has at least ten samples beyond it (nearest rank); the maximum
    when there are ten samples or fewer.

    Beyond p99 the figure is set by the host's scheduling jitter rather than
    by the program, and does not repeat from run to run.
    """
    ordered = np.sort(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0, 0
    pct = min(99.0, 100.0 * (n - 10) / n)
    rank = max(math.ceil(pct / 100.0 * n - 1e-9), 1)
    return float(ordered[rank - 1]), pct, n - rank


def end_to_end(loop, reference, setup_s):
    """End-to-end metrics (name -> (value, unit)) and raw wall-time lines."""
    ops = np.reshape(loop.samples, (-1, 3))
    kernel, handler = reference.per_op(ops[:, 1], ops[:, 1] + ops[:, 2])
    elapsed = ops[:, 2] - handler
    rel = elapsed / kernel
    unit, units = loop.workload.unit, loop.workload.units_per_op * len(ops)
    tail_rel, pct, beyond = tail(rel)
    tail_ms = tail(elapsed / 1e6)[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (float(np.median(rel)), "ref"),
        "op_tail_ref": (float(tail_rel), "ref"),
        "units_per_ref": (units / float(rel.sum()), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters importing twobytwo.cli",
        "op_p50_ref": f"median op time over reference kernel time, {len(ops)} ops",
        "op_tail_ref": f"p{pct:.2f}, {beyond} of {len(ops)} ops beyond",
        "units_per_ref": f"{unit} per reference kernel time",
        "peak_rss_mb": "peak RSS of this process",
    }
    kernel_ms = np.median(reference.ns) / 1e6
    raw = [
        f"op_p50_ms {np.median(elapsed) / 1e6:.4f} ms ({len(ops)} ops)",
        f"op_tail_ms {tail_ms:.4f} ms (p{pct:.2f}, {beyond} of {len(ops)} ops beyond)",
        f"units_per_s {units / (elapsed.sum() / 1e9):.6g} {unit}/s",
        f"reference kernel {kernel_ms:.4f} ms (median of {len(reference.ns)} samples)",
    ]
    return metrics, notes, raw


# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {}
for _span in LAYER_SPANS:
    PER_LAYER[f"{_span}.calls"] = "calls/op"
    PER_LAYER[f"{_span}.self_ms"] = "ms/op"
PER_LAYER.update({
    "cli.self_ms": "ms/op",
    "trace.op_mean_ms": "ms",
    "trace.overhead_pct": "%",
    "scanner.zero_cell_share": "fraction",
    "grids.bytes_out": "B/op",
    "critical.w_calls_per_solve": "calls/solve",
    "critical.max_log_odds_residual": "nat",
    "critical.entropy_grid_argmax.self_ms": "ms/call",
})


def per_layer(tracer, untraced_ns, workload):
    spans = tracer.arrays()
    totals, n_ops = per_op_totals(tracer.names, spans)
    values = {}
    for name in LAYER_SPANS:
        calls, self_ns = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / n_ops
        values[f"{name}.self_ms"] = self_ns / n_ops / 1e6
    values["cli.self_ms"] = totals[ROOT_SPAN][1] / n_ops / 1e6
    roots = spans["parent"] < 0
    op_ms = (spans["end"][roots] - spans["start"][roots]) / 1e6
    values["trace.op_mean_ms"] = float(op_ms.mean())
    values["trace.overhead_pct"] = 100.0 * (
        float(np.median(op_ms)) / (statistics.median(untraced_ns) / 1e6) - 1.0
    )
    values.update(workload.layer_metrics)
    # Only the L-shaped solve calls lambert_w_minus1, so its ops are the solves.
    w_ids = [tracer.names.index(n) for n in ("critical.lambert_w0", "critical.lambert_w_minus1")]
    solves = np.unique(spans["op"][spans["name_id"] == w_ids[1]])
    if len(solves):
        in_solve = np.isin(spans["op"], solves) & np.isin(spans["name_id"], w_ids)
        values["critical.w_calls_per_solve"] = int(in_solve.sum()) / len(solves)
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_ms") and "argmax" not in k)
    notes = {
        "trace.op_mean_ms": f"{n_ops} traced ops; layer self times + cli.self_ms = {self_sum:.6f} ms",
        "trace.overhead_pct": f"traced p50 {np.median(op_ms):.4f} ms vs untraced p50 "
        f"{statistics.median(untraced_ns) / 1e6:.4f} ms ({len(untraced_ns)} ops)",
    }
    # Metrics of layers this workload does not reach read 0.
    return {k: (values.get(k, 0.0), unit) for k, unit in PER_LAYER.items()}, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "grid", "critical"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = import_program()
    from workloads import WORKLOADS

    facts = machine_facts(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload, cli_main)
        loop.run(0.0)  # warm-up op
        del loop.samples[:]
        if args.trace:
            # Untraced and traced ops alternate, so both see the same machine state.
            tracer = Tracer()
            traced_op = tracer.wrap(invoke_all, ROOT_SPAN)
            untraced = array("q")
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() < deadline:
                untraced += loop.run(0.0)
                if len(tracer) < SPAN_BUDGET:
                    loop.run(0.0, op=traced_op, tracer=tracer)
            tracer.save(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
            loop.finish()
            metrics, notes = per_layer(tracer, untraced, workload)
            raw = []
        else:
            setup = SetupTimer(args.seconds / SETUP_RUNS)
            with Reference() as reference:
                loop.run(args.seconds, between=(setup,))
            metrics, notes, raw = end_to_end(loop, reference, setup.median())
            loop.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = OUT_DIR / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    samples.write_text(json.dumps({
        "fields": ["op", "start_ns", "elapsed_ns"],
        "ops": np.reshape(loop.samples, (-1, 3)).tolist(),
        "reference": [] if args.trace else [list(reference.begin), list(reference.end),
                                            list(reference.ns)],
    }))

    for line in loop.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    failed = len(loop.failed)
    print(f"machine {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  failed_ops {failed / loop.attempted:.6f} (of {loop.attempted} ops attempted, "
          "warm-up included)")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {value:>16.6g} {unit:12s} {note}".rstrip())
    for line in raw:
        print(f"  raw {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
