"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tower-k6 --seed 0 --seconds 15 --trace 0

The package is imported from ``src/`` of the checkout this file sits in. The
run sets up the workload's inputs several times (reporting the median), then
repeats passes over the workload's fixed, seeded op list for ``--seconds``,
checking every op's output outside the timed region. Times are scaled to
machine speed by calibration kernels timed through the run (see
``Timeline``), and every metric comes from every pass. With
``--trace 1`` it measures once untraced and once traced, keeping spans in
memory and writing them to ``perfbench/out/`` at the end, and reports the
per-layer metrics instead of the end-to-end ones. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import marshal
import math
import resource
import signal
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import reference
from workloads import WORKLOADS, Failed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
# The percentile op_p99_ms reports. On hereditary-k5 and chi-k5 a run has
# some 400 to 4,000 ops, so 20 or more lie beyond it. Higher percentiles there
# measure the machine's speed swings more than the program: over ten seeds
# p99 spread 0.13-0.21 on hereditary-k5 where p95 spread 0.06. A fixed
# percentile also stays put when a faster commit fits more passes into a run.
TAIL_QUANTILE = 0.95
# Times are scaled to a machine that runs each calibration kernel in this
# long. Both kernels take 4.5-9 ms on a 2-CPU Xeon VM at 2.1 GHz with Python
# 3.11, as the host's load varies, and about as long as each other.
CALIBRATION_REF_S = 0.0075
CALIBRATE_EVERY_S = 1.0
_CALIBRATION_GRAPH = reference.random_graph(seed=7, n=60, density=0.12)


def _module_body() -> bytes:
    """A compiled module body like the package's: dataclasses and functions."""
    lines = ["from __future__ import annotations", "from dataclasses import dataclass"]
    for i in range(8):
        lines += ["@dataclass(frozen=True)", f"class D{i}:", "    n: int", "    m: int = 0", "    name: str = ''"]
        lines += ["    edges: tuple = ()", "    def size(self) -> int:", "        return self.n + self.m"]
    for i in range(40):
        lines += [f"def f{i}(x: int, y: int = 1) -> list:", f"    return [v * {i} for v in range(x) if v % y == 0]"]
    return marshal.dumps(compile("\n".join(lines), "<calibration>", "exec"))


_MODULE_BODY = _module_body()
KERNELS = {
    # The benchmark's own exact coloring search on a fixed 60-vertex graph:
    # pure Python like the package's ops, sharing no code with it.
    "op": lambda: reference.chromatic_number(*_CALIBRATION_GRAPH),
    # What an import does: unmarshal a module body and run it. Set-up is
    # mostly importing, which the machine's speed swings move less than the
    # coloring search, so set-up time is scaled by this kernel instead.
    "setup": lambda: exec(marshal.loads(_MODULE_BODY), {"__name__": __name__}),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "zykov.build_zykov.s": "s",
    "graphs.distance_table.s": "s",
    "graphs.induced_subgraph.s": "s",
    "graphs.induced_subgraph.calls": "count",
    "power.build_power_graph.s": "s",
    "power.build_power_graph.edges": "count",
    "farey.residue_partition.s": "s",
    "farey.residue_partition.calls": "count",
    "coloring.edge_partition.s": "s",
    "coloring.class_graph.s": "s",
    "coloring.bounded_color.s": "s",
    "coloring.bounded_color.calls": "count",
    "oracles.max_clique.s": "s",
    "oracles.max_clique.calls": "count",
    "oracles.exact_chromatic_number.s": "s",
    "oracles.exact_chromatic_number.calls": "count",
    "oracles.exact_chromatic_number.budget_stop_nodes": "count",
    "oracles.exact_chromatic_number.nodes_per_s": "1/s",
    "oracles.verify_proper.s": "s",
    "oracles.verify_unique_paths.s": "s",
    "oracles.verify_triangle_free.s": "s",
    "oracles.verify_no_long_path.s": "s",
    "cli.construct.s": "s",
    "cli.color.s": "s",
    "cli.verify.s": "s",
    "formats.bytes_written": "bytes",
    "formats.bytes_read": "bytes",
    "bench.glue.s": "s",
    "trace.overhead_ratio": "ratio",
}


class Timeline:
    """Calibrations taken through a run, and time scaled by them.

    A shared machine alternates, for seconds to minutes at a time, between
    speeds 30-70% apart. So the run times the calibration kernels at its
    start, after each set-up, every CALIBRATE_EVERY_S while it is
    ``periodic``, and at the end of each measurement. A stretch of time
    between two calibrations counts scaled by the mean of their scales of one
    kind ("op" or "setup", see KERNELS); the calibrations themselves count as
    no time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.scales: dict[str, list[float]] = {kind: [] for kind in KERNELS}
        self._calibrating = False
        self.calibrate()

    def calibrate(self):
        """Scale now, per kind: CALIBRATION_REF_S over the median of five
        runs of the kernel. The median follows the machine's mean speed over
        a spell of fast and slow moments better than the fastest run does. A
        call made while one is running does nothing."""
        if self._calibrating:
            return
        self._calibrating = True
        try:
            t0 = perf_counter()
            for kind, kernel in KERNELS.items():
                times = []
                for _ in range(5):
                    t = perf_counter()
                    kernel()
                    times.append(perf_counter() - t)
                self.scales[kind].append(CALIBRATION_REF_S / statistics.median(times))
            self.starts.append(t0)
            self.ends.append(perf_counter())
        finally:
            self._calibrating = False

    @contextlib.contextmanager
    def periodic(self):
        """Calibrate every CALIBRATE_EVERY_S from a timer signal, so that the
        scale also follows the machine through a long layer call. The handler
        runs in the main thread between two bytecodes of whatever is running,
        and its time counts as calibration, not as the interrupted span's."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, a: float, b: float, kind: str | None = "op") -> float:
        """Time in [a, b] outside calibrations, scaled by the kind's scales,
        or unscaled when kind is None. Only valid once a calibration has
        ended after b."""
        scales = self.scales[kind] if kind else None
        total = 0.0
        k = max(0, bisect.bisect_right(self.ends, a) - 1)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            overlap = min(b, self.starts[k + 1]) - max(a, self.ends[k])
            if overlap > 0:
                total += overlap * ((scales[k] + scales[k + 1]) / 2 if scales else 1)
            k += 1
        return total


class NullTracer:
    """Tracing off: a layer call is a plain call."""

    def __init__(self, timeline: Timeline):
        self.timeline = timeline

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass

    def begin(self, op_id):
        pass

    def end(self, name, start, end):
        pass


class Tracer(NullTracer):
    """Spans and counts kept in memory and written out when the run ends.

    A span is (id, name, start, end, parent id, op id, exception name), with
    raw perf_counter times. Each op and each set-up is a root span; every
    layer call inside it is a child. Set-up op ids are strings
    ("setup.<i>"), pass op ids are integers.
    """

    def __init__(self, timeline: Timeline):
        super().__init__(timeline)
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self._next_id = 0
        self._root = None
        self._op = None

    def call(self, name, fn, *args):
        span_id, error = self._next_id, None
        self._next_id += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.spans.append((span_id, name, start, perf_counter(), self._root, self._op, error))
        return result

    def count(self, name, value):
        self.counts.append((name, value, self._op))

    def begin(self, op_id):
        self._root, self._op = self._next_id, op_id
        self._next_id += 1

    def end(self, name, start, end):
        self.spans.append((self._root, name, start, end, None, self._op, None))
        self._root = self._op = None

    def write(self, path: Path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, error in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op, "error": error}) + "\n")
            for name, value, op in self.counts:
                fh.write(json.dumps({"count": name, "value": value, "op": op}) + "\n")


class Measurement:
    """The passes of one measurement: each pass's op ids and op intervals."""

    def __init__(self, timeline: Timeline):
        self.timeline = timeline
        self.passes: list[tuple[range, list[tuple[float, float]]]] = []
        self.undecided = 0
        self.failures: list[str] = []

    @property
    def ops(self) -> int:
        return sum(len(spans) for _, spans in self.passes)

    def op_times(self, kind: str | None = "op") -> list[float]:
        return [self.timeline.scaled(a, b, kind) for _, spans in self.passes for a, b in spans]

    def wall(self, kind: str | None = "op") -> float:
        """Median time of a pass (the sum of its op times)."""
        return statistics.median(sum(self.timeline.scaled(a, b, kind) for a, b in spans) for _, spans in self.passes)


def import_library():
    """Import chibound afresh from this checkout's src/, so each set-up pays
    the package's own import cost."""
    for name in [m for m in sys.modules if m == "chibound" or m.startswith("chibound.")]:
        del sys.modules[name]
    lib = importlib.import_module("chibound")
    importlib.import_module("chibound.cli")
    if Path(lib.__file__).resolve().parent != SRC / "chibound":
        raise ImportError(f"chibound resolved to {lib.__file__}, not under {SRC}")
    return lib


def measure(wl, tr, seconds: float) -> Measurement:
    """Whole passes over the workload's ops for `seconds`: at least one, and
    another only while a pass of the mean length so far still fits. So a
    workload whose pass outlasts `seconds` always runs exactly one pass."""
    m = Measurement(tr.timeline)
    op_id = 0
    started = perf_counter()
    while not m.passes or (perf_counter() - started) * (len(m.passes) + 1) / len(m.passes) <= seconds:
        first, spans = op_id, []
        for op in wl.ops():
            tr.begin(op_id)
            t0 = perf_counter()
            try:
                outcome, error = wl.run(tr, op), None
            except Exception:
                outcome, error = None, traceback.format_exc(limit=3)
            t1 = perf_counter()
            tr.end("bench.op", t0, t1)
            op_id += 1
            spans.append((t0, t1))
            if error is None:
                try:
                    if wl.check(op, outcome) == "undecided":
                        m.undecided += 1
                except Failed as exc:
                    error = str(exc)
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            outcome = None  # freed before the next op, so peak memory is one op's
            if error is not None:
                m.failures.append(f"op {op!r}: {error}")
        m.passes.append((range(first, op_id), spans))
    tr.timeline.calibrate()
    return m


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(m: Measurement, setup_s: float) -> dict:
    times = m.op_times()
    return {
        "setup_s": setup_s,
        "wall_s": m.wall(),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": quantile(times, 0.5) * 1000,
        "op_p99_ms": quantile(times, TAIL_QUANTILE) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr: Tracer, m: Measurement, setups: int, overhead: float) -> dict:
    """Scaled layer time and counts per pass, or per set-up for calls made
    there."""
    passes = len(m.passes)
    scaled = tr.timeline.scaled
    values: dict[str, float] = defaultdict(float)

    def add(key, value, op):
        values[key] += value / (setups if isinstance(op, str) else passes)

    covered: dict[int, float] = defaultdict(float)
    stopped_s = 0.0
    for _, name, start, end, parent, op, error in tr.spans:
        if parent is not None:
            duration = scaled(start, end)
            add(name + ".s", duration, op)
            add(name + ".calls", 1, op)
            covered[parent] += duration
            if error == "BudgetExceeded":
                stopped_s += duration
    for sid, name, start, end, parent, op, _ in tr.spans:
        if parent is None and not isinstance(op, str):
            add("bench.glue.s", scaled(start, end) - covered[sid], op)
    stopped_nodes = 0
    for name, value, op in tr.counts:
        add(name, value, op)
        if name == "oracles.exact_chromatic_number.budget_stop_nodes":
            stopped_nodes += value
    values["oracles.exact_chromatic_number.nodes_per_s"] = stopped_nodes / stopped_s if stopped_s else 0.0
    values["trace.overhead_ratio"] = overhead
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small instances (k <= 5) for a quick self-test")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import chibound from {SRC}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    timeline = Timeline()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir, timeline.periodic():
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        tracer = Tracer(timeline) if args.trace else NullTracer(timeline)
        setup_spans = []
        for i in range(SETUP_REPEATS):
            t0 = perf_counter()
            lib = import_library()
            tracer.begin(f"setup.{i}")
            wl.setup(lib, tracer)
            t1 = perf_counter()
            tracer.end("bench.setup", t0, t1)
            setup_spans.append((t0, t1))
            timeline.calibrate()
        runs = [measure(wl, NullTracer(timeline), args.seconds)]
        if args.trace:
            runs.append(measure(wl, tracer, args.seconds))

    untraced = runs[0]
    setup_s = statistics.median(timeline.scaled(a, b, "setup") for a, b in setup_spans)
    if args.trace:
        traced = runs[1]
        metrics = per_layer(tracer, traced, SETUP_REPEATS, traced.wall() / untraced.wall())
        units = PER_LAYER
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
    else:
        metrics = end_to_end(untraced, setup_s)
        units = END_TO_END

    attempted = sum(m.ops for m in runs)
    failures = [f for m in runs for f in m.failures]
    undecided = sum(m.undecided for m in runs)
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "inputs": wl.describe(),
        "setups": SETUP_REPEATS,
        "passes": len(untraced.passes),
        "ops": untraced.ops,
        "op_p99_ms_quantile": TAIL_QUANTILE,
        "calibrations": len(timeline.starts),
        "speed_scale_median": {kind: statistics.median(scales) for kind, scales in timeline.scales.items()},
        "unscaled": {
            "setup_s": statistics.median(timeline.scaled(a, b, None) for a, b in setup_spans),
            "wall_s": untraced.wall(None),
        },
        "failed_ratio": len(failures) / attempted,
        "undecided_ratio": undecided / attempted,
    }
    if args.trace:
        detail["trace"] = str(trace_path.relative_to(HERE.parent))
    print(json.dumps(detail))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
