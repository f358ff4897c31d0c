"""Benchmark for the hhodge package.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workloads are in workloads.py and the metrics in BENCHMARK.json and
perfbench/README.md.  With --trace 0 the run measures the end-to-end metrics:
ops run one at a time until S seconds of op time have passed (run_seconds
from BENCHMARK.json by default), in whole cycles of rounds, so every run has
the same mix of inputs; times are scaled by a calibration kernel run between
ops.  With --trace 1 it runs a fixed number of rounds with spans and reports
the per-layer metrics from the spans.  Every op is checked exactly against
oracle.py.  Human-readable lines come first; the last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
PROBE_REPEATS = 5
# The machine's speed drifts by up to 2x over seconds on shared hosts, for
# CPU time as much as wall time.  Op times are therefore scaled to the speed
# at which the calibration kernel takes CAL_REF_S, measured every CAL_EVERY_S.
CAL_REF_S = 0.001
CAL_EVERY_S = 0.025


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec


def _make(name: str, seed: int, workdir: str):
    import workloads

    return workloads.WORKLOADS[name](seed, ROOT, workdir)


def _close(wl) -> None:
    if hasattr(wl, "close"):
        wl.close()


def setup_probe(name: str, seed: int) -> None:
    """Child side of the set-up measurement: import plus input generation up
    to the first op, timed inside a fresh interpreter.  Prints the scaled
    total and the scaled share of it that `import hhodge.cli` takes.  The
    expected outputs are computed later, when the ops are checked."""
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    before = calibrate()
    start = time.perf_counter()
    import hhodge.cli  # noqa: F401

    imported = time.perf_counter()
    wl = _make(name, seed, workdir)
    wl.round(0, 0)
    end = time.perf_counter()
    _close(wl)
    after = calibrate()
    print(json.dumps([scaled(end - start, before, after), scaled(imported - start, before, after)]))


def _child(argv):
    """Stdout and wall seconds of one child process, which must exit 0."""
    import workloads

    code, out, _, seconds = workloads.run_child(argv, workloads.cli_env(ROOT))
    if code != 0:
        raise SystemExit(f"perfbench: {argv[1:]} exited with {code}")
    return out, seconds


def measure_setup(name: str, seed: int):
    """Medians over SETUP_REPEATS probes of set-up and of its package import."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    _child(argv)  # warm-up: byte-compiles the package in a fresh checkout
    probes = [json.loads(_child(argv)[0]) for _ in range(SETUP_REPEATS)]
    return statistics.median(p[0] for p in probes), statistics.median(p[1] for p in probes)


def interpreter_and_import_ms():
    bare = [_child([sys.executable, "-c", "pass"])[1] for _ in range(PROBE_REPEATS)]
    imported = [_child([sys.executable, "-c", "import hhodge.cli"])[1] for _ in range(PROBE_REPEATS)]
    interp = statistics.median(bare)
    return interp * 1e3, (statistics.median(imported) - interp) * 1e3


def _kernel() -> None:
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k * k + 1)
    counts: dict = {}
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0) + k


def calibrate() -> float:
    """CPU seconds the fixed calibration kernel takes now (best of two)."""
    best = float("inf")
    for _ in range(2):
        start = time.thread_time()
        _kernel()
        best = min(best, time.thread_time() - start)
    return best


def scaled(seconds: float, before: float, after: float, ref: float = CAL_REF_S) -> float:
    """A time measured between two calibrations, scaled to reference speed."""
    return seconds * ref / ((before + after) / 2)


class Tally:
    """Per-op results of one pass over the workload.  The calibration (the
    kernel, or the workload's own) runs at least every CAL_EVERY_S seconds,
    checked before and after each op; each op's time is scaled by the
    calibrations just before and after it."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.busy = 0.0  # unscaled op time, which sets the run length
        self.ops: list = []  # (seconds, index of the calibration before, work, latency)
        self.cals: list = []
        self.own_rss_kib = None  # this process's peak RSS after wl.rss_rounds rounds
        self.child_rss_kib = 0  # the largest child's peak RSS
        self.stdout_bytes = 0
        self.failures: list = []
        self._cal_at = 0.0

    def _calibrate(self) -> None:
        self.cals.append(self._measure())
        self._cal_at = time.perf_counter()

    def run(self, wl, phase: int, rounds, stop=None, before_op=None, after_op=None, clock=None):
        # in-process ops are timed in CPU time, which does not count the
        # time slices the host gives other processes in the middle of an op
        clock = clock or getattr(wl, "clock", time.thread_time)
        self._measure = getattr(wl, "calibrate", calibrate)
        self.ref = getattr(wl, "cal_ref_s", CAL_REF_S)
        self._calibrate()
        for r in rounds:
            if r == wl.rss_rounds:
                # a fixed amount of work: caches that grow with work would
                # otherwise make a faster program look larger
                self.own_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # stop at a cycle boundary, and never before the RSS reading
            if (stop is not None and self.busy >= stop and r % wl.cycle == 0
                    and r >= (wl.rss_rounds or 0)):
                break
            for op in wl.round(phase, r):
                if time.perf_counter() - self._cal_at > CAL_EVERY_S:
                    self._calibrate()
                cal = len(self.cals) - 1
                if before_op:
                    before_op(self.attempted)
                start = clock()
                try:
                    out, exc = op.run(), None
                except Exception as caught:  # a failed op is counted, not fatal
                    out, exc = None, caught
                elapsed = clock() - start
                # the calibration after a long op runs before the check,
                # whose oracle work can be long too
                if time.perf_counter() - self._cal_at > CAL_EVERY_S:
                    self._calibrate()
                if after_op:
                    after_op(self.attempted)
                self.attempted += 1
                self.busy += elapsed
                try:
                    ok = op.check(out, exc)
                except Exception as caught:  # the output could not be compared
                    ok, exc = False, caught
                if not ok:
                    self.failed += 1
                    if len(self.failures) < 5:
                        self.failures.append(f"round {r}: {exc!r}" if exc else f"round {r}: wrong output")
                    continue
                work = op.work(out) if callable(op.work) else op.work
                self.ops.append((elapsed, cal, work, op.latency))
                if hasattr(wl, "child_rss_kib"):
                    self.child_rss_kib = max(self.child_rss_kib, wl.child_rss_kib(out))
                if hasattr(wl, "stdout_bytes"):
                    self.stdout_bytes += wl.stdout_bytes(out)
        self._calibrate()
        if self.own_rss_kib is None:
            self.own_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def summary(self, scale: bool = True) -> dict:
        """Throughput over op time and latency percentiles, scaled or raw."""
        times, work, latencies = 0.0, 0, []
        for seconds, i, w, latency in self.ops:
            if scale:
                seconds = scaled(seconds, self.cals[i], self.cals[i + 1], self.ref)
            times += seconds
            work += w
            if latency:
                latencies.append(seconds)
        lat = sorted(latencies) or [float("nan")]
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
        return {
            "throughput_per_s": work / times,
            "op_ms_p50": statistics.median(lat) * 1e3,
            "op_ms_p90": p90 * 1e3,
            "seconds": times,
            "work": work,
            "samples": len(latencies),
        }


def end_to_end(name: str, seed: int, seconds: float):
    setup_s, import_s = measure_setup(name, seed)
    wl = _make(name, seed, os.path.join(OUT, f"{name}-{seed}-{os.getpid()}"))
    tally = Tally()
    try:
        tally.run(wl, 0, itertools.count(), stop=seconds)
    finally:
        _close(wl)
    result, raw = tally.summary(), tally.summary(scale=False)
    metrics = {key: result[key] for key in ("throughput_per_s", "op_ms_p50", "op_ms_p90")}
    metrics["peak_rss_mb"] = (tally.child_rss_kib or tally.own_rss_kib) / 1024
    metrics["setup_s"] = setup_s
    n = result["samples"]
    notes = [
        f"setup_s: {import_s:.4g} s of it is `import hhodge.cli`, the rest benchmark imports "
        f"and input generation",
        f"unit of work: {wl.unit}; {result['work']} {wl.unit} in {raw['seconds']:.3f} s of op time",
        f"latency samples: {n} ({n - int(0.9 * n)} beyond p90)",
        f"unscaled: throughput_per_s {raw['throughput_per_s']:.6g}, op_ms_p50 {raw['op_ms_p50']:.6g}, "
        f"op_ms_p90 {raw['op_ms_p90']:.6g}; calibration median {statistics.median(tally.cals) * 1e3:.4g} ms "
        f"(reference {tally.ref * 1e3:g} ms) over {len(tally.cals)} runs",
    ]
    return [tally], metrics, notes


def per_layer(name: str, seed: int):
    import spans

    interp_ms, import_ms = interpreter_and_import_ms()
    wl = _make(name, seed, os.path.join(OUT, f"{name}-{seed}-{os.getpid()}"))
    traced = Tally()
    tracer = spans.Tracer()
    os.makedirs(OUT, exist_ok=True)
    try:
        if name == "cli-oneshot":
            wl.spans_file = os.path.join(OUT, f"child-spans-{os.getpid()}.jsonl")

            def collect(op_id):
                tracer.overhead_s += spans.load(wl.spans_file, op_id, tracer.spans)
                os.remove(wl.spans_file)

            traced.run(wl, 1, range(wl.trace_rounds), after_op=collect, clock=time.perf_counter)
        else:
            tracer.install()

            def mark(op_id):
                tracer.op = op_id

            traced.run(wl, 1, range(wl.trace_rounds), before_op=mark, clock=time.perf_counter)
    finally:
        _close(wl)
    overhead_s = tracer.overhead_s  # before the dump, which no op waits for
    tracer.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
    metrics = spans.layer_metrics(tracer.spans)
    metrics["cli.stdout_bytes"] = traced.stdout_bytes
    metrics["cli.interpreter_ms"] = interp_ms
    metrics["cli.import_ms"] = import_ms
    # the tracer times itself inside the traced ops; a separate untraced pass
    # would differ from them by warm-up as well as by tracing
    metrics["trace.overhead_ratio"] = traced.busy / (traced.busy - overhead_s)
    notes = [f"{len(tracer.spans)} spans over {traced.attempted} traced ops; "
             f"{traced.busy:.3f} s of op time, {overhead_s:.3f} s of it instrumentation"]
    return [traced], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hhodge", "__init__.py")):
        print("perfbench: src/hhodge not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    declared = _declared()
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # stay on the CPU the scheduler started us on, with the children, so that
    # the calibration kernel and the op it scales run at the same speed
    with open("/proc/self/stat", encoding="ascii") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    if args.trace:
        tallies, metrics, notes = per_layer(args.workload, args.seed)
        wanted = declared["per_layer"]
    else:
        seconds = declared["run_seconds"] if args.seconds is None else args.seconds
        tallies, metrics, notes = end_to_end(args.workload, args.seed, seconds)
        wanted = declared["end_to_end"]

    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        raise SystemExit(f"perfbench: metric set differs from BENCHMARK.json: {sorted(mismatch)}")
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + [f for t in tallies for f in t.failures]:
        print(f"  {line}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} failed of {attempted})")
    for m in wanted:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
