"""The four benchmark workloads.

Each workload turns (seed, phase) into an endless, deterministic stream of
rounds of ops.  An op is run by the harness, timed on its own, and checked
exactly against the independent references in oracle.py.  Phase 0 is the
measured stream; the traced run repeats the first rounds of phase 0 untraced
and then runs phase 1 traced.  Phase 1 has the same shapes as phase 0 but
fresh gamma vectors and verify seeds, so no (type, gamma) pair the process
has already solved is replayed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction

import oracle

import hhodge
from hhodge import cli, line_theory, series, surface_theory
from hhodge import IntegralSpec, StackyType


class Op:
    """One call into the program.  run() returns the raw output; check(out,
    exc) says whether it is exactly right; work is the output's size in the
    workload's unit, or a function of the output giving it; latency marks
    the ops whose times form op_ms_p50/p90."""

    __slots__ = ("run", "check", "work", "latency")

    def __init__(self, run, check, work=1, latency=True):
        self.run, self.check, self.work, self.latency = run, check, work, latency


def _rng(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed,) + tags))


def _random_gamma(rng: random.Random, size: int):
    return tuple(Fraction(rng.randint(1, 99), rng.randint(1, 99)) for _ in range(size))


def _spread(rng: random.Random, budget: int, slots: int):
    values = [0] * slots
    for _ in range(budget):
        values[rng.randrange(slots)] += 1
    return values


def _random_type(rng: random.Random, kind: str, M: int, N=None, g=None, g_range=(1, 4)):
    """An admissible type with M stacky insertions and seed exponent a >= 1.
    With N and g given, M - 2 blocks are spread evenly from a random start
    and one is random; otherwise N, g and the blocks are random.  Surface types draw all
    but the last block with 2b < N so that a stays positive; the last block
    makes the type admissible."""
    fixed = N is not None
    while True:
        if not fixed:
            N, g = rng.randint(2, 8), rng.randint(*g_range)
        top = N - 1 if kind == "line" else max(1, (N - 1) // 2)
        start = rng.randrange(top)
        n = [0] * (N - 1)
        for j in range(M - 1):
            n[(start + j) % top if fixed and j < M - 2 else rng.randrange(top)] += 1
        last = -oracle.weighted_sum(n) % N
        if last == 0:
            continue
        n[last - 1] += 1
        if kind != "line" and any(c and 4 * i == N for i, c in enumerate(n, start=1)):
            continue
        th = oracle.Theory(kind, N, g, n)
        if th.a >= 1:
            return th


# --- verify-sampled --------------------------------------------------------

VERIFY_SAMPLES = 16
VERIFY_MODES = (("line", None), ("surface", None), ("surface", "verbatim"))


class VerifySampled:
    """In-process `verify` runs with stdout captured: line, surface
    consistent and surface verbatim, each batch on a fresh seed."""

    unit = "rows"
    cycle = 1
    trace_rounds = 10
    rss_rounds = 80

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.solved: set = set()

    def round(self, phase: int, r: int):
        rng = _rng(self.seed, "verify", phase, r)
        ops = []
        for theory, mode in VERIFY_MODES:
            while True:
                batch = rng.getrandbits(31)
                draws = oracle.verify_draws(theory, batch, VERIFY_SAMPLES, mode)
                keys = {(mode or theory, th.N, th.g, th.n, gamma) for th, _, _, _, gamma, _ in draws}
                # a replayed (type, gamma) pair would be served by the
                # coefficient cache; draw another batch seed instead
                if not keys & self.solved:
                    self.solved |= keys
                    break
            ops.append(self._op(theory, mode, batch))
        return ops

    @staticmethod
    def _op(theory, mode, batch):
        argv = ["verify", theory, "--seed", str(batch), "--samples", str(VERIFY_SAMPLES)]
        if mode:
            argv += ["--matrix-mode", mode]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(out, exc):
            report = oracle.verify_report(theory, batch, VERIFY_SAMPLES, mode)
            return exc is None and out == (5 if report["failures"] else 0, oracle.emitted(report))

        # a recursion and a seed row per sample, and the surface witness row
        return Op(run, check, work=2 * VERIFY_SAMPLES + (theory == "surface"))

    @staticmethod
    def stdout_bytes(out) -> int:
        return len(out[1].encode())


# --- wide-types ------------------------------------------------------------

WIDE_SIZES = tuple(range(8, 49, 2))
WIDE_KINDS = ("line", "consistent")
# (N, g) of the type of size M is shape M // 2 % 3
WIDE_SHAPES = {"line": ((3, 1), (5, 2), (8, 4)), "consistent": ((5, 2), (6, 1), (7, 3))}
WIDE_WARM = 40
WIDE_SINGULAR_M = 28
# the mid-size type that recurs in every cycle, so that the median cold
# latency falls inside a group of like ops and not between two types
WIDE_MEDIAN = (28, "line")
WIDE_MEDIAN_REPEATS = 12
# likewise for p90: the fifth costliest type, so that with 3 repeats the
# 90th percentile falls inside its group whatever the number of cycles
WIDE_P90 = (44, "line")
WIDE_P90_REPEATS = 3


def _wide_cycle():
    """Every even M with both theories (48 with the line only), with
    WIDE_MEDIAN after every third of them, WIDE_MEDIAN_REPEATS times, and
    WIDE_P90 after every thirteenth, WIDE_P90_REPEATS times."""
    base = [(WIDE_SIZES[i // 2], WIDE_KINDS[i % 2]) for i in range(2 * len(WIDE_SIZES) - 1)]
    out = []
    for j, shape in enumerate(base):
        out.append(shape)
        if j % 3 == 2 and out.count(WIDE_MEDIAN) <= WIDE_MEDIAN_REPEATS:
            out.append(WIDE_MEDIAN)
        if j % 13 == 6:
            out.append(WIDE_P90)
    return tuple(out)


class WideTypes:
    """API integrals on types with 8 to 48 stacky insertions.  A cycle runs
    the rounds of _wide_cycle().  The 41 types are the same for every seed,
    so the cold latencies sort the same way in every run; the seed draws a
    fresh gamma for each round and the exponents.  A round is one cold
    integral (the coefficient solve), WIDE_WARM warm integrals and one
    reproduction residual, plus a determinant in every fifth round and a
    singular type in the M = 28 rounds."""

    unit = "calls"
    shapes = _wide_cycle()
    cycle = len(shapes)
    trace_rounds = cycle
    rss_rounds = 2 * cycle

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        rng = _rng(0, "wide", "types")
        self.pool = {
            (M, kind): _random_type(rng, kind, M, *WIDE_SHAPES[kind][M // 2 % 3])
            for M, kind in dict.fromkeys(self.shapes)
        }

    def round(self, phase: int, r: int):
        M, kind = self.shapes[r % self.cycle]
        ref = self.pool[(M, kind)]
        shape = _rng(self.seed, "wide", "shape", r)
        # a fresh Theory per round keeps the reference's own cache small
        th = oracle.Theory(ref.kind, ref.N, ref.g, ref.n)
        gamma = _random_gamma(_rng(self.seed, "wide", "gamma", phase, r), th.M)
        x = StackyType(th.N, th.n)
        if kind == "line":
            integral = line_theory.stacky_integral_line
            residual = line_theory.reproduction_residual_line
        else:
            integral = surface_theory.stacky_integral_surface
            residual = surface_theory.reproduction_residual_surface

        def integral_op(latency):
            n_plain = shape.randint(0, 2)
            values = _spread(shape, th.a + n_plain, n_plain + th.M)
            l, k = tuple(values[:n_plain]), tuple(values[n_plain:])
            spec = IntegralSpec(th.g, l, k)
            return Op(
                lambda: integral(th.g, x, spec, gamma),
                lambda out, exc: exc is None and out == th.integral(l, k, gamma),
                latency=latency,
            )

        ops = [integral_op(True)] + [integral_op(False) for _ in range(WIDE_WARM)]
        j = shape.randrange(th.M)
        ops.append(Op(lambda: residual(th.g, x, j, gamma),
                      lambda out, exc: exc is None and out == 0, latency=False))
        if r % 5 == 0:
            if kind == "line":
                det = lambda: line_theory.matrix_det_line(x, th.a)
            else:
                det = lambda: surface_theory.matrix_det_surface(x, th.a, "consistent")
            ops.append(Op(det, lambda out, exc: exc is None and out == th.det(), latency=False))
        if M == WIDE_SINGULAR_M:
            ops.append(self._singular_op(kind, M, _rng(self.seed, "wide", "singular", phase, r)))
        return ops

    @staticmethod
    def _singular_op(kind, M, rng):
        """A type whose seed exponent is 0, so the defining system is singular:
        on the line N = M at genus 0 with every insertion in block M - 2, on
        the surface N = 2 at genus 1.  The integral must raise."""
        if kind == "line":
            g, x = 0, StackyType(M, tuple(M if i == M - 2 else 0 for i in range(1, M)))
            call = line_theory.stacky_integral_line
        else:
            g, x = 1, StackyType(2, (M,))
            call = surface_theory.stacky_integral_surface
        spec = IntegralSpec(g, (), (0,) * M)
        gamma = _random_gamma(rng, M)
        return Op(lambda: call(g, x, spec, gamma),
                  lambda out, exc: isinstance(exc, hhodge.SingularMatrixError), latency=False)


# --- series-tables ---------------------------------------------------------

SERIES_NS = (2, 3, 4, 5, 6)
# the five rows, one per round: (low g, Hurwitz order, high g, initial order)
SERIES_CYCLE = (
    (2, 8, 10, 24),
    (3, 10, 11, 32),
    (4, 12, 12, 40),
    (5, 14, 14, 48),
    (6, 16, 16, 64),
)
# every round has the same Hodge series, the median-cost call of the round
SERIES_HODGE_ORDER = 20
# the row whose initial-value series is the p90 call, and its one N, so that
# p90 falls inside a group of identical calls (the cost varies by 25% with N)
SERIES_P90_ROW = 2
SERIES_P90_N = 4


def _rows(result):
    return [p.coeffs for p in result.coeffs]


class SeriesTables:
    """One-point series and initial values.  Each round is five calls of
    rising cost on one N: a low-genus initial value, a Hurwitz-Hodge series,
    the Hodge series of order 20, a high-genus initial value (g <= 16) and an
    initial-value series of order 24..64 (the cap is 64).  Five rounds run
    every row of SERIES_CYCLE once, each on an N in 2..6, and a cycle of 25
    rounds pairs every row but SERIES_P90_ROW with every N once (a Latin
    square); the seed sets where the pairing starts and the order of the
    calls.  Whole cycles give every run the same calls; the fixed middle
    call keeps the median, and the fixed N of SERIES_P90_ROW the p90, on
    identical calls."""

    unit = "coefficients"
    cycle = len(SERIES_CYCLE) * len(SERIES_NS)
    trace_rounds = len(SERIES_CYCLE)
    rss_rounds = 2 * len(SERIES_CYCLE)
    # what the kernel below takes where the default kernel takes its 1 ms
    cal_ref_s = 0.00075

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed

    @staticmethod
    def calibrate() -> float:
        """CPU seconds a fixed kernel of arithmetic on rationals of a few hundred
        bits takes now (best of two): the series calls do such arithmetic,
        and host contention slows it more than the default kernel."""
        best = float("inf")
        for _ in range(2):
            start = time.thread_time()
            acc, x = Fraction(0), Fraction(3 ** 100, 7 ** 70 + 2)
            for j in range(1, 60):
                acc += x / (j * j + 1)
                x *= Fraction(j + 2, j + 1)
            best = min(best, time.thread_time() - start)
        return best

    def round(self, phase: int, r: int):
        row = r % len(SERIES_CYCLE)
        # pass c over the rows pairs row i with N = SERIES_NS[(i + c + offset) % 5],
        # so in five passes every row meets every N once
        offset = _rng(self.seed, "series", "offset").randrange(len(SERIES_NS))
        N = SERIES_NS[(row + r // len(SERIES_CYCLE) + offset) % len(SERIES_NS)]
        if row == SERIES_P90_ROW:
            N = SERIES_P90_N
        g_low, o_hurwitz, g_high, o_initial = SERIES_CYCLE[row]
        ops = [
            self._value_op(N, g_low),
            self._series_op(lambda: series.hodge_onepoint(SERIES_HODGE_ORDER),
                            lambda: oracle.hodge_onepoint(SERIES_HODGE_ORDER)),
            self._series_op(lambda: series.hurwitz_hodge_onepoint(N, o_hurwitz),
                            lambda: oracle.hurwitz_hodge_onepoint(N, o_hurwitz)),
            self._value_op(N, g_high),
            self._series_op(lambda: series.initial_onepoint(N, o_initial),
                            lambda: oracle.initial_onepoint(N, o_initial)),
        ]
        _rng(self.seed, "series", "order", r).shuffle(ops)
        return ops

    @staticmethod
    def _value_op(N, g):
        return Op(lambda: series.extract_line_initial(N, g),
                  lambda out, exc: exc is None and out == oracle.extract_line_initial(N, g))

    @staticmethod
    def _series_op(run, reference):
        return Op(run,
                  lambda out, exc: exc is None and _rows(out) == reference(),
                  work=lambda out: sum(1 for row in _rows(out) for c in row if c))


# --- cli-oneshot -----------------------------------------------------------

CLI_GAMMA_RECORDS = 300
CLI_GAMMA_FILES = 12
CLI_VARIANTS = 8


def run_child(argv, env, timeout=120):
    """Run one child process to completion and reap it.  Returns (exit code,
    stdout bytes, peak RSS in KiB from wait4, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss, time.perf_counter() - start


def cli_env(root: str, extra=None):
    env = {k: v for k, v in os.environ.items() if k not in ("HHODGE_GAMMA_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.update(extra or {})
    return env


def _spec(N, g, n, l=(), k=()):
    return json.dumps({"N": N, "g": g, "n": list(n), "l": list(l), "k": list(k)})


class CliOneshot:
    """`python -m hhodge` in a child process, one call at a time.  The calls
    cycle through seven commands; each command has CLI_VARIANTS seeded inputs."""

    unit = "calls"
    cycle = 1
    trace_rounds = 2
    rss_rounds = None  # peak_rss_mb is the largest child's
    clock = time.perf_counter  # a call is a child process: its wall time
    # calls are scaled by a bare interpreter start next to them, which
    # tracks the cost of starting a process better than the in-process kernel
    cal_ref_s = 0.05

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed, self.root, self.workdir = seed, root, workdir
        self.python = sys.executable
        # set by the harness for traced calls: each child writes its spans here
        self.spans_file = None
        os.makedirs(workdir, exist_ok=True)
        rng = _rng(seed, "cli", "inputs")
        self.gamma_dir = os.path.join(workdir, "gamma")
        os.makedirs(self.gamma_dir, exist_ok=True)
        self.table_types = []
        seen = set()
        records = []
        while len(records) < CLI_GAMMA_RECORDS:
            th = _random_type(rng, "line", rng.randint(2, 8))
            if (th.N, th.g, th.n) in seen:
                continue
            seen.add((th.N, th.g, th.n))
            gamma = _random_gamma(rng, th.M)
            records.append({"theory": "line", "N": th.N, "g": th.g, "n": list(th.n),
                            "gamma": [str(v) for v in gamma]})
            self.table_types.append((th, gamma))
        for f in range(CLI_GAMMA_FILES):
            with open(os.path.join(self.gamma_dir, f"records{f:02d}.json"), "w") as fh:
                # json.dumps has the C encoder; json.dump to a file does not
                fh.write(json.dumps(records[f::CLI_GAMMA_FILES]))
        self.variants = [[self._variant(*getattr(self, f"_cmd{c}")(rng, v))
                          for v in range(CLI_VARIANTS)] for c in range(7)]

    @staticmethod
    def _variant(args, extra_env, expected):
        """An input of one command.  Its expected output is computed on first
        check, outside set-up, and kept for the later rounds that reuse it."""
        code, text = expected
        return args, extra_env, (code, functools.cache(text))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def calibrate(self) -> float:
        return run_child([self.python, "-c", "pass"], cli_env(self.root))[3]

    def _gate_spec(self, rng, th, n_plain_max=1):
        n_plain = rng.randint(0, n_plain_max)
        values = _spread(rng, th.a + n_plain, n_plain + th.M)
        return values[:n_plain], values[n_plain:]

    def _integral_expected(self, th, gamma, l, k):
        return oracle.emitted({
            "admissible": True, "dim_ok": True,
            "value": str(th.integral(l, k, gamma)),
            "c": [str(c) for c in th.coefficients(gamma)],
        })

    def _cmd0(self, rng, v):
        """integral line with --gamma; every fourth input is singular (exit 4)."""
        if v % 4 == 3:
            N, g, n, gamma = 2, 0, (4,), _random_gamma(rng, 4)
            l, k, expected = [], [0, 0, 0, 0], (4, lambda: "")
        else:
            th = _random_type(rng, "line", rng.randint(2, 8), g_range=(1, 3))
            N, g, n, gamma = th.N, th.g, th.n, _random_gamma(rng, th.M)
            l, k = self._gate_spec(rng, th)
            expected = (0, lambda: self._integral_expected(th, gamma, l, k))
        path = os.path.join(self.workdir, f"gamma{v}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps({"theory": "line", "N": N, "g": g, "n": list(n),
                                 "gamma": [str(x) for x in gamma]}))
        return ["integral", "line", _spec(N, g, n, l, k), "--gamma", path], {}, expected

    def _cmd1(self, rng, v):
        """integral line resolved from HHODGE_GAMMA_DIR."""
        th, gamma = self.table_types[rng.randrange(len(self.table_types))]
        l, k = self._gate_spec(rng, th)
        expected = (0, lambda: self._integral_expected(th, gamma, l, k))
        return (["integral", "line", _spec(th.N, th.g, th.n, l, k)],
                {"HHODGE_GAMMA_DIR": self.gamma_dir}, expected)

    def _cmd2(self, rng, v):
        """integral line with no stacky insertions: initial value from the series."""
        N, g = rng.randint(2, 6), rng.randint(1, 5)
        n_plain = rng.randint(1, 3)
        l = _spread(rng, 2 * g - 2 + n_plain, n_plain)

        def expected():
            initial = oracle.extract_line_initial(N, g)
            value = oracle.multinomial(2 * g - 2 + n_plain, l) * initial
            return oracle.emitted({"admissible": True, "dim_ok": True,
                                   "initial": str(initial), "value": str(value)})

        return ["integral", "line", _spec(N, g, [0] * (N - 1), l)], {}, (0, expected)

    def _cmd3(self, rng, v):
        """integral surface with no stacky insertions and --initial."""
        N, g = rng.randint(2, 6), rng.randint(1, 5)
        n_plain = rng.randint(1, 3)
        l = _spread(rng, g + n_plain - 1, n_plain)
        initial = Fraction(rng.randint(1, 99), rng.randint(1, 99))

        def expected():
            value = oracle.nonstacky_surface(g, l) * initial
            return oracle.emitted({"admissible": True, "dim_ok": True,
                                   "initial": str(initial), "value": str(value)})

        return (["integral", "surface", _spec(N, g, [0] * (N - 1), l), "--initial", str(initial)],
                {}, (0, expected))

    def _cmd4(self, rng, v):
        """matrix surface in verbatim mode."""
        ref = _random_type(rng, "consistent", rng.randint(2, 6), g_range=(1, 3))
        th = oracle.Theory("verbatim", ref.N, ref.g, ref.n)

        def expected():
            D = th.row_scale()
            matrix = [[e + (th.a if s == t else 0) for t, e in enumerate(th.col)] for s in range(th.M)]
            return oracle.emitted({
                "mode": "verbatim", "a": str(th.a), "det": str(th.det()),
                "matrix": [[str(e) for e in row] for row in matrix],
                "scaled": [[str(D[s] * e) for e in row] for s, row in enumerate(matrix)],
            })

        spec = json.dumps({"N": th.N, "g": th.g, "n": list(th.n)})
        return ["matrix", "surface", spec, "--matrix-mode", "verbatim"], {}, (0, expected)

    def _cmd5(self, rng, v):
        """a small initial-value series."""
        N, order = rng.randint(2, 6), 2 * rng.randint(3, 5)

        def expected():
            rows = oracle.initial_onepoint(N, order)
            triples = [[t, z, str(c)] for t, row in enumerate(rows) for z, c in enumerate(row) if c]
            return oracle.emitted({"series": "initial", "N": N, "order": order,
                                   "coefficients": triples})

        return ["series", "initial", "--N", str(N), "--order", str(order)], {}, (0, expected)

    def _cmd6(self, rng, v):
        """verify all with two samples per theory."""
        seed = rng.getrandbits(31)

        def expected():
            return oracle.emitted({t: oracle.verify_report(t, seed, 2) for t in ("line", "surface")})

        return ["verify", "all", "--seed", str(seed), "--samples", "2"], {}, (0, expected)

    def round(self, phase: int, r: int):
        ops = []
        for c in range(7):
            v = (r * 3 + c) % CLI_VARIANTS
            ops.append(self._op(*self.variants[c][v]))
        return ops

    def _op(self, args, extra_env, expected):
        code, text = expected

        def run():
            if self.spans_file is None:
                return run_child([self.python, "-m", "hhodge", *args], cli_env(self.root, extra_env))
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_child.py")
            env = cli_env(self.root, {**extra_env, "PERFBENCH_SPANS": self.spans_file})
            return run_child([self.python, child, *args], env)

        def check(out, exc):
            return exc is None and out[0] == code and out[1] == text().encode()

        return Op(run, check)

    @staticmethod
    def stdout_bytes(out) -> int:
        return len(out[1])

    @staticmethod
    def child_rss_kib(out) -> int:
        return out[2]


WORKLOADS = {
    "verify-sampled": VerifySampled,
    "wide-types": WideTypes,
    "series-tables": SeriesTables,
    "cli-oneshot": CliOneshot,
}
