"""Spans around calls into the package's public functions, installed from outside.

install() replaces every public function of the package's modules, in every
module namespace that holds it, by a wrapper that records a span: name,
start, end, parent span and op id.  Spans stay in memory until the run ends.
The wrapper adds the time of its own bookkeeping to overhead_s.
layer_metrics() turns a span list into the per-layer metrics; a span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("exact_arith", "_linalg", "moduli", "series", "line_theory",
          "surface_theory", "sampling", "cli")

FACTORIALS = {"shifted_factorial", "frac_factorial", "double_factorial", "multinomial"}
SERIALIZERS = {"rational_to_str", "rational_from_str"}
SERIES_ENTRY = {"hodge_onepoint", "hurwitz_hodge_onepoint", "initial_onepoint", "extract_line_initial"}
THEORIES = {"line_theory": "line", "surface_theory": "surface"}


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _series_bits(result) -> int:
    if hasattr(result, "coeffs"):
        return max((_bits(c) for p in result.coeffs for c in p.coeffs), default=0)
    return _bits(result)


def _info(layer: str, name: str):
    """What a span records about its call besides time, or None.  The
    function gets the call's arguments and its result, None if it raised."""
    if layer == "_linalg" and name == "solve_exact":
        return lambda args, result: len(args[0])
    if layer == "moduli" and name.startswith("dim_gate"):
        measure = bool
    elif layer == "series" and name in SERIES_ENTRY:
        measure = _series_bits
    elif layer in THEORIES and ("integral" in name or "residual" in name):
        measure = _bits
    elif layer in THEORIES and name.startswith("theta"):
        measure = lambda result: max(_bits(v) for v in result)
    else:
        return None
    return lambda args, result: None if result is None else measure(result)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op, info]
        self.op = 0
        self.overhead_s = 0.0  # time the tracer itself took inside the traced ops
        self._stack: list = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            entered = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if info is not None:
                    span[5] = info(args, result)
                tracer.overhead_s += span[1] - entered + clock() - span[2]

        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, and the gamma
        table loaders, in every loaded module of the package."""
        from hhodge import moduli

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hhodge" or key.startswith("hhodge."))]
        for layer in LAYERS:
            module = sys.modules[f"hhodge.{layer}"]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn, _info(layer, name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
        for name in ("add_file", "add_dict"):
            fn = getattr(moduli.GammaTable, name)
            setattr(moduli.GammaTable, name, self.wrap(f"moduli.GammaTable.{name}", fn))

    def dump(self, path: str) -> None:
        """One span per line, then {"overhead_s": ...} counting the dump too."""
        start = time.perf_counter()
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            self.overhead_s += time.perf_counter() - start
            fh.write(json.dumps({"overhead_s": self.overhead_s}) + "\n")


def load(path: str, op: int, into: list) -> float:
    """Append the spans a child process wrote, re-indexing parents and op
    id, and return the child's tracer overhead in seconds."""
    base = len(into)
    with open(path, encoding="utf-8") as fh:
        *lines, last = fh.readlines()
    for line in lines:
        name, start, end, parent, _, info = json.loads(line)
        into.append([name, start, end, parent + base if parent >= 0 else -1, op, info])
    return json.loads(last)["overhead_s"]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _fn(name: str) -> str:
    return name.rsplit(".", 1)[1]


def layer_metrics(spans: list) -> dict:
    """Per-layer counts, busy times (outermost spans of the layer) and self
    times from one span list.  Every name below is reported, 0 when unused."""
    n = len(spans)
    covered = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - covered[i]

    def outermost(i):
        parent = spans[i][3]
        return parent < 0 or _layer(spans[parent][0]) != _layer(spans[i][0])

    def theory_of(i):
        """The theory whose public entry point the span runs under."""
        while i >= 0:
            layer = _layer(spans[i][0])
            if layer in THEORIES and _fn(spans[i][0]) != "solve_coefficients":
                return THEORIES[layer]
            i = spans[i][3]
        return None

    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    def peak(key, value):
        m[key] = max(m.get(key, 0), value or 0)

    gate_pass = {"line": 0, "surface": 0}
    for i, (name, start, end, parent, _, info) in enumerate(spans):
        layer, fn = _layer(name), _fn(name)
        if layer == "exact_arith":
            group = "factorial" if fn in FACTORIALS else "serialize" if fn in SERIALIZERS else None
            if group:
                add(f"exact_arith.{group}_calls", 1)
                if outermost(i):
                    add(f"exact_arith.{group}_busy_s", dur(i))
        elif layer == "_linalg":
            kind = "solve" if fn == "solve_exact" else "det"
            add(f"linalg.{kind}_calls", 1)
            add(f"linalg.{kind}_busy_s", dur(i))
            if kind == "solve":
                add("linalg.solve_rows_total", info)
                add("linalg.solve_ops_computed", info ** 3 / 3)
        elif layer == "moduli":
            if fn.startswith("dim_gate"):
                add("moduli.gate_calls", 1)
                add("moduli.gate_busy_s", dur(i))
                add("moduli.gate_passes", int(info))
                owner = spans[parent][0] if parent >= 0 else ""
                if info and _layer(owner) in THEORIES and "stacky_integral" in owner:
                    gate_pass[THEORIES[_layer(owner)]] += 1
            elif fn == "add_dict":
                add("moduli.gamma_records", 1)
            elif fn == "add_file" and outermost(i):
                add("moduli.gamma_load_busy_s", dur(i))
        elif layer == "series":
            if outermost(i):
                add("series.calls", 1)
                add("series.busy_s", dur(i))
            if fn == "series_mul":
                add("series.mul_calls", 1)
            peak("series.max_bits", info)
        elif layer == "sampling":
            if fn == "sample_instance":
                add("sampling.instances", 1)
            if outermost(i):
                add("sampling.busy_s", dur(i))
        elif layer == "cli":
            add("cli.self_s", self_time(i))
        if layer in THEORIES:
            theory = THEORIES[layer]
            if fn == "solve_coefficients":
                owner = theory_of(parent)
                if owner:
                    add(f"{owner}_theory.solve_calls", 1)
                continue
            p = f"{theory}_theory"
            if "integral" in fn:
                add(f"{p}.integral_calls", 1)
                add(f"{p}.integral_self_s", self_time(i))
            elif fn.startswith("theta"):
                add(f"{p}.theta_calls", 1)
                add(f"{p}.theta_self_s", self_time(i))
            elif fn.startswith(("build_matrix", "scale_matrix")):
                add(f"{p}.build_scale_busy_s", dur(i))
            elif "recursion_residual" in fn:
                add(f"{p}.recursion_self_s", self_time(i))
            peak(f"{p}.max_bits", info)

    out = {}
    for key in ("factorial", "serialize"):
        for stat in ("calls", "busy_s"):
            out[f"exact_arith.{key}_{stat}"] = m.get(f"exact_arith.{key}_{stat}", 0)
    for theory in ("line", "surface"):
        p = f"{theory}_theory"
        for stat in ("integral_calls", "integral_self_s", "theta_calls", "theta_self_s",
                     "build_scale_busy_s", "solve_calls"):
            out[f"{p}.{stat}"] = m.get(f"{p}.{stat}", 0)
        passed = gate_pass[theory]
        out[f"{p}.coeff_hit_ratio"] = 1 - out[f"{p}.solve_calls"] / passed if passed else 0.0
        out[f"{p}.recursion_self_s"] = m.get(f"{p}.recursion_self_s", 0)
        out[f"{p}.max_bits"] = m.get(f"{p}.max_bits", 0)
    for key in ("solve_calls", "solve_busy_s", "solve_rows_total", "solve_ops_computed",
                "det_calls", "det_busy_s"):
        out[f"linalg.{key}"] = m.get(f"linalg.{key}", 0)
    gates = m.get("moduli.gate_calls", 0)
    out["moduli.gate_calls"] = gates
    out["moduli.gate_busy_s"] = m.get("moduli.gate_busy_s", 0)
    out["moduli.gate_pass_ratio"] = m.get("moduli.gate_passes", 0) / gates if gates else 0.0
    out["moduli.gamma_records"] = m.get("moduli.gamma_records", 0)
    out["moduli.gamma_load_busy_s"] = m.get("moduli.gamma_load_busy_s", 0)
    for key in ("calls", "busy_s", "mul_calls", "max_bits"):
        out[f"series.{key}"] = m.get(f"series.{key}", 0)
    out["sampling.instances"] = m.get("sampling.instances", 0)
    out["sampling.busy_s"] = m.get("sampling.busy_s", 0)
    out["cli.self_s"] = m.get("cli.self_s", 0)
    return out
