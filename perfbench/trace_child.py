"""Run `python -m hhodge ARGS` with spans recorded around the package's
public functions.  The spans go to the file named by PERFBENCH_SPANS; stdout
and the exit code are the CLI's own.  The tracer's overhead includes
importing this tracer and installing it, which `python -m hhodge` does not do.

Usage: PYTHONPATH=src python3 perfbench/trace_child.py ARGS...
"""

import time

start = time.perf_counter()

import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402

loaded = time.perf_counter()
import hhodge.cli  # noqa: E402,F401  (load every module before wrapping)

imported = time.perf_counter()
tracer = spans.Tracer()
tracer.install()
tracer.overhead_s += loaded - start + time.perf_counter() - imported
sys.argv = ["hhodge", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("hhodge", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    tracer.dump(os.environ["PERFBENCH_SPANS"])
sys.exit(code)
