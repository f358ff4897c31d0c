"""Property tests: fuzzed command-line input is answered with an exit code,
never a traceback, and the verification report is a function of its seed."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hhodge.cli import main, run_verify

# values a JSON field may hold instead of a well-formed one
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 70),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=4),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
RATIONAL = st.one_of(
    st.integers(-3, 3),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(-1, 4)),
)


@st.composite
def integral_calls(draw):
    """argv of one `integral` call and the gamma document it reads: a spec
    near a well-formed one, often admissible and on its dimension gate, and
    gamma records that mostly match its type, each piece now and then
    corrupted."""

    def rarely():
        return draw(st.integers(0, 19)) == 10

    def maybe_junk(value):
        return draw(JUNK) if rarely() else value

    theory = draw(st.sampled_from(["line", "surface"]))
    s = 1 if theory == "line" else 2
    N = draw(st.integers(2, 5))
    g = draw(st.integers(0, 3))
    n = draw(st.lists(st.integers(0, 2), min_size=N - 1, max_size=N - 1))
    if draw(st.booleans()):
        # raise the weighted sum to a multiple of N: the type is admissible
        n[0] += -sum(i * v for i, v in enumerate(n, start=1)) % N
    count = sum(n) + draw(st.integers(0, 3))
    budget = Fraction(2 * g - 2 + count, s) + count * (1 - Fraction(1, s))
    budget -= Fraction(s * sum(i * v for i, v in enumerate(n, start=1)), N)
    if count and budget.denominator == 1 and budget >= 0 and draw(st.booleans()):
        # exponents summing to the budget put the spec on its dimension gate
        cuts = sorted(draw(st.lists(st.integers(0, int(budget)), min_size=count - 1, max_size=count - 1)))
        exponents = [b - a for a, b in zip([0, *cuts], [*cuts, int(budget)])]
    else:
        exponents = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))
    k, l = exponents[: sum(n)], exponents[sum(n) :]
    spec = {"N": maybe_junk(N), "g": maybe_junk(g), "n": maybe_junk(n), "k": maybe_junk(k), "l": maybe_junk(l)}
    text = json.dumps({key: value for key, value in spec.items() if not rarely()})
    if rarely():
        text = text[: draw(st.integers(1, len(text)))]
    records = []
    for _ in range(draw(st.integers(0, 2))):
        gamma = draw(st.lists(RATIONAL, min_size=sum(n), max_size=sum(n)))
        record = {"theory": theory, "N": N, "g": g, "n": n, "gamma": gamma}
        records.append({key: maybe_junk(value) for key, value in record.items()})
    argv = ["integral", theory, text]
    if draw(st.booleans()):
        argv.append(f"--initial={draw(RATIONAL)}")
    return argv, maybe_junk(records)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(call=integral_calls())
def test_fuzzed_integral_exits_with_a_code(call):
    argv, gamma_document = call
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gamma.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gamma_document, fh)
        code, out, err = _run(argv + ["--gamma", path])
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert "value" in json.loads(out)
    else:
        assert out == ""
        assert err.startswith("hhodge: ")


@settings(max_examples=10, deadline=None)
@given(
    theory=st.sampled_from(["line", "surface"]),
    seed=st.integers(min_value=0, max_value=2**32),
    samples=st.integers(min_value=1, max_value=3),
)
def test_run_verify_is_deterministic_per_seed(theory, seed, samples):
    first = json.dumps(run_verify(theory, seed, samples), sort_keys=True)
    assert json.dumps(run_verify(theory, seed, samples), sort_keys=True) == first
