"""Command-line front end: integral evaluation, series tables, matrix
inspection, and the batch verification harness.

Exit codes: 0 success, 2 bad input, 3 missing initial-value data,
4 degenerate weight or singular system, 5 verification failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import sys
from fractions import Fraction

from .errors import (
    DegenerateWeightError,
    InadmissibleTypeError,
    MissingGammaError,
    SingularMatrixError,
)
from .exact_arith import rational_from_str, rational_to_str
from .line_theory import nonstacky_recursion_residual_line
from .moduli import GammaTable, IntegralSpec, StackyType, dim_gate, is_admissible, is_int
from .sampling import THEORIES, sample_instance
from .series import (
    DEFAULT_ORDER,
    extract_line_initial,
    hodge_onepoint,
    hurwitz_hodge_onepoint,
    initial_onepoint,
)
from .surface_theory import nonstacky_recursion_residual_surface
from .theory import MATRIX_MODES

__all__ = ["main", "run_verify"]

ORDER_MIN = 2
ORDER_CAP = 64
GAMMA_DIR_ENV = "HHODGE_GAMMA_DIR"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISSING_DATA = 3
EXIT_DEGENERATE = 4
EXIT_VERIFY_FAILED = 5

# Exit code of each refused input, in the order main() matches them.
_EXIT_CODES = {
    MissingGammaError: EXIT_MISSING_DATA,
    DegenerateWeightError: EXIT_DEGENERATE,
    SingularMatrixError: EXIT_DEGENERATE,
    InadmissibleTypeError: EXIT_INPUT,
    ValueError: EXIT_INPUT,
    OSError: EXIT_INPUT,
}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_document(spec_arg: str) -> dict:
    """Inline JSON when the argument starts with '{', else a file path."""
    text = spec_arg
    if not spec_arg.lstrip().startswith("{"):
        with open(spec_arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("spec document must be a JSON object")
    return doc


def _parse_type(doc: dict) -> tuple[int, StackyType]:
    for field in ("N", "g"):
        if field not in doc:
            raise ValueError(f"spec document missing field {field!r}")
    N = doc["N"]
    g = doc["g"]
    if not is_int(N) or not is_int(g):
        raise ValueError("fields N and g must be integers")
    n = doc.get("n", [0] * (N - 1))
    if not isinstance(n, list) or not all(is_int(v) for v in n):
        raise ValueError("field n must be a list of integers")
    return g, StackyType(N, tuple(n))


def _exponent_list(doc: dict, field: str) -> tuple[int, ...]:
    values = doc.get(field, [])
    if not isinstance(values, list) or not all(is_int(v) for v in values):
        raise ValueError(f"field {field!r} must be a list of integers")
    return tuple(values)


def _load_gamma_tables(paths) -> GammaTable:
    table = GammaTable()
    env_dir = os.environ.get(GAMMA_DIR_ENV)
    ordered = []
    if env_dir:
        if not os.path.isdir(env_dir):
            raise ValueError(f"{GAMMA_DIR_ENV} is not a directory: {env_dir}")
        ordered.extend(sorted(glob.glob(os.path.join(env_dir, "*.json"))))
    ordered.extend(paths)
    for path in ordered:
        table.add_file(path)
    return table


def cmd_integral(args) -> int:
    doc = _load_document(args.spec)
    g, x = _parse_type(doc)
    spec = IntegralSpec(g, _exponent_list(doc, "l"), _exponent_list(doc, "k"))
    theory = args.theory
    th = THEORIES[theory]
    gate = dim_gate(g, x, spec, th.s)
    admissible = is_admissible(g, x)
    out = {"admissible": admissible, "dim_ok": gate}

    if x.total == 0:
        if args.initial is not None:
            initial = rational_from_str(args.initial)
        elif theory == "line":
            initial = extract_line_initial(x.N, g)
        else:
            raise MissingGammaError(
                "surface one-point initial values are not derivable; pass --initial"
            )
        out["initial"] = rational_to_str(initial)
        out["value"] = rational_to_str(th.nonstacky(g, spec.l, initial))
    elif not admissible or not gate:
        out["value"] = "0"
    else:
        gamma_vec = _load_gamma_tables(args.gamma).get(theory, x.N, g, x)
        mode = args.matrix_mode or "consistent"
        value = th.integral(g, x, spec, gamma_vec, mode)
        if th.has_modes:
            out["mode"] = mode
        out["value"] = rational_to_str(value)
        out["c"] = [rational_to_str(c) for c in th.coefficients(g, x, gamma_vec, mode)]

    _emit(out)
    return EXIT_OK


def cmd_series(args) -> int:
    order = args.order
    if args.kind == "hodge":
        series = hodge_onepoint(order)
        shown_n = None
    elif args.kind == "hurwitz":
        series = hurwitz_hodge_onepoint(args.N, order)
        shown_n = args.N
    else:
        series = initial_onepoint(args.N, order)
        shown_n = args.N
    triples = []
    for t_deg, poly in enumerate(series.coeffs):
        for z_deg, coeff in enumerate(poly.coeffs):
            if coeff != 0:
                triples.append([t_deg, z_deg, rational_to_str(coeff)])
    _emit({"series": args.kind, "N": shown_n, "order": order, "coefficients": triples})
    return EXIT_OK


def cmd_matrix(args) -> int:
    doc = _load_document(args.spec)
    g, x = _parse_type(doc)
    th = THEORIES[args.theory]
    mode = args.matrix_mode or "consistent"
    a = th.seed_exponent(g, x)
    matrix = th.build_matrix(x, a, mode)
    scaled = th.scale_matrix(matrix, g, x, a)
    out = {"mode": mode} if th.has_modes else {}
    out.update(
        {
            "a": str(a),
            "det": rational_to_str(th.det(x, a, mode)),
            "matrix": [[rational_to_str(v) for v in row] for row in matrix],
            "scaled": [[rational_to_str(v) for v in row] for row in scaled],
        }
    )
    _emit(out)
    return EXIT_OK


# Fixed panel for the insertion-only weight-family audit: small instances,
# several of them dimension-coherent so the deviations are visible.  The rows
# are the displayed recursion, which leaves out the point-class insertion's
# term; on the line each deviation is exactly minus that term.
_AUDIT_PANEL = ((1, (0,), 1), (1, (1, 1), 1), (2, (2,), 1), (2, (2, 0), 1))


def _nonstacky_audit(theory: str) -> list[dict]:
    rows = []
    for g, l, vk in _AUDIT_PANEL:
        if theory == "line":
            initial = extract_line_initial(2, g)
            families = {"displayed": nonstacky_recursion_residual_line(g, l, vk, initial)}
        else:
            initial = Fraction(1)
            families = {
                family: nonstacky_recursion_residual_surface(g, l, vk, initial, family)
                for family in ("bracket", "printed")
            }
        rows += [
            {"family": family, "g": g, "initial": rational_to_str(initial), "l": list(l),
             "residual": rational_to_str(residual), "vk": vk}
            for family, residual in sorted(families.items())
        ]
    return rows


def run_verify(theory: str, seed: int, samples: int, matrix_mode: str | None = None) -> dict:
    """Deterministic batch verification: recursion residuals plus seed
    reproduction on sampled instances.  The nonstacky_audit section is
    informational and does not count toward failures."""
    if theory not in THEORIES:
        raise ValueError(f"theory must be 'line' or 'surface', got {theory!r}")
    th = THEORIES[theory]
    mode = matrix_mode or "consistent"
    rng = random.Random(seed)
    rows: list[dict] = []

    def record(kind: str, payload: dict, residual: Fraction) -> None:
        row = {"index": len(rows), "kind": kind}
        row.update(payload)
        row["residual"] = rational_to_str(residual)
        row["pass"] = residual == 0
        rows.append(row)

    if th.has_modes:
        # canonical witness: the smallest type on which the verbatim matrix
        # fails to reproduce its own seed values
        residual = th.reproduction_residual(2, StackyType(2, (2,)), 0, (Fraction(1), Fraction(1)), mode)
        record("seed", {"N": 2, "g": 2, "n": [2], "j": 0, "gamma": ["1", "1"]}, residual)

    for _ in range(samples):
        inst = sample_instance(rng, theory)
        common = {
            "N": inst.x.N,
            "g": inst.g,
            "n": list(inst.x.n),
            "gamma": [rational_to_str(v) for v in inst.gamma],
        }
        residual = th.recursion_residual(inst.g, inst.x, inst.spec, inst.vk, inst.gamma, mode)
        record("recursion", dict(common, l=list(inst.l), k=list(inst.k), vk=inst.vk), residual)
        j = rng.randrange(inst.x.total)
        residual = th.reproduction_residual(inst.g, inst.x, j, inst.gamma, mode)
        record("seed", dict(common, j=j), residual)

    failures = sum(1 for row in rows if not row["pass"])
    return {
        "theory": theory,
        "matrix_mode": mode if th.has_modes else None,
        "seed": seed,
        "samples": samples,
        "rows": rows,
        "nonstacky_audit": _nonstacky_audit(theory),
        "failures": failures,
    }


def cmd_verify(args) -> int:
    theories = [args.theory] if args.theory in THEORIES else list(THEORIES)
    reports = {t: run_verify(t, args.seed, args.samples, args.matrix_mode) for t in theories}
    failures = sum(report["failures"] for report in reports.values())
    _emit(reports[args.theory] if args.theory in THEORIES else reports)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhodge",
        description="Exact calculator and verifier for cyclic twisted descendant integrals "
        "on weighted projective lines and planes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integral", help="evaluate one integral from a JSON spec")
    p_int.add_argument("theory", choices=("line", "surface"))
    p_int.add_argument("spec", help='inline JSON like \'{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}\' or a file path')
    p_int.add_argument("--gamma", action="append", default=[], metavar="FILE",
                       help="initial-value table (repeatable)")
    p_int.add_argument("--initial", metavar="P/Q",
                       help="one-point initial value for specs with no stacky insertions")
    p_int.add_argument("--matrix-mode", choices=MATRIX_MODES, default=None)
    p_int.set_defaults(func=cmd_integral)

    p_ser = sub.add_parser("series", help="print a one-point generating series as JSON triples")
    p_ser.add_argument("kind", choices=("hodge", "hurwitz", "initial"))
    p_ser.add_argument("--N", type=int, default=1, help="cyclic order (hurwitz/initial)")
    p_ser.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"truncation order, {ORDER_MIN}..{ORDER_CAP} (default {DEFAULT_ORDER})")
    p_ser.set_defaults(func=cmd_series)

    p_mat = sub.add_parser("matrix", help="print the defining linear system for a stacky type")
    p_mat.add_argument("theory", choices=("line", "surface"))
    p_mat.add_argument("spec", help='inline JSON like \'{"N":2,"n":[2],"g":1}\' or a file path')
    p_mat.add_argument("--matrix-mode", choices=MATRIX_MODES, default=None)
    p_mat.set_defaults(func=cmd_matrix)

    p_ver = sub.add_parser("verify", help="run the batch verification harness")
    p_ver.add_argument("theory", choices=("line", "surface", "all"))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--samples", type=int, default=25)
    p_ver.add_argument("--matrix-mode", choices=MATRIX_MODES, default=None)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _validate_args(args) -> None:
    order = getattr(args, "order", None)
    if order is not None and not ORDER_MIN <= order <= ORDER_CAP:
        raise ValueError(f"order must lie in {ORDER_MIN}..{ORDER_CAP}, got {order}")
    samples = getattr(args, "samples", None)
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    n_value = getattr(args, "N", None)
    if n_value is not None and n_value < 1:
        raise ValueError(f"N must be at least 1, got {n_value}")
    if getattr(args, "matrix_mode", None) and getattr(args, "theory", None) == "line":
        raise ValueError("--matrix-mode applies to the surface theory only")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"hhodge: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
