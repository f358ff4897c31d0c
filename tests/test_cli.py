"""Command-line interface: output shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import hhodge
from hhodge.cli import GENUS_CAP, INSERTION_CAP, N_CAP, main

# the src directory holding the imported package, for child interpreters
SRC_DIR = os.path.dirname(os.path.dirname(hhodge.__file__))

LINE_GAMMA = {"theory": "line", "N": 2, "g": 1, "n": [2], "gamma": ["1/16", "1/16"]}
SURFACE_GAMMA = {"theory": "surface", "N": 2, "g": 2, "n": [2], "gamma": ["1", "1"]}
DEGENERATE_GAMMA = {"theory": "surface", "N": 4, "g": 2, "n": [1, 0, 1], "gamma": ["1", "1"]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def gamma_file(tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps([LINE_GAMMA, SURFACE_GAMMA, DEGENERATE_GAMMA]))
    return str(path)


class TestIntegral:
    def test_line_stacky_reproduces_seed(self, capsys, gamma_file):
        doc = run_json(
            capsys,
            "integral",
            "line",
            '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}',
            "--gamma",
            gamma_file,
        )
        assert doc["admissible"] is True
        assert doc["dim_ok"] is True
        assert doc["value"] == "1/16"
        assert doc["c"] == ["3/256", "3/256"]

    def test_surface_stacky_includes_mode(self, capsys, gamma_file):
        doc = run_json(
            capsys,
            "integral",
            "surface",
            '{"N":2,"g":2,"n":[2],"k":[1,0],"l":[]}',
            "--gamma",
            gamma_file,
        )
        assert doc["mode"] == "consistent"
        assert doc["value"] == "1"

    def test_line_nonstacky_derives_initial_from_series(self, capsys):
        doc = run_json(capsys, "integral", "line", '{"N":2,"g":1,"l":[1]}')
        assert doc["initial"] == "1/16"
        assert doc["value"] == "1/16"

    def test_nonstacky_explicit_initial(self, capsys):
        doc = run_json(
            capsys, "integral", "surface", '{"N":2,"g":1,"l":[1]}', "--initial", "3"
        )
        assert doc["value"] == "3"

    def test_surface_nonstacky_needs_initial(self, capsys):
        code, _, err = run_cli(capsys, "integral", "surface", '{"N":2,"g":1,"l":[1]}')
        assert code == 3
        assert "initial" in err

    def test_inadmissible_type_evaluates_to_zero(self, capsys):
        doc = run_json(capsys, "integral", "line", '{"N":2,"g":1,"n":[1],"k":[0]}')
        assert doc["admissible"] is False
        assert doc["value"] == "0"

    def test_gate_violation_evaluates_to_zero_without_gamma(self, capsys):
        doc = run_json(capsys, "integral", "line", '{"N":2,"g":1,"n":[2],"k":[0,0],"l":[5]}')
        assert doc["dim_ok"] is False
        assert doc["value"] == "0"

    def test_missing_gamma_exits_three(self, capsys):
        code, _, err = run_cli(
            capsys, "integral", "line", '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}'
        )
        assert code == 3
        assert "gamma" in err

    def test_degenerate_weight_exits_four(self, capsys, gamma_file):
        code, _, err = run_cli(
            capsys,
            "integral",
            "surface",
            '{"N":4,"g":2,"n":[1,0,1],"k":[1,0],"l":[]}',
            "--gamma",
            gamma_file,
        )
        assert code == 4
        assert "degenerate" in err.lower()

    def test_singular_system_exits_four(self, capsys, tmp_path):
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps({"theory": "line", "N": 2, "g": 0, "n": [4], "gamma": ["1", "2", "3", "4"]}))
        code, out, err = run_cli(
            capsys, "integral", "line", '{"N":2,"g":0,"n":[4],"k":[0,0,0,0]}', "--gamma", str(path)
        )
        assert (code, out) == (4, "")
        assert err == "hhodge: defining system is singular: a = 0 with 4 stacky insertions\n"

    def test_spec_file_path(self, capsys, tmp_path, gamma_file):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}')
        doc = run_json(capsys, "integral", "line", str(spec_path), "--gamma", gamma_file)
        assert doc["value"] == "1/16"

    def test_malformed_spec_exits_two(self, capsys, tmp_path):
        for spec in (
            '{"g":1}',
            # JSON booleans are not integers
            '{"N":2,"g":true,"n":[2],"k":[1,0]}',
            '{"N":true,"g":1}',
            '{"N":2,"g":1,"n":[true],"k":[1]}',
            '{"N":2,"g":1,"n":[2],"k":[true,0]}',
            '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[false]}',
        ):
            code, _, _ = run_cli(capsys, "integral", "line", spec)
            assert code == 2, spec
        for field, value in (("g", True), ("N", True), ("n", [True, True]), ("gamma", [True, "1"])):
            path = tmp_path / f"bool_{field}.json"
            path.write_text(json.dumps(dict(LINE_GAMMA, **{field: value})))
            code, _, err = run_cli(
                capsys, "integral", "line", '{"N":2,"g":1,"n":[2],"k":[1,0]}', "--gamma", str(path)
            )
            assert code == 2, field
            assert "boolean" in err
        # a record is an object, a string or a number is not read as a vector,
        # and a vector entry is a number or a string
        for name, document in (
            ("string_gamma", dict(LINE_GAMMA, gamma="11")),
            ("number_n", dict(LINE_GAMMA, n=2)),
            ("list_of_numbers", [1, 2]),
            ("null_entry", dict(LINE_GAMMA, gamma=[None, "1"])),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(document))
            code, out, err = run_cli(
                capsys, "integral", "line", '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}', "--gamma", str(path)
            )
            assert (code, out) == (2, ""), name
            assert err.startswith("hhodge: gamma record"), name

    def test_float_gamma_exits_two(self, capsys, tmp_path):
        # 0.1 parses as a binary float; it is refused, not read as
        # 3602879701896397/36028797018963968
        path = tmp_path / "float.json"
        path.write_text(json.dumps(dict(LINE_GAMMA, gamma=[0.1, "1"])))
        code, out, err = run_cli(
            capsys, "integral", "line", '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}', "--gamma", str(path)
        )
        assert (code, out) == (2, "")
        assert err == 'hhodge: gamma record entries must be integers or "p/q" strings\n'

    def test_oversized_type_exits_two(self, capsys):
        for command in ("integral", "matrix"):
            for spec in (
                '{"N":100000000000,"g":1,"l":[1]}',
                f'{{"N":{N_CAP + 1},"g":1}}',
                f'{{"N":2,"g":{GENUS_CAP + 1},"l":[1]}}',
                '{"N":2,"g":100000000000,"n":[2]}',
            ):
                code, out, err = run_cli(capsys, command, "line", spec)
                assert (code, out) == (2, ""), (command, spec)
                assert "at most" in err
        # series --N is held to the same cap as a spec's N
        code, out, err = run_cli(capsys, "series", "initial", "--N", str(10**90), "--order", "64")
        assert (code, out) == (2, "")
        assert err.startswith("hhodge: N must be at least 1 and at most")
        # the caps themselves are accepted
        doc = run_json(capsys, "integral", "line", f'{{"N":{N_CAP},"g":{GENUS_CAP},"l":[{2 * GENUS_CAP - 1}]}}')
        assert doc["dim_ok"] is True
        assert run_json(capsys, "series", "initial", "--N", str(N_CAP), "--order", "2")["N"] == N_CAP

    def test_too_many_insertions_exit_two(self, capsys):
        over = INSERTION_CAP + 1
        for command, spec in (
            ("matrix", f'{{"N":2,"g":1,"n":[{over}]}}'),
            ("integral", f'{{"N":2,"g":1,"l":{json.dumps([1] * over)}}}'),
            # stacky and plain insertions count together
            ("integral", f'{{"N":2,"g":1,"n":[{INSERTION_CAP}],"k":{json.dumps([0] * INSERTION_CAP)},"l":[1]}}'),
        ):
            code, out, err = run_cli(capsys, command, "line", spec)
            assert (code, out) == (2, ""), (command, spec)
            assert err.startswith(f"hhodge: a spec may carry at most {INSERTION_CAP} insertions"), spec
        # the cap itself is accepted
        doc = run_json(capsys, "matrix", "line", f'{{"N":2,"g":1,"n":[{INSERTION_CAP}]}}')
        assert len(doc["matrix"]) == INSERTION_CAP
        doc = run_json(capsys, "integral", "line", f'{{"N":2,"g":1,"l":{json.dumps([1] * INSERTION_CAP)}}}')
        assert doc["dim_ok"] is True

    def test_missing_spec_file_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "integral", "line", "no-such-file.json")
        assert code == 2

    def test_gamma_dir_env(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "t.json").write_text(json.dumps(LINE_GAMMA))
        monkeypatch.setenv("HHODGE_GAMMA_DIR", str(tmp_path))
        doc = run_json(capsys, "integral", "line", '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}')
        assert doc["value"] == "1/16"

    def test_conflicting_gamma_files_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(LINE_GAMMA))
        conflicting = dict(LINE_GAMMA, gamma=["1/16", "1/8"])
        b.write_text(json.dumps(conflicting))
        code, _, err = run_cli(
            capsys,
            "integral",
            "line",
            '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}',
            "--gamma",
            str(a),
            "--gamma",
            str(b),
        )
        assert code == 2
        assert "conflict" in err

    def test_matrix_mode_with_line_theory_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "integral",
            "line",
            '{"N":2,"g":1,"n":[2],"k":[1,0],"l":[]}',
            "--matrix-mode",
            "verbatim",
        )
        assert code == 2
        assert "surface" in err


class TestSeries:
    def test_hodge_triples(self, capsys):
        doc = run_json(capsys, "series", "hodge", "--order", "4")
        assert doc["N"] is None
        assert [2, 0, "1/24"] in doc["coefficients"]
        assert [2, 1, "1/24"] in doc["coefficients"]

    def test_initial_scalar_rows_absent(self, capsys):
        doc = run_json(capsys, "series", "initial", "--N", "2", "--order", "6")
        assert all(z != 0 for _, z, _ in doc["coefficients"])
        assert [2, 1, "1/16"] in doc["coefficients"]

    def test_hurwitz_constant_term(self, capsys):
        doc = run_json(capsys, "series", "hurwitz", "--N", "3", "--order", "2")
        assert [0, 0, "1/3"] in doc["coefficients"]

    def test_order_out_of_range_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "series", "hodge", "--order", "65")
        assert code == 2
        code, _, _ = run_cli(capsys, "series", "hodge", "--order", "1")
        assert code == 2

    def test_bad_n_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "series", "hurwitz", "--N", "0")
        assert code == 2

    def test_unknown_kind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["series", "torus"])
        assert excinfo.value.code == 2


class TestMatrix:
    def test_line_matrix(self, capsys):
        doc = run_json(capsys, "matrix", "line", '{"N":2,"g":1,"n":[2]}')
        assert doc["a"] == "1"
        assert doc["det"] == "2"
        assert doc["matrix"] == [["3/2", "1/2"], ["1/2", "3/2"]]
        assert doc["scaled"] == [["4", "4/3"], ["4/3", "4"]]

    def test_surface_matrix_modes(self, capsys):
        cons = run_json(capsys, "matrix", "surface", '{"N":2,"g":2,"n":[2]}')
        assert cons["mode"] == "consistent"
        assert cons["scaled"] == [["3", "1"], ["1", "3"]]
        verb = run_json(
            capsys, "matrix", "surface", '{"N":2,"g":2,"n":[2]}', "--matrix-mode", "verbatim"
        )
        assert verb["mode"] == "verbatim"
        assert verb["matrix"] == [["2", "1"], ["1", "2"]]
        assert verb["scaled"] == [["4", "2"], ["2", "4"]]

    def test_inadmissible_type_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "matrix", "line", '{"N":3,"g":1,"n":[1,0]}')
        assert code == 2

    def test_degenerate_type_exits_four(self, capsys):
        code, _, _ = run_cli(capsys, "matrix", "surface", '{"N":4,"g":2,"n":[1,0,1]}')
        assert code == 4


class TestVerify:
    def test_line_passes(self, capsys):
        doc = run_json(capsys, "verify", "line", "--samples", "3")
        assert doc["theory"] == "line"
        assert doc["matrix_mode"] is None
        assert doc["failures"] == 0
        kinds = [row["kind"] for row in doc["rows"]]
        assert kinds.count("recursion") == 3
        assert kinds.count("seed") == 3
        assert all(row["pass"] for row in doc["rows"])
        assert any(r["family"] == "displayed" for r in doc["nonstacky_audit"])

    def test_surface_passes_in_consistent_mode(self, capsys):
        doc = run_json(capsys, "verify", "surface", "--samples", "2")
        assert doc["failures"] == 0
        witness = doc["rows"][0]
        assert witness["kind"] == "seed"
        assert witness["N"] == 2 and witness["g"] == 2
        families = {r["family"] for r in doc["nonstacky_audit"]}
        assert families == {"bracket", "printed"}

    def test_surface_verbatim_mode_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "surface", "--samples", "2", "--matrix-mode", "verbatim"
        )
        assert code == 5
        doc = json.loads(out)
        assert doc["failures"] > 0
        witness = doc["rows"][0]
        assert witness["pass"] is False
        assert witness["residual"] == "-1/3"
        recursion_rows = [r for r in doc["rows"] if r["kind"] == "recursion"]
        assert all(r["pass"] for r in recursion_rows)

    def test_all_covers_both_theories(self, capsys):
        doc = run_json(capsys, "verify", "all", "--samples", "1")
        assert set(doc) == {"line", "surface"}

    def test_output_is_byte_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "line", "--samples", "4", "--seed", "7")
        _, second, _ = run_cli(capsys, "verify", "line", "--samples", "4", "--seed", "7")
        assert first == second
        # stdout from before the line and surface theories shared one engine
        pinned = [
            (
                ("verify", "all", "--samples", "200", "--seed", "0"),
                "26358223183d36e3d92a7497a296edccdb578495c613f3a979a3c03a92f6c982",
            ),
            (
                ("verify", "surface", "--matrix-mode", "verbatim", "--samples", "200", "--seed", "0"),
                "f04bf0211d7af6fe4fdfcb74a1b88deb438423cf19cdd167cd7b1b80c3d8e28f",
            ),
        ]
        for argv, digest in pinned:
            _, out, _ = run_cli(capsys, *argv)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_matrix_and_integral_outputs_are_pinned(self, capsys, tmp_path):
        # stdout from when the defining systems were solved by elimination
        gamma = ["1/3", "2/5", "3/7", "5/11"]
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps([
            {"theory": theory, "N": 3, "g": 2, "n": [2, 2], "gamma": gamma} for theory in ("line", "surface")
        ]))
        pinned = [
            (
                ("matrix", "line", '{"N":3,"g":2,"n":[2,2]}'),
                "9972c5d390f82671e7d257a08c4a6a951c70ce2e31431a6e8de751e35f7f4127",
            ),
            (  # M = 1
                ("matrix", "surface", '{"N":2,"g":2,"n":[1]}'),
                "2150eec6e6b2bd4e6498142f72828d6c148e8fe31a241009bbb3a0184b58fc9a",
            ),
            (
                ("matrix", "surface", '{"N":3,"g":2,"n":[2,2]}'),
                "9f07b42b268deda17cc63cbd936a9502f6e9c18d3ef1222d7c5d81ab0bfe4c05",
            ),
            (
                ("matrix", "surface", '{"N":3,"g":2,"n":[2,2]}', "--matrix-mode", "verbatim"),
                "b7abf9111d0336865c4624cebfcc0f225c053ee031fd5dd253df9cc4a4d5a5a4",
            ),
            (  # a = 0, det "0"
                ("matrix", "line", '{"N":2,"g":0,"n":[4]}'),
                "6c8be16d06462b1118f3e322503734179020cd30eb922c1d9cb4c5ff37a50315",
            ),
            (
                ("integral", "line", '{"N":3,"g":2,"n":[2,2],"l":[2],"k":[1,1,1,0]}', "--gamma", str(path)),
                "11c36c8422a31017345de4c09686bf452ca8626f15d5569d121999dddd669d36",
            ),
            (
                ("integral", "surface", '{"N":3,"g":2,"n":[2,2],"k":[1,0,0,0]}', "--gamma", str(path),
                 "--matrix-mode", "verbatim"),
                "e0ca872831621b47228a69aad2a3c7173792f9bf154aef7b88726997e94a966b",
            ),
        ]
        for argv, digest in pinned:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        # on the line an M = 1 type is never admissible
        code, out, err = run_cli(capsys, "matrix", "line", '{"N":2,"g":1,"n":[1]}')
        assert (code, out) == (2, "")
        assert err == "hhodge: seed exponent 1/2 is not an integer; type N=2, n=[1] is inadmissible\n"

    def test_series_outputs_are_pinned(self, capsys):
        # stdout from when the tables were built by series log and exp
        pinned = [
            (
                ("series", "hodge", "--order", "64"),
                "fa1f99bc11dbb8f7e3caafd5ddbc3d46593867a38e1a5117d8136aa915a803cd",
            ),
            (
                ("series", "hurwitz", "--N", "6", "--order", "64"),
                "e6fba89b9e3b0ad730dfb7f428af846d4641ae221d7d619ab11241f83f6066bb",
            ),
            (
                ("series", "initial", "--N", "3", "--order", "64"),
                "2a77e2ca0e96a471ef538e1c7d0f28833bdecacd89b67541dcc8bb53f17fe5f6",
            ),
            (
                ("series", "initial", "--N", "1", "--order", "2"),
                "7cf0d4750bdb2d01b1b4dd2c6b22d3e32d1660e3945bcaaf98541482bf235917",
            ),
            (
                ("integral", "line", '{"N":5,"g":16,"l":[31]}'),
                "0cc2a0b8c2c87761241c6ad97bd6412cfff5263d09a0ac543ae27bfa6bb6e6e2",
            ),
        ]
        for argv, digest in pinned:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

    def test_seed_changes_sampled_rows(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "line", "--samples", "4", "--seed", "1")
        _, second, _ = run_cli(capsys, "verify", "line", "--samples", "4", "--seed", "2")
        assert first != second

    def test_zero_samples_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "line", "--samples", "0")
        assert code == 2


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hhodge", "series", "hodge", "--order", "4"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC_DIR),
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert [2, 0, "1/24"] in doc["coefficients"]


DEMOS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS_DIR) if f.endswith(".py")))
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS_DIR, demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    assert proc.returncode == 0, proc.stderr
