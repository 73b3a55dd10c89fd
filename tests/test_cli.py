"""Tests for the command line interface: output shape and exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

import hypsimplex.cli as cli_module
from hypsimplex.cli import _emit
from hypsimplex.conditions import edge_conditions_raw, edge_jacobian_raw
from hypsimplex.model import SimplexParams
from hypsimplex.solver import SolverConfig, domain_for, solve

from clirun import run_cli
from oracles import TRUE_ROOTS


def run(*args):
    return run_cli(args)


def json_lines(result):
    return [json.loads(line) for line in result.stdout.strip().splitlines()]


def csv_rows(result):
    return list(csv.DictReader(io.StringIO(result.stdout)))


class TestSerialization:
    ROW = [
        ("none", None),
        ("swapped", False),
        ("iterations", 6),
        ("class", "HyperbolicOuter"),
        ("flags", [True, False]),
        ("signature", [3, 1, 0]),
        ("value", 0.1),
        ("vertex_classes", ["Outer", "Ideal"]),
        ("improper_roots", [[0.5, 0.25]]),
        ("edge_lengths", [[1.5, 1.5], [2.0, 2.5]]),
        ("empty", []),
    ]

    def test_json_lines(self, capsys):
        _emit([self.ROW], "json-lines")
        assert capsys.readouterr().out == (
            '{"none":null,"swapped":false,"iterations":6,"class":"HyperbolicOuter",'
            '"flags":[true,false],"signature":[3,1,0],'
            '"value":0.10000000000000001,"vertex_classes":["Outer","Ideal"],'
            '"improper_roots":[[0.5,0.25]],"edge_lengths":[[1.5,1.5],[2,2.5]],'
            '"empty":[]}\n'
        )

    def test_csv(self, capsys):
        _emit([self.ROW], "csv")
        assert capsys.readouterr().out == (
            "none,swapped,iterations,class,flags,signature,value,vertex_classes,"
            "improper_roots,edge_lengths,empty\n"
            ",false,6,HyperbolicOuter,true;false,3;1;0,0.10000000000000001,"
            "Outer;Ideal,0.5:0.25,1.5:1.5;2:2.5,\n"
        )

    @pytest.mark.parametrize("fmt, first, second", [
        ("json-lines", '{"a":1,"b":0.5}\n', '{"a":2,"b":null}\n'),
        ("csv", "a,b\n1,0.5\n", "2,\n"),
    ], ids=["json-lines", "csv"])
    def test_rows_are_written_as_they_come(self, capsys, fmt, first, second):
        before_second = []

        def rows():
            yield [("a", 1), ("b", 0.5)]
            before_second.append(capsys.readouterr().out)
            yield [("a", 2), ("b", None)]

        assert _emit(rows(), fmt) is True
        assert before_second == [first]
        assert capsys.readouterr().out == second

    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_no_rows_write_nothing(self, capsys, fmt):
        assert _emit(iter(()), fmt) is False
        assert capsys.readouterr().out == ""


class TestClassifyCommand:
    def test_admissible_pair(self):
        result = run("classify", 2, 4)
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert row["class"] == "HyperbolicOuter"
        assert row["strict"] is True
        assert row["b_max"] == 7
        assert row["swapped"] is False

    def test_swapped_input(self):
        result = run("classify", 4, 2)
        (row,) = json_lines(result)
        assert (row["a"], row["b"], row["swapped"]) == (2, 4, True)

    def test_small_parameter(self):
        result = run("classify", 1, 6)
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert row["class"] == "Spherical"
        assert row["inequality_lhs"] is None
        assert row["b_max"] is None

    def test_invalid_parameters(self):
        result = run("classify", 0, 4)
        assert result.exit_code == 2


class TestSolveCommand:
    def test_solved_pair(self):
        result = run("solve", 2, 4)
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert row["status"] == "Solved"
        x, y = TRUE_ROOTS[(2, 4)]
        assert row["alpha1"] == pytest.approx(x, abs=1e-9)
        assert row["beta1"] == pytest.approx(y, abs=1e-9)
        assert row["proper_all_pass"] is True
        assert abs(row["residual_cond1"]) < 1e-11

    def test_solved_pair_geometry_block(self):
        (row,) = json_lines(run("solve", 2, 4))
        assert row["class"] == "HyperbolicOuter"
        assert row["determinant"] < 0
        assert row["signature"] == [3, 1, 0]
        assert row["vertex_classes"] == ["Outer"] * 4
        assert row["b_max"] == 7
        (first, second) = row["edge_lengths"]
        assert first[0] == pytest.approx(first[1], abs=1e-9)
        assert second[0] == pytest.approx(second[1], abs=1e-9)
        assert first[0] < second[0]

    def test_geometry_needs_no_eigenvalues(self, monkeypatch):
        # The signature column comes from the properness report, so no
        # command that solves builds the matrix or diagonalizes it.
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        table = run("table", "--a", "2..3")
        assert table.exit_code == 0, table.stdout
        solved = run("solve", 3, 7)
        assert solved.exit_code == 0, solved.stdout
        rows = json_lines(table) + json_lines(solved)
        assert len(rows) == 11
        assert all(row["signature"] == [3, 1, 0] for row in rows)

    def test_boundary_pair_exit_code(self):
        result = run("solve", 2, 8)
        assert result.exit_code == 1
        (row,) = json_lines(result)
        assert row["status"] == "BoundarySolution"
        assert row["alpha1"] == pytest.approx(pi / 2)
        assert row["beta1"] == 0.0

    def test_large_a_pair_at_b_max_is_solved(self):
        result = run("solve", 3737, 7474)
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert row["status"] == "Solved"
        assert row["b_max"] == 7474
        assert row["proper_all_pass"] is True

    def test_short_edges_survive_at_large_a(self):
        # 9.9021544649e-11 is the 50-digit d01 at the printed angles, where
        # arccosh of the Gram ratio (matrices.projective_distance) gives 0.
        (row,) = json_lines(run("solve", 3737, 7474))
        (d01, d02), _ = row["edge_lengths"]
        assert d01 > 0 and d02 > 0
        assert d01 == pytest.approx(9.9021544649e-11, rel=1e-10)

    def test_unsolvable_pair_exit_code(self):
        result = run("solve", 2, 9)
        assert result.exit_code == 1
        (row,) = json_lines(result)
        assert row["status"] == "NoProperSolution"
        assert row["alpha1"] is None

    def test_invalid_class_exit_code(self):
        assert run("solve", 2, 2).exit_code == 2
        assert run("solve", 5, 5).exit_code == 2

    def test_invalid_params_exit_code(self):
        assert run("solve", 0, 3).exit_code == 2

    def test_diverged_exit_code(self):
        steps = solve(SimplexParams(2, 4)).iterations
        result = run("solve", 2, 4, "--max-iter", str(steps - 1))
        assert result.exit_code == 3
        (row,) = json_lines(result)
        assert row["status"] == "Diverged"

    def test_csv_format(self):
        result = run("solve", 2, 3, "--format", "csv")
        assert result.exit_code == 0
        (row,) = csv_rows(result)
        assert row["status"] == "Solved"
        assert float(row["alpha1"]) == pytest.approx(TRUE_ROOTS[(2, 3)][0], abs=1e-9)
        assert ":" in row["improper_roots"]

    def test_degrees_flag(self):
        radians = json_lines(run("solve", 3, 5))[0]
        degrees = json_lines(run("solve", 3, 5, "--degrees"))[0]
        assert degrees["alpha1"] == pytest.approx(radians["alpha1"] * 180 / pi)

    def test_floats_roundtrip_at_full_precision(self):
        result = run("solve", 2, 4)
        raw = result.stdout.strip()
        row = json.loads(raw)
        token = raw.split('"alpha1":')[1].split(",")[0]
        assert float(token) == row["alpha1"]
        assert len(token.replace("-", "").replace(".", "").split("e")[0].lstrip("0")) >= 15

    def test_damping_is_not_an_option(self):
        result = run("solve", 2, 5, "--k1", "20")
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("option", ["--tol", "--angle-tol"])
    def test_tolerances_are_not_options(self, option):
        for command in (["solve", 2, 4], ["table", "--a", "2..2"]):
            result = run(*command, option, "1e-9")
            assert result.exit_code == 2, (command, option)
            assert result.stdout == ""

    @pytest.mark.parametrize("option, value", [("--max-iter", "0")])
    def test_invalid_config_exit_code(self, option, value):
        for command in (["solve", 2, 4], ["table", "--a", "2..2"]):
            result = run(*command, option, value)
            assert result.exit_code == 2, (command, option)
            assert result.stdout == ""
            assert "error:" in result.stderr, (command, option)

    def test_option_defaults_are_the_solver_config_defaults(self):
        for command in (["solve", "2", "4"], ["table"]):
            args = cli_module._parser().parse_args(command)
            assert SolverConfig(args.max_iter) == SolverConfig(), command


class TestTableCommand:
    def test_default_range_covers_reference_rows(self):
        result = run("table")
        assert result.exit_code == 0
        rows = json_lines(result)
        pairs = {(row["a"], row["b"]) for row in rows}
        assert pairs == set(TRUE_ROOTS)
        assert all(row["status"] == "Solved" for row in rows)

    def test_b_upto_integer_ceiling(self):
        # Pairs with b <= a are skipped, so --b 1..N caps b at N for every a.
        rows = json_lines(run("table", "--a", "2..3", "--b", "1..5"))
        assert [(row["a"], row["b"]) for row in rows] == [
            (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
        ]

    def test_b_upto_is_not_an_option(self):
        assert run("table", "--b-upto", "6").exit_code == 2

    def test_explicit_range_mixes_statuses(self):
        result = run("table", "--a", "2", "--b", "2..9", "--format", "csv")
        rows = csv_rows(result)
        assert len(rows) == 7
        by_b = {int(row["b"]): row for row in rows}
        assert 2 not in by_b
        assert by_b[8]["status"] == "BoundarySolution"
        assert by_b[9]["status"] == "NoProperSolution"
        assert by_b[4]["status"] == "Solved"
        assert by_b[4]["class"] == "HyperbolicOuter"
        assert by_b[4]["signature"] == "3;1;0"
        assert by_b[9]["alpha1"] == ""

    def test_spherical_rows_carry_class_only(self):
        rows = json_lines(run("table", "--a", "1", "--b", "2..3"))
        assert [row["class"] for row in rows] == ["Spherical", "Spherical"]
        assert all(row["status"] is None for row in rows)
        assert all(row["alpha1"] is None for row in rows)

    def test_single_pair_range(self):
        rows = json_lines(run("table", "--a", "4", "--b", "7"))
        assert len(rows) == 1
        assert rows[0]["alpha1"] == pytest.approx(TRUE_ROOTS[(4, 7)][0], abs=1e-9)

    def test_bad_range_exit_code(self):
        assert run("table", "--a", "6..2").exit_code == 2
        assert run("table", "--a", "x..3").exit_code == 2

    def test_empty_range_exit_code(self):
        result = run("table", "--a", "5", "--b", "2..3")
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: empty parameter range: no pairs with b > a\n"


GRID_KEYS = ("alpha1", "beta1", "cond1", "cond2", "dcond1", "dcond2")


def expected_grid(a, b, resolution, fmt, degrees):
    """The grid command's output, one value at a time: the same array calls,
    each value printed with format(x, ".17g")."""
    box = domain_for(SimplexParams(a, b))
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution)
    axes = (al[:, None], be[None, :], a, b)
    c1, c2 = edge_conditions_raw(*axes)
    (d1, _), (_, d2) = edge_jacobian_raw(*axes)
    scale = 180.0 / pi if degrees else 1.0
    lines = [] if fmt == "json-lines" else [",".join(GRID_KEYS)]
    for i in range(resolution):
        for j in range(resolution):
            values = [float(al[i]) * scale, float(be[j]) * scale] + [
                float(c[i, j]) for c in (c1, c2, d1, d2)
            ]
            cells = [format(v, ".17g") for v in values]
            if fmt == "json-lines":
                lines.append("{" + ",".join(f'"{k}":{c}' for k, c in zip(GRID_KEYS, cells)) + "}")
            else:
                lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


class TestGridCommand:
    @pytest.mark.parametrize("a, b", [(2, 3), (3, 7), (12, 24)])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("degrees", [False, True])
    def test_golden_bytes(self, a, b, fmt, degrees):
        args = ["grid", a, b, "--resolution", "7", "--format", fmt]
        result = run(*args, *(["--degrees"] if degrees else []))
        assert result.exit_code == 0
        expected = expected_grid(a, b, 7, fmt, degrees)
        if (a, b) == (2, 3):
            # cond1 is a negative zero at (pi/3, 0), the first node.
            first = expected.splitlines()[1 if fmt == "csv" else 0]
            assert first.split(",")[2] in ("-0", '"cond1":-0')
        assert result.stdout == expected

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_rows_are_not_formatted_per_value(self, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("_token called")

        monkeypatch.setattr(cli_module, "_token", refuse)
        result = run("grid", 2, 4, "--resolution", "4", "--format", fmt)
        assert result.exit_code == 0, result.stdout
        assert result.stdout == expected_grid(2, 4, 4, fmt, False)

    def test_csv_shape(self):
        result = run("grid", 2, 4, "--resolution", "4")
        assert result.exit_code == 0
        rows = csv_rows(result)
        assert len(rows) == 16
        assert list(rows[0]) == ["alpha1", "beta1", "cond1", "cond2", "dcond1", "dcond2"]

    def test_two_nodes_yield_the_four_corners(self):
        result = run("grid", 2, 4, "--resolution", "2", "--format", "json-lines")
        rows = json_lines(result)
        assert len(rows) == 4
        assert set(rows[0]) == {"alpha1", "beta1", "cond1", "cond2", "dcond1", "dcond2"}
        corners = {(row["alpha1"], row["beta1"]) for row in rows}
        assert corners == {
            (pi / 3, 0.0), (pi / 3, pi / 4), (pi / 2, 0.0), (pi / 2, pi / 4),
        }

    def test_corner_samples_match_direct_evaluation(self):
        result = run("grid", 3, 5, "--resolution", "2")
        rows = csv_rows(result)
        first = rows[0]
        assert float(first["alpha1"]) == 0.0
        assert float(first["beta1"]) == 0.0

    def test_first_condition_positive_on_low_alpha_edge(self):
        for b in range(4, 9):
            result = run("grid", 3, b, "--resolution", "100")
            rows = csv_rows(result)
            edge = [row for row in rows if float(row["alpha1"]) == 0.0]
            assert len(edge) == 100, b
            assert all(float(row["cond1"]) > 0 for row in edge), b

    def test_second_condition_nonpositive_on_high_beta_edge(self):
        result = run("grid", 2, 5, "--resolution", "100")
        rows = csv_rows(result)
        edge = [row for row in rows if float(row["beta1"]) == pytest.approx(pi / 5)]
        assert len(edge) == 100
        assert all(float(row["cond2"]) <= 1e-15 for row in edge)

    def test_rejects_unsolvable_class(self):
        assert run("grid", 2, 2).exit_code == 2

    def test_rejects_bad_resolution(self):
        assert run("grid", 2, 4, "--resolution", "1").exit_code == 2
        assert run("grid", 2, 4, "--resolution", "0").exit_code == 2


class TestCheckCommand:
    def test_thousand_seeded_trials_all_pass(self):
        result = run("check", "--trials", "1000", "--seed", "42")
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert row["passes"] + row["skipped"] == 1000
        assert row["failures"] == 0
        assert row["worst_relative_gap"] < 1e-9

    def test_identity_only_single_trial(self):
        result = run("check", "--trials", "1", "--identity-only")
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert row["identity_only"] is True
        assert row["passes"] == 1
        assert row["worst_relative_gap"] == 0.0

    def test_same_seed_reproduces_output(self):
        first = run("check", "--trials", "100", "--seed", "7")
        second = run("check", "--trials", "100", "--seed", "7")
        assert first.stdout == second.stdout

    def test_csv_format(self):
        result = run("check", "--trials", "25", "--format", "csv")
        assert result.exit_code == 0
        (row,) = csv_rows(result)
        assert row["failures"] == "0"
        assert int(row["passes"]) + int(row["skipped"]) == 25

    def test_rejects_nonpositive_trials(self):
        assert run("check", "--trials", "0").exit_code == 2

    def test_failure_exit_code(self, monkeypatch):
        import hypsimplex.matrices as matrices_module

        monkeypatch.setattr(
            matrices_module, "jacobi_minor_identity", lambda m, spec: (1.0, 2.0)
        )
        result = run("check", "--trials", "3")
        assert result.exit_code == 4
        (row,) = json_lines(result)
        assert row["failures"] == 3


OPTIONS = {
    "classify": {"--format"},
    "solve": {"--max-iter", "--format", "--degrees"},
    "table": {"--a", "--b", "--max-iter", "--format", "--degrees"},
    "grid": {"--resolution", "--format", "--degrees"},
    "check": {"--trials", "--seed", "--identity-only", "--format"},
}


class TestArgumentParsing:
    @pytest.mark.parametrize("args", [
        ("grid", 3, 7, "--res", 8), ("solve", 3, 7, "--deg"), ("table", "--max", 5),
    ], ids=["--res", "--deg", "--max"])
    def test_abbreviated_options_are_usage_errors(self, args):
        result = run(*args)
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_no_command_is_a_usage_error(self):
        result = run()
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_top_level_help_names_every_command(self):
        result = run("--help")
        assert result.exit_code == 0
        assert set(OPTIONS) <= set(re.findall(r"\w+", result.stdout))

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_command_help_names_every_option(self, command):
        result = run(command, "--help")
        assert result.exit_code == 0
        assert set(re.findall(r"--[\w-]+", result.stdout)) == {"--help", *OPTIONS[command]}

    @pytest.mark.parametrize("args, lines", [
        (("grid", "3", "7"), 1), (("classify", "3", "7"), 0),
    ], ids=["grid-head-1", "classify-closed"])
    def test_closed_pipe_exits_1_with_empty_stderr(self, args, lines):
        # grid 3 7 | head -1 meets the closed pipe in a write of its 4.8 MB
        # of rows; classify, its one row still in a block-buffered stdout,
        # meets it in the last flush.
        src = str(Path(cli_module.__file__).parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "hypsimplex.cli", *args]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as child:
            for _ in range(lines):
                child.stdout.readline()
            child.stdout.close()
            stderr = child.stderr.read()
        assert child.returncode == 1
        assert stderr == b""


class TestMinorIdentitySuite:
    def test_near_singular_draws_are_skipped_not_failed(self):
        from hypsimplex.matrices import run_minor_identity_suite

        summary = run_minor_identity_suite(20, seed=3, singular_tol=float("inf"))
        assert summary["skipped"] == 20
        assert summary["failures"] == 0
        assert summary["passes"] == 0
        assert all(note.startswith("SingularMatrix") for note in summary["notes"])

    def test_random_suite_counts_are_consistent(self):
        from hypsimplex.matrices import run_minor_identity_suite

        summary = run_minor_identity_suite(200, seed=11)
        assert summary["passes"] + summary["failures"] + summary["skipped"] == 200
        assert summary["failures"] == 0
