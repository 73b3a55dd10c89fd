"""Tests for the command line interface: output shape and exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest

import hypsimplex.cli as cli_module
import hypsimplex.solver as solver_module
from hypsimplex.cli import _emit
from hypsimplex.conditions import compute_bmax, edge_conditions_raw, edge_jacobian_raw
from hypsimplex.errors import AmbiguousSignature, SingularMatrix
from hypsimplex.model import DihedralAngles, SimplexParams
from hypsimplex.solver import SolveStatus, SolverConfig, domain_for

from clirun import run_cli
from oracles import TRUE_ROOTS


def run(*args):
    return run_cli(args)


def json_lines(result):
    return [json.loads(line) for line in result.stdout.strip().splitlines()]


def csv_rows(result):
    return list(csv.DictReader(io.StringIO(result.stdout)))


def newton_diverges(monkeypatch):
    """Make every Newton run use up its step budget without converging."""
    monkeypatch.setattr(
        solver_module, "_newton",
        lambda params, start, config, region=None: (start, config.max_iterations, False),
    )


class TestSerialization:
    ROW = {
        "none": None,
        "swapped": False,
        "iterations": 6,
        "class": "HyperbolicOuter",
        "flags": [True, False],
        "signature": [3, 1, 0],
        "value": 0.1,
        "vertex_classes": ["Outer", "Ideal"],
        "improper_roots": [[0.5, 0.25]],
        "edge_lengths": [[1.5, 1.5], [2.0, 2.5]],
        "empty": [],
    }

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
            yield {"a": 1, "b": 0.5}
            before_second.append(capsys.readouterr().out)
            yield {"a": 2, "b": None}

        assert _emit(rows(), fmt) is True
        assert before_second == [first]
        assert capsys.readouterr().out == second

    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_no_rows_write_nothing(self, capsys, fmt):
        assert _emit(iter(()), fmt) is False
        assert capsys.readouterr().out == ""


CLASSIFY_KEYS = [
    "a", "b", "swapped", "class", "inequality_lhs", "inequality_rhs", "strict",
    "corner_value", "b_max",
]
SOLVE_KEYS = [
    "a", "b", "swapped", "class", "status", "alpha1", "alpha2", "beta1", "beta2",
    "residual_cond1", "residual_cond2", "iterations", "determinant", "signature",
    "vertex_classes", "edge_lengths", "b_max", "contraction_norm_estimate",
    "proper_angles_positive", "proper_determinant_negative", "proper_vertices_outer",
    "proper_gram_signs", "proper_all_pass", "improper_roots",
]
TABLE_KEYS = [
    "a", "b", "class", "status", "alpha1", "alpha2", "beta1", "beta2",
    "residual_cond1", "residual_cond2", "iterations", "determinant", "signature",
    "vertex_classes", "edge_lengths", "b_max",
]
CHECK_KEYS = [
    "a", "b", "swapped", "class", "status", "proper_all_pass", "length_gaps",
    "matrix_agrees",
]
ANGLE_KEYS = ("alpha1", "alpha2", "beta1", "beta2", "improper_roots")


class TestRecordShapes:
    """Every command's record keeps one key order, and the table and check
    rows are projections of the solve record."""

    @pytest.mark.parametrize("args, keys", [
        (("classify", 3, 7), CLASSIFY_KEYS),
        (("classify", 1, 5), CLASSIFY_KEYS),
        (("solve", 3, 7), SOLVE_KEYS),
        (("solve", 2, 9), SOLVE_KEYS),
        (("table", "--a", "1..2", "--b", "2..3"), TABLE_KEYS),
        (("check", 3, 7), CHECK_KEYS),
        (("check", 2, 9), CHECK_KEYS),
    ], ids=lambda value: " ".join(map(str, value)) if isinstance(value, tuple) else None)
    @pytest.mark.parametrize("fmt", ["json-lines", "csv"])
    def test_key_order(self, args, keys, fmt):
        result = run(*args, "--format", fmt)
        assert result.exit_code in (0, 1), result.stderr
        if fmt == "csv":
            assert result.stdout.splitlines()[0] == ",".join(keys)
        else:
            assert all(list(row) == keys for row in json_lines(result))

    @pytest.mark.parametrize("a, b", [(2, 3), (2, 8), (2, 9)])
    def test_table_row_is_the_solve_record_cut_after_b_max(self, a, b):
        (record,) = json_lines(run("solve", a, b))
        (row,) = json_lines(run("table", "--a", a, "--b", b))
        assert list(row.items()) == [(k, record[k]) for k in TABLE_KEYS]

    def test_table_row_without_a_report_is_null_past_the_class(self):
        (row,) = json_lines(run("table", "--a", 1, "--b", 2))
        (classified,) = json_lines(run("classify", 1, 2))
        assert [row[k] for k in ("a", "b", "class")] == [
            classified[k] for k in ("a", "b", "class")]
        assert [row[k] for k in TABLE_KEYS[3:]] == [None] * (len(TABLE_KEYS) - 3)

    @pytest.mark.parametrize("a, b", [(3, 7), (7, 3), (2, 8), (2, 9)])
    def test_check_row_starts_with_the_solve_record(self, a, b):
        (record,) = json_lines(run("solve", a, b))
        (row,) = json_lines(run("check", a, b))
        assert list(row.items())[:6] == [(k, record[k]) for k in CHECK_KEYS[:6]]

    @pytest.mark.parametrize("a, b", [(3, 7), (6, 3)])
    def test_solve_record_starts_with_the_classify_prefix(self, a, b):
        (classified,) = json_lines(run("classify", a, b))
        (record,) = json_lines(run("solve", a, b))
        assert [record[k] for k in SOLVE_KEYS[:4]] == [classified[k] for k in SOLVE_KEYS[:4]]


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

    def test_every_status_has_its_exit_code(self):
        """The CLI keys its exit codes by status name, so a status it does
        not name would raise KeyError instead of exiting."""
        codes = {status: cli_module._STATUS_EXIT[status.name] for status in SolveStatus}
        assert codes == {
            SolveStatus.SOLVED: 0,
            SolveStatus.NO_PROPER_SOLUTION: 1,
            SolveStatus.BOUNDARY_SOLUTION: 1,
            SolveStatus.DIVERGED: 3,
        }
        assert len(cli_module._STATUS_EXIT) == len(SolveStatus)

    def test_diverged_exit_code(self, monkeypatch):
        newton_diverges(monkeypatch)
        result = run("solve", 2, 4)
        assert result.exit_code == 3
        (row,) = json_lines(result)
        assert row["status"] == "Diverged"
        assert row["iterations"] == SolverConfig().max_iterations

    def test_csv_format(self):
        result = run("solve", 2, 3, "--format", "csv")
        assert result.exit_code == 0
        (row,) = csv_rows(result)
        assert row["status"] == "Solved"
        assert float(row["alpha1"]) == pytest.approx(TRUE_ROOTS[(2, 3)][0], abs=1e-9)
        assert ":" in row["improper_roots"]

    def test_degrees_flag(self):
        """Degrees are math.degrees of the radians, bit for bit, in the
        angles and in the improper roots; (2, 3) has one improper root."""
        for (a, b), improper in (((3, 5), 0), ((2, 3), 1)):
            (radians,) = json_lines(run("solve", a, b))
            (degrees,) = json_lines(run("solve", a, b, "--degrees"))
            for key in ("alpha1", "alpha2", "beta1", "beta2"):
                assert degrees[key] == math.degrees(radians[key]), (a, b, key)
            assert degrees["improper_roots"] == [
                [math.degrees(x) for x in root] for root in radians["improper_roots"]
            ]
            assert len(degrees["improper_roots"]) == improper
            assert {k: v for k, v in degrees.items() if k not in ANGLE_KEYS} == {
                k: v for k, v in radians.items() if k not in ANGLE_KEYS
            }

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

    def test_step_budget_is_not_an_option(self):
        for command in (["solve", 2, 4], ["table", "--a", "2..2"]):
            result = run(*command, "--max-iter", "2000")
            assert result.exit_code == 2, command
            assert result.stdout == ""

    @pytest.mark.parametrize("option, value", [("--max-iter", "0")])
    def test_invalid_config_exit_code(self, option, value):
        """A budget SolverConfig would refuse never reaches it: it is a usage error."""
        for command in (["solve", 2, 4], ["table", "--a", "2..2"]):
            result = run(*command, option, value)
            assert result.exit_code == 2, (command, option)
            assert result.stdout == ""
            assert "error:" in result.stderr, (command, option)

    def test_option_defaults_are_the_solver_config_defaults(self, monkeypatch):
        """solve and table run every Newton with SolverConfig()."""
        newton = solver_module._newton
        configs = []

        def recording_newton(params, start, config, region=None):
            configs.append(config)
            return newton(params, start, config, region)

        monkeypatch.setattr(solver_module, "_newton", recording_newton)
        for command in (["solve", 2, 4], ["table", "--a", "2..2"]):
            configs.clear()
            assert run(*command).exit_code == 0, command
            assert configs, command
            assert all(config == SolverConfig() for config in configs), command


class TestTableCommand:
    def test_diverged_exit_code(self, monkeypatch):
        newton_diverges(monkeypatch)
        result = run("table", "--a", "2..2")
        assert result.exit_code == 3
        rows = json_lines(result)
        assert [row["b"] for row in rows] == [3, 4, 5, 6, 7]
        assert all(row["status"] == "Diverged" for row in rows)

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
    unit = math.degrees if degrees else float
    lines = [] if fmt == "json-lines" else [",".join(GRID_KEYS)]
    for i in range(resolution):
        for j in range(resolution):
            values = [unit(float(al[i])), unit(float(be[j]))] + [
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

    @staticmethod
    def record_kernel_calls(monkeypatch):
        """Wrap the grid's kernel; returns the list of its (alpha1, beta1)
        arguments, one pair per call."""
        calls = []
        kernel = cli_module.edge_system_raw

        def recorder(alpha1, beta1, a, b):
            calls.append((alpha1, beta1))
            return kernel(alpha1, beta1, a, b)

        monkeypatch.setattr(cli_module, "edge_system_raw", recorder)
        return calls

    def test_blocks_tile_the_mesh(self, monkeypatch):
        calls = self.record_kernel_calls(monkeypatch)
        result = run("grid", 3, 7, "--resolution", 300)
        assert result.exit_code == 0
        budget = max(cli_module._GRID_BLOCK_NODES, 300)
        assert all(np.broadcast(*call).size <= budget for call in calls)
        box = domain_for(SimplexParams(3, 7))
        alpha1 = np.concatenate([call[0].ravel() for call in calls])
        assert np.array_equal(alpha1, np.linspace(box.alpha1_lo, box.alpha1_hi, 300))
        assert result.stdout == expected_grid(3, 7, 300, "csv", False)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_first_row_is_written_after_one_block(self, monkeypatch, fmt):
        calls = self.record_kernel_calls(monkeypatch)
        devnull = os.open(os.devnull, os.O_WRONLY)

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

            def fileno(self):  # main() points it at devnull
                return devnull

        monkeypatch.setattr(sys, "argv", ["hypsimplex", "grid", "3", "7", "--resolution", "400",
                                          "--format", fmt])
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
                with pytest.raises(SystemExit) as exited:
                    cli_module.main()
        finally:
            os.close(devnull)
        assert exited.value.code == 1
        assert err.getvalue() == ""
        assert sum(np.broadcast(*call).size for call in calls) <= max(
            cli_module._GRID_BLOCK_NODES, 400)

    def test_rejects_unsolvable_class(self):
        assert run("grid", 2, 2).exit_code == 2

    def test_rejects_bad_resolution(self):
        assert run("grid", 2, 4, "--resolution", "1").exit_code == 2
        assert run("grid", 2, 4, "--resolution", "0").exit_code == 2

    @pytest.mark.parametrize("error", [
        MemoryError("Unable to allocate 72.8 TiB"),
        ValueError("Maximum allowed size exceeded"),
        IndexError("index -1 is out of bounds for axis 0 with size 0"),
    ], ids=lambda error: type(error).__name__)
    def test_refuses_a_resolution_whose_axes_cannot_be_allocated(self, monkeypatch, error):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(np, "linspace", refuse)
        result = run("grid", 3, 7, "--resolution", 10**13)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: resolution 10000000000000 is too large to allocate\n"


# The relative gap between the two edge lengths that each condition makes
# equal stays far below this on every admissible pair with a = 2..40.
GAP_BOUND = 1e-12


class TestCheckCommand:
    def test_solved_pair_passes(self):
        result = run("check", 3, 7)
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert (row["status"], row["proper_all_pass"], row["matrix_agrees"]) == (
            "Solved", True, True)
        assert max(row["length_gaps"]) < GAP_BOUND

    def test_failure_exit_code(self):
        # Solved with alpha2 = 0.0: the first pair of lengths is 2.6e-24 and 0.
        result = run("check", 100000000, 200000000)
        assert result.exit_code == 4
        (row,) = json_lines(result)
        assert (row["status"], row["proper_all_pass"], row["matrix_agrees"]) == (
            "Solved", False, True)
        assert row["length_gaps"][0] == 1.0

    def test_rejects_invalid_class(self):
        result = run("check", 2, 2)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_random_draw_options_are_usage_errors(self):
        for options in (["--trials", "0"], ["--seed", "-1"], ["--identity-only"]):
            result = run("check", 3, 7, *options)
            assert (result.exit_code, result.stdout) == (2, ""), options

    def test_unsolvable_pair_exits_as_solve_does(self):
        result = run("check", 2, 9)
        assert result.exit_code == 1
        (row,) = json_lines(result)
        assert row["status"] == "NoProperSolution"
        assert [row[k] for k in ("proper_all_pass", "length_gaps", "matrix_agrees")] == [
            None, None, None]

    def test_csv_format(self):
        (json_row,) = json_lines(run("check", 7, 12))
        result = run("check", 7, 12, "--format", "csv")
        assert result.exit_code == 0
        (row,) = csv_rows(result)
        assert list(row) == list(json_row)
        assert row["length_gaps"] == ";".join(format(g, ".17g") for g in json_row["length_gaps"])
        assert (row["status"], row["matrix_agrees"]) == ("Solved", "true")

    def test_moved_angle_raises_the_gaps_above_the_bound(self, monkeypatch):
        solve = solver_module.solve

        def moved(params):
            report = solve(params)
            alpha1 = report.angles.alpha1 * (1 + 1e-6)
            angles = DihedralAngles.from_reduced(params, alpha1, report.angles.beta1)
            return report._replace(angles=angles,
                                   properness=solver_module.check_properness(params, angles))

        monkeypatch.setattr(solver_module, "solve", moved)
        (row,) = json_lines(run("check", 3, 7))
        assert min(row["length_gaps"]) > GAP_BOUND

    def test_worst_gap_over_a_2_to_40(self):
        """At aa4273f the worst gap is 8.39e-14, at (39, 78), over the 826
        admissible pairs with a = 2..40."""
        worst = 0.0
        for a in range(2, 41):
            for b in range(a + 1, compute_bmax(a) + 1):
                result = run("check", a, b)
                assert result.exit_code == 0, (a, b)
                (row,) = json_lines(result)
                assert row["matrix_agrees"] is True, (a, b)
                worst = max(worst, *row["length_gaps"])
        assert worst < GAP_BOUND

    def test_singular_inverse_reads_as_failed_gram_check(self, monkeypatch):
        import hypsimplex.matrices as matrices_module

        def singular(matrix):
            raise SingularMatrix("forced")

        monkeypatch.setattr(matrices_module, "inverse", singular)
        result = run("check", 3, 7)
        assert result.exit_code == 4
        (row,) = json_lines(result)
        assert (row["proper_all_pass"], row["matrix_agrees"]) == (True, False)

    def test_ambiguous_vertex_reads_as_disagreement(self, monkeypatch):
        def ambiguous(matrix, i):
            raise AmbiguousSignature("forced")

        monkeypatch.setattr(cli_module, "classify_vertex", ambiguous)
        result = run("check", 3, 7)
        assert result.exit_code == 4
        (row,) = json_lines(result)
        assert (row["proper_all_pass"], row["matrix_agrees"]) == (True, False)


class TestLargeParameters:
    """pi/a and pi/b are not floats from about 2**1024 on."""

    A = 2**1024

    def test_classify_answers_from_integers(self):
        result = run("classify", self.A, self.A + 1)
        assert result.exit_code == 0
        (row,) = json_lines(result)
        assert (row["class"], row["strict"], row["b_max"]) == (
            "HyperbolicOuter", True, 2 * self.A)
        assert [row[k] for k in ("inequality_lhs", "inequality_rhs", "corner_value")] == [
            None, None, None]

    @pytest.mark.parametrize("command", ["solve", "grid", "check"])
    def test_admissible_pair_is_refused(self, command):
        result = run(command, self.A, self.A + 1)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: pi/a or pi/b is not a float")

    def test_table_refuses_the_pair(self):
        result = run("table", "--a", self.A, "--b", self.A + 1)
        assert (result.exit_code, result.stdout) == (2, "")

    @pytest.mark.parametrize("args", [
        ("solve", 10**103, 2 * 10**103), ("check", 10**103, 2 * 10**103),
        ("table", "--a", 10**103, "--b", 2 * 10**103),
    ], ids=["solve", "check", "table"])
    def test_b_2a_is_refused_once_12_a_cubed_is_not_a_float(self, args):
        result = run(*args)
        assert (result.exit_code, result.stdout) == (2, "")
        assert re.fullmatch(r"error: Newton's start on b = 2a needs 12 a\^3 as a float: "
                            r".*\n", result.stderr)

    def test_class_decides_a_pair_with_large_b(self):
        result = run("solve", 3, self.A + 1)
        assert result.exit_code == 1
        (row,) = json_lines(result)
        assert (row["class"], row["status"]) == ("NoProperSolution", "NoProperSolution")


@pytest.mark.parametrize("args", [
    ("classify", 0, 5), ("solve", 0, 3), ("solve", 2, 2), ("check", 0, 3), ("check", 2, 2),
    ("grid", 2, 2), ("grid", 3, 7, "--resolution", 1), ("grid", 3, 7, "--resolution", 10**20),
    ("table", "--a", "3..2"), ("table", "--a", "x"), ("table", "--a", 0),
    ("table", "--a", 2, "--b", "5..3"), ("table", "--a", 5, "--b", "2..3"),
    ("solve", 2**1024, 2**1024 + 1), ("grid", 2**1024, 2**1024 + 1),
    ("check", 2**1024, 2**1024 + 1), ("table", "--a", 2**1024, "--b", 2**1024 + 1),
    ("solve", 10**103, 2 * 10**103),
], ids=lambda args: " ".join(str(arg)[:8] for arg in args))
def test_every_invalid_input_exits_2_with_one_error_line(args):
    # In a child process, as a shell runs it, so that a traceback would show.
    src = str(Path(cli_module.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    child = subprocess.run([sys.executable, "-m", "hypsimplex.cli", *map(str, args)],
                           env=env, capture_output=True, text=True)
    assert (child.returncode, child.stdout) == (2, "")
    assert re.fullmatch(r"error: [^\n]*\n", child.stderr), child.stderr
    assert "Traceback" not in child.stderr


def _in_degrees(value):
    """math.degrees of a radian value, of each value of a list, or None."""
    if isinstance(value, list):
        return [_in_degrees(v) for v in value]
    return None if value is None else math.degrees(value)


@pytest.mark.parametrize("args", [
    ("table", "--a", "2..3"), ("grid", 2, 5, "--resolution", 7, "--format", "json-lines"),
], ids=["table", "grid"])
def test_degrees_are_math_degrees_of_the_printed_radians(args):
    """`table` and `grid` convert with math.degrees, bit for bit, as `solve`
    does (TestSolveCommand.test_degrees_flag)."""
    radians, degrees = json_lines(run(*args)), json_lines(run(*args, "--degrees"))
    assert len(degrees) == len(radians) > 0
    for rad, deg in zip(radians, degrees):
        assert deg.keys() == rad.keys()
        assert deg == {k: _in_degrees(v) if k in ANGLE_KEYS else v for k, v in rad.items()}


OPTIONS = {
    "classify": {"--format"},
    "solve": {"--format", "--degrees"},
    "table": {"--a", "--b", "--format", "--degrees"},
    "grid": {"--resolution", "--format", "--degrees"},
    "check": {"--format"},
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
