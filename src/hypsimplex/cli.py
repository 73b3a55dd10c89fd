"""Command line interface.

Subcommands: classify, solve, table, grid, check.  Output goes to stdout as
JSON lines (default) or CSV; every float is printed with 17 significant
digits and fields keep a fixed order, so the output is diffable.
Diagnostics go to stderr.  Exit codes: 0 solved / all checks pass, 1 no
proper or boundary solution, 2 invalid parameters, 3 diverged, 4 check
failure.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from math import pi

import click
import numpy as np

from . import solver as solver_lib
from .conditions import (
    compute_bmax,
    corner_value,
    edge_conditions_raw,
    edge_jacobian_raw,
    realizability_inequality,
)
from .errors import InvalidClass, InvalidParams
from .matrices import run_minor_identity_suite
from .model import (
    RealizationClass,
    SimplexParams,
    classify_realization,
    normalize_params,
)
from .solver import SolverConfig, SolveStatus

EXIT_SOLVED = 0
EXIT_NO_SOLUTION = 1
EXIT_INVALID_PARAMS = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILURE = 4

_STATUS_EXIT = {
    SolveStatus.SOLVED: EXIT_SOLVED,
    SolveStatus.NO_PROPER_SOLUTION: EXIT_NO_SOLUTION,
    SolveStatus.BOUNDARY_SOLUTION: EXIT_NO_SOLUTION,
    SolveStatus.DIVERGED: EXIT_DIVERGED,
}

_SOLVABLE = (RealizationClass.HYPERBOLIC_OUTER, RealizationClass.NO_PROPER_SOLUTION)


def _token(value, fmt: str, depth: int = 0) -> str:
    """One value as a JSON token or a CSV cell.

    JSON lists print as [..,..]; CSV lists join with ";" at the top level
    and ":" below it.  None prints as null in JSON and as an empty CSV cell.
    """
    as_json = fmt == "json-lines"
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value) if as_json else value
    if isinstance(value, (list, tuple)):
        items = [_token(v, fmt, depth + 1) for v in value]
        if as_json:
            return "[" + ",".join(items) + "]"
        return (":" if depth else ";").join(items)
    raise TypeError(f"unserializable value {value!r}")


def _emit(rows, fmt: str) -> None:
    """Write rows (lists of (key, value) pairs) in the requested format."""
    rows = list(rows)
    if not rows:
        return
    if fmt == "json-lines":
        for row in rows:
            line = "{" + ",".join(f"{json.dumps(k)}:{_token(v, fmt)}" for k, v in row) + "}"
            click.echo(line)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([k for k, _ in rows[0]])
        for row in rows:
            writer.writerow([_token(v, fmt) for _, v in row])
        click.echo(buffer.getvalue(), nl=False)


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _angles_out(value: float | None, degrees: bool) -> float | None:
    if value is None:
        return None
    return value * 180.0 / pi if degrees else value


def _parse_range(text: str, label: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        _fail(f"cannot parse {label} range {text!r}; expected N or LO..HI", EXIT_INVALID_PARAMS)
    if lo > hi:
        _fail(f"empty {label} range {text!r}", EXIT_INVALID_PARAMS)
    return lo, hi


def _solver_options(func):
    defaults = SolverConfig()
    options = [
        click.option("--tol", type=float, default=defaults.tolerance, show_default=True,
                     help="Residual tolerance on both edge conditions."),
        click.option("--angle-tol", type=float, default=defaults.angle_tolerance,
                     show_default=True,
                     help="Newton stops once a step is at most this large."),
        click.option("--max-iter", type=int, default=defaults.max_iterations,
                     show_default=True, help="Newton step budget."),
    ]
    for option in reversed(options):
        func = option(func)
    return func


def _format_option(func):
    return click.option(
        "--format", "fmt", type=click.Choice(["json-lines", "csv"]),
        default="json-lines", show_default=True, help="Output format.",
    )(func)


def _degrees_option(func):
    return click.option(
        "--degrees", is_flag=True, help="Print angles in degrees instead of radians.",
    )(func)


def _make_config(tol, angle_tol, max_iter) -> SolverConfig:
    try:
        return SolverConfig(
            tolerance=tol, angle_tolerance=angle_tol, max_iterations=max_iter
        )
    except ValueError as exc:
        _fail(str(exc), EXIT_INVALID_PARAMS)


def _b_max_field(a: int) -> int | None:
    """Largest admissible second parameter; None for a = 1."""
    return compute_bmax(a) if a >= 2 else None


def _geometry_fields(report) -> list:
    """The determinant, the inertia of the angle matrix, the vertex classes
    and the two verified edge-length pairs, read from the report's
    properness check: all null for a report without angles, and the edge
    lengths null outside their domain (see PropernessReport)."""
    properness = getattr(report, "properness", None)
    if properness is None:
        return [(k, None) for k in ("determinant", "signature", "vertex_classes", "edge_lengths")]
    return [
        ("determinant", properness.determinant),
        ("signature", list(properness.signature.as_tuple())),
        ("vertex_classes", [c.value for c in properness.vertex_classes]),
        ("edge_lengths", properness.edge_lengths),
    ]


def _normalized(a: int, b: int) -> SimplexParams:
    try:
        return normalize_params(a, b)
    except InvalidParams as exc:
        _fail(str(exc), EXIT_INVALID_PARAMS)


@click.group()
def cli() -> None:
    """Realizability and angle solving for a family of hyperbolic simplices."""


@cli.command(name="classify")
@click.argument("a", type=int)
@click.argument("b", type=int)
@_format_option
def cmd_classify(a: int, b: int, fmt: str) -> None:
    """Classify the parameter pair (A, B)."""
    params = _normalized(a, b)
    cls = classify_realization(params)
    lhs = rhs = strict = corner = None
    if params.a >= 2 and params.b > params.a:
        lhs, rhs, strict = realizability_inequality(params)
        corner = corner_value(params)
    _emit(
        [[
            ("a", params.a),
            ("b", params.b),
            ("swapped", params.swapped),
            ("class", cls.value),
            ("inequality_lhs", lhs),
            ("inequality_rhs", rhs),
            ("strict", strict),
            ("corner_value", corner),
            ("b_max", _b_max_field(params.a)),
        ]],
        fmt,
    )


def _report_fields(report, degrees: bool) -> list:
    """Status, the four angles, both residuals and the iterations of a
    solve report; every field is null when there is no report."""
    status = getattr(report, "status", None)
    angles = getattr(report, "angles", None)
    return [
        ("status", status.value if status is not None else None),
        *[(name, _angles_out(getattr(angles, name, None), degrees))
          for name in ("alpha1", "alpha2", "beta1", "beta2")],
        *[(name, getattr(report, name, None))
          for name in ("residual_cond1", "residual_cond2", "iterations")],
    ]


def _solve_row(params: SimplexParams, report, degrees: bool) -> list:
    return [
        ("a", params.a),
        ("b", params.b),
        ("swapped", params.swapped),
        ("class", classify_realization(params).value),
        *_report_fields(report, degrees),
        *_geometry_fields(report),
        ("b_max", _b_max_field(params.a)),
        ("contraction_norm_estimate", report.contraction_norm_estimate),
        *[(f"proper_{name}", getattr(report.properness, name, None))
          for name in ("angles_positive", "determinant_negative", "vertices_outer",
                       "gram_signs", "all_pass")],
        ("improper_roots", [
            [_angles_out(x, degrees), _angles_out(y, degrees)]
            for x, y in report.improper_roots
        ]),
    ]


@cli.command(name="solve")
@click.argument("a", type=int)
@click.argument("b", type=int)
@_solver_options
@_format_option
@_degrees_option
def cmd_solve(a, b, tol, angle_tol, max_iter, fmt, degrees) -> None:
    """Solve the edge-condition system for the pair (A, B)."""
    params = _normalized(a, b)
    config = _make_config(tol, angle_tol, max_iter)
    try:
        report = solver_lib.solve(params, config)
    except (InvalidClass, InvalidParams) as exc:
        _fail(str(exc), EXIT_INVALID_PARAMS)
    _emit([_solve_row(params, report, degrees)], fmt)
    sys.exit(_STATUS_EXIT[report.status])


def _table_row(a: int, b: int, cls: RealizationClass, report, degrees: bool) -> list:
    return [
        ("a", a),
        ("b", b),
        ("class", cls.value),
        *_report_fields(report, degrees),
        *_geometry_fields(report),
        ("b_max", _b_max_field(a)),
    ]


@cli.command(name="table")
@click.option("--a", "a_range", default="2..6", show_default=True,
              help="First parameter, as N or LO..HI.")
@click.option("--b", "b_range", default=None,
              help="Second parameter, as N or LO..HI.")
@click.option("--b-upto", "b_upto", default=None,
              help='Largest second parameter per a: an integer, or "bmax" '
                   "for the admissibility bound (the default).")
@_solver_options
@_format_option
@_degrees_option
def cmd_table(a_range, b_range, b_upto, tol, angle_tol, max_iter, fmt,
              degrees) -> None:
    """Tabulate solved angles over a parameter range."""
    a_lo, a_hi = _parse_range(a_range, "a")
    if a_lo < 1:
        _fail(f"a must be at least 1, got {a_lo}", EXIT_INVALID_PARAMS)
    if b_range is not None and b_upto is not None:
        _fail("--b and --b-upto are mutually exclusive", EXIT_INVALID_PARAMS)
    b_ceiling = None
    if b_upto is not None and b_upto != "bmax":
        try:
            b_ceiling = int(b_upto)
        except ValueError:
            _fail(f'cannot parse --b-upto value {b_upto!r}; expected an '
                  'integer or "bmax"', EXIT_INVALID_PARAMS)
    config = _make_config(tol, angle_tol, max_iter)
    rows = []
    diverged = False
    for a in range(a_lo, a_hi + 1):
        if b_range is not None:
            b_lo, b_hi = _parse_range(b_range, "b")
        elif b_ceiling is not None:
            b_lo, b_hi = a + 1, b_ceiling
        else:
            if a < 2:
                continue
            b_lo, b_hi = a + 1, compute_bmax(a)
        for b in range(b_lo, b_hi + 1):
            if b <= a:
                continue
            params = SimplexParams(a, b)
            cls = classify_realization(params)
            if cls not in _SOLVABLE:
                rows.append(_table_row(a, b, cls, None, degrees))
                continue
            report = solver_lib.solve(params, config)
            if report.status is SolveStatus.DIVERGED:
                diverged = True
            rows.append(_table_row(a, b, cls, report, degrees))
    if not rows:
        _fail("empty parameter range: no pairs with b > a", EXIT_INVALID_PARAMS)
    _emit(rows, fmt)
    sys.exit(EXIT_DIVERGED if diverged else EXIT_SOLVED)


@cli.command(name="grid")
@click.argument("a", type=int)
@click.argument("b", type=int)
@click.option("--resolution", type=int, default=200, show_default=True,
              help="Sample nodes per axis (>= 2; the endpoints are included).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json-lines"]),
              default="csv", show_default=True, help="Output format.")
@_degrees_option
def cmd_grid(a: int, b: int, resolution: int, fmt: str, degrees: bool) -> None:
    """Sample the edge conditions and their derivatives over the domain box."""
    params = _normalized(a, b)
    if resolution < 2:
        _fail(f"resolution must be at least 2 nodes per axis, got {resolution}",
              EXIT_INVALID_PARAMS)
    cls = classify_realization(params)
    if cls not in _SOLVABLE:
        _fail(
            f"grid applies to hyperbolic pairs with outer vertices; "
            f"({params.a}, {params.b}) classifies as {cls.value}",
            EXIT_INVALID_PARAMS,
        )
    box = solver_lib.domain_for(params)
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution)
    axes = (al[:, None], be[None, :], params.a, params.b)
    c1, c2 = edge_conditions_raw(*axes)
    (d1, _), (_, d2) = edge_jacobian_raw(*axes)
    scale = 180.0 / pi if degrees else 1.0
    rows = (
        [
            ("alpha1", float(al[i]) * scale),
            ("beta1", float(be[j]) * scale),
            ("cond1", float(c1[i, j])),
            ("cond2", float(c2[i, j])),
            ("dcond1", float(d1[i, j])),
            ("dcond2", float(d2[i, j])),
        ]
        for i in range(resolution)
        for j in range(resolution)
    )
    _emit(rows, fmt)


@cli.command(name="check")
@click.option("--trials", type=int, default=1000, show_default=True,
              help="Number of random matrix/minor trials.")
@click.option("--seed", type=int, default=42, show_default=True,
              help="Seed for the random matrix and minor draws.")
@click.option("--identity-only", is_flag=True,
              help="Use the identity matrix instead of random draws.")
@_format_option
def cmd_check(trials: int, seed: int, identity_only: bool, fmt: str) -> None:
    """Run the randomized minor-identity verification suite."""
    if trials < 1:
        _fail(f"trials must be at least 1, got {trials}", EXIT_INVALID_PARAMS)
    summary = run_minor_identity_suite(trials, seed, identity_only)
    for note in summary["notes"]:
        click.echo(note, err=True)
    _emit(
        [[(key, summary[key]) for key in (
            "trials", "seed", "identity_only", "passes", "failures",
            "skipped", "worst_relative_gap",
        )]],
        fmt,
    )
    sys.exit(EXIT_SOLVED if summary["failures"] == 0 else EXIT_CHECK_FAILURE)


def main() -> None:
    cli(prog_name="hypsimplex")


if __name__ == "__main__":
    main()
