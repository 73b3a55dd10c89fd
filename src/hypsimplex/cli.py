"""Command line interface.

Subcommands: classify, solve, table, grid, check.  Output goes to stdout as
JSON lines (default) or CSV; every float is printed with 17 significant
digits and fields keep a fixed order, so the output is diffable.  `grid`
and `table` stream their rows: `table` writes each row once its pair is
solved, and `grid` formats its rows from one precompiled template and writes
them a block of one alpha1 node at a time.  Diagnostics go to stderr.  Exit
codes: 0 solved / all checks pass, 1 no proper or boundary solution (or
stdout closed by its reader, which prints nothing), 2 invalid parameters or
a usage error, 3 diverged, 4 check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from math import pi

from . import solver as solver_lib
from .conditions import (
    compute_bmax,
    corner_value,
    edge_system_raw,
    realizability_inequality,
)
from .errors import InvalidClass, InvalidParams
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
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value) if as_json else value
    if isinstance(value, (list, tuple)):
        items = [_token(v, fmt, depth + 1) for v in value]
        if as_json:
            return "[" + ",".join(items) + "]"
        return (":" if depth else ";").join(items)
    raise TypeError(f"unserializable value {value!r}")


def _emit(rows, fmt: str) -> bool:
    """Write rows (lists of (key, value) pairs) in the requested format, each
    as it comes; the keys are read from the first row.  Returns whether any
    row was written."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return False
    keys = [k for k, _ in first]
    if fmt == "json-lines":
        names = [json.dumps(k) + ":" for k in keys]

        def write(row):
            sys.stdout.write(
                "{" + ",".join([n + _token(v, fmt) for n, (_, v) in zip(names, row)]) + "}\n"
            )
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)

        def write(row):
            writer.writerow([_token(v, fmt) for _, v in row])
    write(first)
    for row in rows:
        write(row)
    return True


def _fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
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


def _make_config(max_iter) -> SolverConfig:
    try:
        return SolverConfig(max_iterations=max_iter)
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


def cmd_solve(a, b, max_iter, fmt, degrees) -> None:
    """Solve the edge-condition system for the pair (A, B)."""
    params = _normalized(a, b)
    config = _make_config(max_iter)
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


def cmd_table(a_range, b_range, max_iter, fmt, degrees) -> None:
    """Tabulate solved angles over a parameter range."""
    a_lo, a_hi = _parse_range(a_range, "a")
    if a_lo < 1:
        _fail(f"a must be at least 1, got {a_lo}", EXIT_INVALID_PARAMS)
    config = _make_config(max_iter)
    b_span = None if b_range is None else _parse_range(b_range, "b")
    diverged = False

    def rows():
        nonlocal diverged
        for a in range(a_lo, a_hi + 1):
            if b_span is not None:
                b_lo, b_hi = b_span
            elif a < 2:
                continue
            else:
                b_lo, b_hi = a + 1, compute_bmax(a)
            for b in range(max(b_lo, a + 1), b_hi + 1):
                params = SimplexParams(a, b)
                cls = classify_realization(params)
                report = None
                if cls in solver_lib._SOLVABLE:
                    report = solver_lib.solve(params, config)
                    diverged |= report.status is SolveStatus.DIVERGED
                yield _table_row(a, b, cls, report, degrees)

    if not _emit(rows(), fmt):
        _fail("empty parameter range: no pairs with b > a", EXIT_INVALID_PARAMS)
    sys.exit(EXIT_DIVERGED if diverged else EXIT_SOLVED)


def cmd_grid(a: int, b: int, resolution: int, fmt: str, degrees: bool) -> None:
    """Sample the edge conditions and their derivatives over the domain box."""
    from itertools import repeat

    import numpy as np

    params = _normalized(a, b)
    if resolution < 2:
        _fail(f"resolution must be at least 2 nodes per axis, got {resolution}",
              EXIT_INVALID_PARAMS)
    cls = classify_realization(params)
    if cls not in solver_lib._SOLVABLE:
        _fail(
            f"grid applies to hyperbolic pairs with outer vertices; "
            f"({params.a}, {params.b}) classifies as {cls.value}",
            EXIT_INVALID_PARAMS,
        )
    box = solver_lib.domain_for(params)
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution)
    axes = (al[:, None], be[None, :], params.a, params.b)
    (c1, c2), ((d1, _), (_, d2)) = edge_system_raw(*axes)
    scale = 180.0 / pi if degrees else 1.0
    alpha = [format(x * scale, ".17g") for x in al.tolist()]
    beta = [format(x * scale, ".17g") for x in be.tolist()]
    # Each axis node is formatted once; "%.17g" prints a float as _token does.
    keys = ("alpha1", "beta1", "cond1", "cond2", "dcond1", "dcond2")
    specs = ("%s", "%s", "%.17g", "%.17g", "%.17g", "%.17g")
    write = sys.stdout.write
    if fmt == "json-lines":
        template = "{" + ",".join(f"{json.dumps(k)}:{s}" for k, s in zip(keys, specs)) + "}\n"
    else:
        template = ",".join(specs) + "\n"
        write(",".join(keys) + "\n")
    # One write per block of rows sharing an alpha1 node; taking the samples
    # a block at a time keeps no Python copy of the whole grid.
    for i, a_text in enumerate(alpha):
        block = [c[i].tolist() for c in (c1, c2, d1, d2)]
        write("".join([template % row for row in zip(repeat(a_text), beta, *block)]))


def cmd_check(trials: int, seed: int, identity_only: bool, fmt: str) -> None:
    """Run the randomized minor-identity verification suite."""
    from .matrices import run_minor_identity_suite

    if trials < 1:
        _fail(f"trials must be at least 1, got {trials}", EXIT_INVALID_PARAMS)
    summary = run_minor_identity_suite(trials, seed, identity_only)
    for note in summary["notes"]:
        print(note, file=sys.stderr)
    _emit(
        [[(key, summary[key]) for key in (
            "trials", "seed", "identity_only", "passes", "failures",
            "skipped", "worst_relative_gap",
        )]],
        fmt,
    )
    sys.exit(EXIT_SOLVED if summary["failures"] == 0 else EXIT_CHECK_FAILURE)


def _parser() -> argparse.ArgumentParser:
    """One subparser per command, naming the cmd_* function that runs it; no
    parser accepts an abbreviated option."""
    parser = argparse.ArgumentParser(
        prog="hypsimplex", allow_abbrev=False,
        description="Realizability and angle solving for a family of hyperbolic simplices.",
    )
    commands = parser.add_subparsers(required=True, metavar="COMMAND")
    sub = {}
    for func in (cmd_classify, cmd_solve, cmd_table, cmd_grid, cmd_check):
        name = func.__name__.removeprefix("cmd_")
        sub[name] = commands.add_parser(name, help=func.__doc__, description=func.__doc__,
                                        allow_abbrev=False)
        sub[name].set_defaults(run=func)
    for name in ("classify", "solve", "grid"):
        sub[name].add_argument("a", type=int, metavar="A")
        sub[name].add_argument("b", type=int, metavar="B")
    table, grid, check = sub["table"], sub["grid"], sub["check"]
    table.add_argument("--a", dest="a_range", default="2..6", metavar="RANGE",
                       help="First parameter, as N or LO..HI (default: %(default)s).")
    table.add_argument("--b", dest="b_range", default=None, metavar="RANGE",
                       help="Second parameter, as N or LO..HI; default a+1..b_max.")
    grid.add_argument("--resolution", type=int, default=200, help="Sample nodes per axis "
                      "(>= 2; the endpoints are included; default: %(default)s).")
    check.add_argument("--trials", type=int, default=1000,
                       help="Number of random matrix/minor trials (default: %(default)s).")
    check.add_argument("--seed", type=int, default=42, help="Seed for the random matrix "
                       "and minor draws (default: %(default)s).")
    check.add_argument("--identity-only", action="store_true",
                       help="Use the identity matrix instead of random draws.")
    for name in ("solve", "table"):
        sub[name].add_argument("--max-iter", type=int, default=SolverConfig().max_iterations,
                               help="Newton step budget (default: %(default)s).")
    for command in sub.values():
        choices = ("csv", "json-lines") if command is grid else ("json-lines", "csv")
        command.add_argument("--format", dest="fmt", choices=choices, default=choices[0],
                             help="Output format (default: %(default)s).")
    for name in ("solve", "table", "grid"):
        sub[name].add_argument("--degrees", action="store_true",
                               help="Print angles in degrees instead of radians.")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run the command that argv (default: sys.argv[1:]) names."""
    args = vars(_parser().parse_args(argv))
    run = args.pop("run")
    try:
        try:
            run(**args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (as `| head -1` does): exit 1 with nothing
        # on stderr, and point stdout at devnull so the flush at exit cannot
        # fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
