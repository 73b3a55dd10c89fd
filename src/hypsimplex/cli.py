"""Command line interface.

Subcommands: classify, solve, table, grid, check.  Output goes to stdout as
JSON lines (default) or CSV; every float is printed with 17 significant
digits and fields keep a fixed order, so the output is diffable.  `table`
and `check` rows are projections of the one `solve` record (`_record`).
Every command writes its lines from one %-template (`_template`), and
`grid` and `table` stream them: `table` writes each row once its pair is
solved, and `grid` computes its samples one block of alpha1 node rows at a
time, so its peak memory does not grow with resolution², and writes one
alpha1 node at a time.  `--degrees` converts every angle with math.degrees.
Diagnostics go to stderr: every invalid input raises InvalidParams or
InvalidClass, which `main` prints as one `error:` line before exiting 2.
Exit codes: 0 solved, 1 no proper or boundary solution (or stdout closed by
its reader, which prints nothing), 2 invalid parameters or a usage error, 3
diverged (Newton, whose step budget is not an option, ended without a root
inside the box), 4 a check failure: `check` found a solved row improper, or
the 4x4 matrix path disagreeing with its verdict.  Otherwise `check` exits
as `solve` does.

Only the commands that solve (`solve`, `table`, `check`) load the solver,
and only `grid` and `check` load numpy: `classify` loads neither, and
`grid`, which samples the conditions on `conditions.domain_for`'s box,
numpy alone.  No command loads `dataclasses` or `csv`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import suppress
from itertools import chain, repeat

from .conditions import (
    compute_bmax,
    corner_value,
    domain_for,
    edge_system_raw,
    realizability_inequality,
)
from .errors import AmbiguousSignature, InvalidClass, InvalidParams, SingularMatrix
from .model import (
    _SOLVABLE,
    SimplexParams,
    build_coxeter_schlafli,
    classify_realization,
    classify_vertex,
    gram_sign_check,
    normalize_params,
)

EXIT_SOLVED = 0
EXIT_NO_SOLUTION = 1
EXIT_INVALID_PARAMS = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILURE = 4

# Keyed by SolveStatus member name, so that the CLI loads the solver only in
# the commands that solve.
_STATUS_EXIT = {
    "SOLVED": EXIT_SOLVED,
    "NO_PROPER_SOLUTION": EXIT_NO_SOLUTION,
    "BOUNDARY_SOLUTION": EXIT_NO_SOLUTION,
    "DIVERGED": EXIT_DIVERGED,
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


def _template(keys, fmt: str, specs=None) -> str:
    """The %-template of one output line with the fields KEYS, each filled
    by its spec in SPECS ("%s", a ready token, by default).  In CSV the
    header line is written first."""
    specs = specs or ["%s"] * len(keys)
    if fmt == "json-lines":
        return "{" + ",".join(f"{json.dumps(k)}:{s}" for k, s in zip(keys, specs)) + "}\n"
    sys.stdout.write(",".join(keys) + "\n")
    return ",".join(specs) + "\n"


def _emit(rows, fmt: str) -> bool:
    """Write rows (dicts with the first row's keys, in its order) in the
    requested format, each as it comes.  Returns whether any row was
    written."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return False
    template = _template(first, fmt)
    for row in chain([first], rows):
        sys.stdout.write(template % tuple([_token(v, fmt) for v in row.values()]))
    return True


def _parse_range(text: str, label: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InvalidParams(f"cannot parse {label} range {text!r}; expected N or LO..HI") from None
    if lo > hi:
        raise InvalidParams(f"empty {label} range {text!r}")
    return lo, hi


# The head of every record but grid's.
_PREFIX = ("a", "b", "swapped", "class")
_ANGLES = ("alpha1", "alpha2", "beta1", "beta2")
_FLAGS = ("angles_positive", "determinant_negative", "vertices_outer", "gram_signs", "all_pass")
_SOLVE_KEYS = (
    *_PREFIX, "status", *_ANGLES, "residual_cond1", "residual_cond2", "iterations",
    "determinant", "signature", "vertex_classes", "edge_lengths", "b_max",
    "contraction_norm_estimate", *[f"proper_{name}" for name in _FLAGS], "improper_roots",
)
# A table row is the solve record without "swapped", cut after "b_max"; a
# check row starts with these fields of it.
_TABLE_KEYS = [k for k in _SOLVE_KEYS[:_SOLVE_KEYS.index("b_max") + 1] if k != "swapped"]
_CHECK_KEYS = (*_PREFIX, "status", "proper_all_pass")


def _angle_unit(degrees: bool):
    """The conversion of a radian float that `--degrees` selects:
    math.degrees, or float, which returns the float as it is."""
    return math.degrees if degrees else float


def _record(params: SimplexParams, report, degrees: bool = False) -> dict:
    """The solve record of a pair, with the fields of _SOLVE_KEYS.  Without a
    report every report field is null; without angles or a properness check,
    the fields read from them are null (see PropernessReport)."""
    record = dict.fromkeys(_SOLVE_KEYS)
    record.update({"a": params.a, "b": params.b, "swapped": params.swapped,
                   "class": classify_realization(params).value,
                   "b_max": compute_bmax(params.a) if params.a >= 2 else None})
    if report is None:
        return record
    out = _angle_unit(degrees)
    record.update(
        status=report.status.value, residual_cond1=report.residual_cond1,
        residual_cond2=report.residual_cond2, iterations=report.iterations,
        contraction_norm_estimate=report.contraction_norm_estimate,
        improper_roots=[[out(x), out(y)] for x, y in report.improper_roots],
    )
    if report.angles is not None:
        record.update(zip(_ANGLES, map(out, report.angles.as_tuple())))
    properness = report.properness
    if properness is not None:
        record.update(
            determinant=properness.determinant,
            signature=list(properness.signature.as_tuple()),
            vertex_classes=[c.value for c in properness.vertex_classes],
            edge_lengths=properness.edge_lengths,
            **{f"proper_{name}": getattr(properness, name) for name in _FLAGS},
        )
    return record


def cmd_classify(a: int, b: int, fmt: str) -> None:
    """Classify the parameter pair (A, B)."""
    params = normalize_params(a, b)
    record = _record(params, None)
    lhs = rhs = strict = corner = None
    if params.a >= 2 and params.b > params.a:
        strict = params.b <= record["b_max"]
        with suppress(InvalidParams):  # pi/a or pi/b is not a float
            lhs, rhs, _ = realizability_inequality(params)
            corner = corner_value(params)
    _emit([{**{k: record[k] for k in _PREFIX}, "inequality_lhs": lhs, "inequality_rhs": rhs,
            "strict": strict, "corner_value": corner, "b_max": record["b_max"]}], fmt)


def cmd_solve(a, b, fmt, degrees) -> None:
    """Solve the edge-condition system for the pair (A, B)."""
    from .solver import solve

    params = normalize_params(a, b)
    report = solve(params)
    _emit([_record(params, report, degrees)], fmt)
    sys.exit(_STATUS_EXIT[report.status.name])


def cmd_table(a_range, b_range, fmt, degrees) -> None:
    """Tabulate solved angles over a parameter range."""
    from .solver import SolveStatus, solve

    a_lo, a_hi = _parse_range(a_range, "a")
    if a_lo < 1:
        raise InvalidParams(f"a must be at least 1, got {a_lo}")
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
                report = None
                if classify_realization(params) in _SOLVABLE:
                    report = solve(params)
                    diverged |= report.status is SolveStatus.DIVERGED
                record = _record(params, report, degrees)
                yield {k: record[k] for k in _TABLE_KEYS}

    if not _emit(rows(), fmt):
        raise InvalidParams("empty parameter range: no pairs with b > a")
    sys.exit(EXIT_DIVERGED if diverged else EXIT_SOLVED)


# cmd_grid evaluates max(1, _GRID_BLOCK_NODES // resolution) alpha1 node
# rows at a time.  A block keeps about 30 float64 temporaries of the kernel
# alive, plus four Python float lists.  Measured on `grid 5 8` (resolution
# 200, 2-core host, Python 3.11, numpy 2.4): budgets of one row, 512, 1024,
# 2048, 4096 and 12288 nodes gave a peak RSS of 28.4, 28.5, 28.8, 29.2,
# 30.1 and 34.0 MB, against 33.0 MB for the whole grid at once.  From 1024
# nodes up cmd_grid ran in-process as fast as on the whole grid (about 85
# ms); one row per block was 10-80% slower.  At 1024 nodes resolutions 1000
# and 2000 peak at 29.2 and 30.3 MB, against 135.7 and 456.3 MB.
_GRID_BLOCK_NODES = 1024


def cmd_grid(a: int, b: int, resolution: int, fmt: str, degrees: bool) -> None:
    """Sample the edge conditions and their derivatives over the domain box."""
    import numpy as np

    params = normalize_params(a, b)
    if resolution < 2:
        raise InvalidParams(f"resolution must be at least 2 nodes per axis, got {resolution}")
    cls = classify_realization(params)
    if cls not in _SOLVABLE:
        raise InvalidClass(f"grid applies to hyperbolic pairs with outer vertices; "
                           f"({params.a}, {params.b}) classifies as {cls.value}")
    box = domain_for(params)
    try:
        al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution)
        be = np.linspace(box.beta1_lo, box.beta1_hi, resolution)
    except (MemoryError, ValueError, IndexError):
        # MemoryError: the axes do not fit; ValueError, IndexError: numpy cannot size them.
        raise InvalidParams(f"resolution {resolution} is too large to allocate") from None
    unit = _angle_unit(degrees)
    alpha = [format(unit(x), ".17g") for x in al.tolist()]
    beta = [format(unit(x), ".17g") for x in be.tolist()]
    # Each axis node is formatted once; "%.17g" prints a float as _token does.
    template = _template(("alpha1", "beta1", "cond1", "cond2", "dcond1", "dcond2"), fmt,
                         ["%s", "%s", *["%.17g"] * 4])
    write = sys.stdout.write
    # The kernel runs on one block of alpha1 node rows at a time, so neither
    # its arrays nor their Python copies ever hold the whole grid; the
    # arithmetic is elementwise, so a node's bits do not depend on its block.
    # One write per alpha1 node.
    step = max(1, _GRID_BLOCK_NODES // resolution)
    for i in range(0, resolution, step):
        (c1, c2), ((d1, _), (_, d2)) = edge_system_raw(
            al[i:i + step, None], be[None, :], params.a, params.b)
        block = [c.tolist() for c in (c1, c2, d1, d2)]
        for a_text, *samples in zip(alpha[i:i + step], *block):
            write("".join([template % row for row in zip(repeat(a_text), beta, *samples)]))


def _matrix_verdict(angles) -> tuple | None:
    """check_properness's verdict recomputed on the general 4x4 path:
    (determinant_negative, vertex_classes, gram_signs, signature), or None
    when a vertex has an inertia of no vertex type."""
    from . import matrices

    matrix = build_coxeter_schlafli(angles)
    negative = matrices.determinant(matrix) < 0.0
    try:
        gram_signs = negative and gram_sign_check(matrices.inverse(matrix))
    except SingularMatrix:
        gram_signs = False
    try:
        classes = tuple(classify_vertex(matrix, i) for i in range(4))
    except AmbiguousSignature:
        return None
    return negative, classes, gram_signs, matrices.signature(matrix)


def cmd_check(a: int, b: int, fmt: str) -> None:
    """Solve the pair (A, B) and check the answer: the relative gaps between
    the edge lengths each condition makes equal, and whether the 4x4 matrix
    path reaches the same verdict."""
    from .solver import solve

    params = normalize_params(a, b)
    report = solve(params)
    record = _record(params, report)
    properness = report.properness
    gaps = agrees = None
    if properness is not None:
        if properness.edge_lengths is not None:
            gaps = [abs(p - q) / max(abs(p), abs(q)) if p != q else 0.0
                    for p, q in properness.edge_lengths]
        agrees = _matrix_verdict(report.angles) == (
            properness.determinant_negative, properness.vertex_classes,
            properness.gram_signs, properness.signature,
        )
    row = {k: record[k] for k in _CHECK_KEYS}
    _emit([{**row, "length_gaps": gaps, "matrix_agrees": agrees}], fmt)
    code = _STATUS_EXIT[report.status.name]
    failed = agrees is False or (code == EXIT_SOLVED and not row["proper_all_pass"])
    sys.exit(EXIT_CHECK_FAILURE if failed else code)


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
    for name in ("classify", "solve", "grid", "check"):
        sub[name].add_argument("a", type=int, metavar="A")
        sub[name].add_argument("b", type=int, metavar="B")
    table, grid = sub["table"], sub["grid"]
    table.add_argument("--a", dest="a_range", default="2..6", metavar="RANGE",
                       help="First parameter, as N or LO..HI (default: %(default)s).")
    table.add_argument("--b", dest="b_range", default=None, metavar="RANGE",
                       help="Second parameter, as N or LO..HI; default a+1..b_max.")
    grid.add_argument("--resolution", type=int, default=200, help="Sample nodes per axis "
                      "(>= 2; the endpoints are included; default: %(default)s).")
    for command in sub.values():
        choices = ("csv", "json-lines") if command is grid else ("json-lines", "csv")
        command.add_argument("--format", dest="fmt", choices=choices, default=choices[0],
                             help="Output format (default: %(default)s).")
    for name in ("solve", "table", "grid"):
        sub[name].add_argument("--degrees", action="store_true",
                               help="Print angles in degrees instead of radians.")
    return parser


def main() -> None:
    """Run the command that sys.argv names."""
    args = vars(_parser().parse_args())
    run = args.pop("run")
    try:
        try:
            run(**args)
        finally:
            sys.stdout.flush()
    except (InvalidParams, InvalidClass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INVALID_PARAMS)
    except BrokenPipeError:
        # The reader closed stdout (as `| head -1` does): exit 1 with nothing
        # on stderr, and point stdout at devnull so the flush at exit cannot
        # fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
