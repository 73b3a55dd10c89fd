"""The benchmark's three workloads: their operations, how an operation runs,
and how its output is checked against the committed 50-digit references.

family  one ``solve()`` per operation: every admissible pair with a = 2..12
        (the batch tabulation) plus seed-drawn b-sweeps at a = 40, 80, 200
        that always include b_max, where the known large-a defects live.
oracle  one ``grid_oracle`` scan per operation: resolution 200 on
        ``domain_for(params)`` for one seed-drawn b per a = 2..20 plus
        (2, 3), and resolution 400 on the full box for (2, 3) and the pairs
        with even a.  It bypasses the fixed point and the certificate.
cli     one cold ``python -m hypsimplex.cli`` child per operation, run one at
        a time: classify, solve and grid on seed-drawn pairs, and
        ``table --a 2..3``.

Each workload is a closed loop with one caller.  Operations come in passes
of fixed composition; the seed draws the pairs of each pass and its order.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from math import pi
from pathlib import Path

import hypsimplex as hs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFS_PATH = BENCH / "refs.json"

# An angle fails when it is off by more than ABS_TOL, or by more than
# REL_TOL of the reference value.
ABS_TOL = 1e-9
REL_TOL = 1e-6

FAMILY_SMALL_A = range(2, 13)
FAMILY_SWEEP_A = (40, 80, 200)
SWEEP_STRATA = 5
ORACLE_A = range(2, 21)
DOMAIN_SCAN = (200, "domain")
FULL_SCAN = (400, "full")
# Commands per pass.  grid is the slow, output-heavy command and must fill
# the top tenth of latencies, so table (slower still) stays below a tenth;
# classify, the fastest, is over half, so the median is a classify latency
# and not the edge between two commands.
CLI_MIX = (("classify", 17), ("solve", 7), ("grid", 3), ("table", 1))
CLI_TABLE_ARGS = ("table", "--a", "2..3")
GRID_RESOLUTION = 200
EXIT_OK = 0


class WrongTrueRoot(RuntimeError):
    """A wrong answer on one of the 27 TRUE_ROOTS pairs: the run aborts."""


@dataclass(frozen=True)
class Op:
    kind: str
    a: int
    b: int
    detail: tuple = ()


@dataclass(frozen=True)
class Outcome:
    """Check result of one operation: a failure reason or None, and the
    largest absolute angle error against the references (None if the
    operation yields no angles)."""

    failure: str | None
    err: float | None


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes


class References:
    def __init__(self, data: dict) -> None:
        self.roots = {
            tuple(int(v) for v in key.split(",")): (float(x), float(y))
            for key, (x, y) in data["roots"].items()
        }
        self.bmax = {int(a): int(b) for a, b in data["b_max"].items()}
        self.true_pairs = {tuple(p) for p in data["true_roots_pairs"]}
        self.improper_23 = tuple(float(v) for v in data["improper_2_3"])

    @classmethod
    def load(cls, path: Path = REFS_PATH) -> "References":
        return cls(json.loads(path.read_text()))


def angle_error(got: tuple[float, float], ref: tuple[float, float]) -> tuple[float, bool]:
    """Largest absolute error of (alpha1, beta1) and whether it fails."""
    errs = [abs(g - r) for g, r in zip(got, ref)]
    bad = any(e > ABS_TOL or e > REL_TOL * abs(r) for e, r in zip(errs, ref))
    return max(errs), bad


# ---------------------------------------------------------------- passes

def stratified(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One uniform draw from each of k contiguous, near-equal strata of
    [lo, hi], so every pass covers the whole range the same way."""
    n = hi - lo + 1
    edges = [lo + (n * i) // k for i in range(k + 1)]
    return [rng.randrange(edges[i], edges[i + 1]) for i in range(k) if edges[i] < edges[i + 1]]


def small_family_pairs(refs: References) -> list[tuple[int, int]]:
    return [(a, b) for a in FAMILY_SMALL_A for b in range(a + 1, refs.bmax[a] + 1)]


def family_pass(refs: References, rng: random.Random) -> list[Op]:
    ops = [Op("solve", a, b) for a, b in small_family_pairs(refs)]
    for a in FAMILY_SWEEP_A:
        bmax = refs.bmax[a]
        ops += [Op("solve", a, b) for b in stratified(rng, a + 1, bmax - 1, SWEEP_STRATA)]
        ops.append(Op("solve", a, bmax))
    rng.shuffle(ops)
    return ops


def oracle_pass(refs: References, rng: random.Random) -> list[Op]:
    """A domain scan of every pair, a full-box scan of (2, 3) and of the
    pairs with even a: 20 fast and 10 slow scans, so the median lies inside
    the fast group and the 90th percentile inside the slow one."""
    pairs = [(2, 3), (2, rng.randint(4, refs.bmax[2]))]
    pairs += [(a, rng.randint(a + 1, refs.bmax[a])) for a in ORACLE_A if a > 2]
    ops = [Op("oracle", a, b, DOMAIN_SCAN) for a, b in pairs]
    ops += [Op("oracle", a, b, FULL_SCAN) for a, b in pairs[:1] + pairs[2:] if a % 2 == 0]
    rng.shuffle(ops)
    return ops


def cli_pass(refs: References, rng: random.Random) -> list[Op]:
    pairs = small_family_pairs(refs)
    ops = []
    for command, count in CLI_MIX:
        for _ in range(count):
            if command == "table":
                ops.append(Op("cli", 0, 0, CLI_TABLE_ARGS))
            else:
                a, b = rng.choice(pairs)
                ops.append(Op("cli", a, b, (command, str(a), str(b))))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- execution

def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_solve(op: Op):
    return hs.solve(hs.SimplexParams(op.a, op.b))


def run_oracle(op: Op):
    resolution, where = op.detail
    params = hs.SimplexParams(op.a, op.b)
    if where == "domain":
        return hs.grid_oracle(params, resolution=resolution)
    box = hs.DomainBox(0.0, pi / op.a, 0.0, pi / op.b)
    return hs.grid_oracle(params, resolution=resolution, box=box)


class Spawner:
    """Client of bench/spawner.py, which starts the CLI children (see there
    for why) and times each one."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv: list[str]) -> tuple[CliResult, float]:
        self._proc.stdin.write(json.dumps(argv).encode() + b"\n")
        self._proc.stdin.flush()
        header = self._proc.stdout.readline()
        if not header:
            raise RuntimeError("the spawner exited")
        info = json.loads(header)
        stdout = self._proc.stdout.read(info["bytes"])
        return CliResult(info["returncode"], stdout), info["seconds"]

    def close(self) -> float:
        """Stop the spawner; returns the peak resident set of its children."""
        try:
            self._proc.stdin.write(b"\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        finally:
            self._proc.stdin.close()
            self._proc.stdout.close()
            self._proc.wait()
        return json.loads(line)["max_rss_mb"]


def cli_argv(op: Op, prefix: list[str] | None = None) -> list[str]:
    """Argv of one cold CLI child; prefix replaces ``-m hypsimplex.cli``
    (the traced run passes the shim there)."""
    return [sys.executable, *(prefix or ["-m", "hypsimplex.cli"]), *op.detail]


IN_PROCESS = {"solve": run_solve, "oracle": run_oracle}


def timed(op: Op):
    """Run one in-process operation; returns (result, seconds)."""
    fn = IN_PROCESS[op.kind]
    t0 = time.perf_counter()
    result = fn(op)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------- checks

def _family_verdict(a: int, b: int, status_ok: bool, alpha1, beta1,
                    extra: str | None, refs: References) -> Outcome:
    """Angle and status test shared by library solves and CLI rows."""
    true_row = (a, b) in refs.true_pairs
    if not status_ok or alpha1 is None or beta1 is None:
        if true_row:
            raise WrongTrueRoot(f"({a}, {b}) has no solved angles")
        return Outcome("not solved", None)
    err, bad = angle_error((alpha1, beta1), refs.roots[(a, b)])
    if bad:
        if true_row:
            raise WrongTrueRoot(f"({a}, {b}) is off its reference root by {err:.3g}")
        return Outcome("angle error", err)
    return Outcome(extra, err)


def _verification_problem(all_pass, bound) -> str | None:
    if all_pass is not True:
        return "properness failed"
    if bound is None or not bound < 1.0:
        return "no contraction certificate"
    return None


def check_solve(op: Op, report, refs: References) -> Outcome:
    angles = report.angles
    return _family_verdict(
        op.a, op.b, report.status is hs.SolveStatus.SOLVED,
        angles.alpha1 if angles else None, angles.beta1 if angles else None,
        _verification_problem(
            report.properness.all_pass if report.properness else None,
            report.contraction_norm_estimate,
        ),
        refs,
    )


def _nearest(roots, ref) -> tuple[float, bool]:
    best = (float("inf"), True)
    for r in roots:
        best = min(best, angle_error((r.alpha1, r.beta1), ref))
    return best


def check_oracle(op: Op, roots, refs: References) -> Outcome:
    err, bad = _nearest(roots, refs.roots[(op.a, op.b)])
    if bad:
        return Outcome("proper root missing", None if err == float("inf") else err)
    if (op.a, op.b) == (2, 3) and op.detail[1] == "full":
        ierr, ibad = _nearest(roots, refs.improper_23)
        if ibad:
            return Outcome("improper root of (2, 3) missing", err)
        err = max(err, ierr)
    return Outcome(None, err)


def _json_rows(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.decode().splitlines() if line.strip()]


def _check_solve_row(row: dict, refs: References, full: bool) -> Outcome:
    """A solve row (full) or a table row, which has no verification fields."""
    extra = None
    if full:
        extra = _verification_problem(row["proper_all_pass"], row["contraction_norm_estimate"])
    return _family_verdict(
        row["a"], row["b"], row["status"] == "Solved",
        row["alpha1"], row["beta1"], extra, refs,
    )


def _check_grid(stdout: bytes) -> Outcome:
    reader = csv.reader(io.StringIO(stdout.decode()))
    header = next(reader)
    if header != ["alpha1", "beta1", "cond1", "cond2", "dcond1", "dcond2"]:
        return Outcome("unexpected grid header", None)
    rows = 0
    for row in reader:
        if len(row) != 6:
            return Outcome("short grid row", None)
        [float(v) for v in row]
        rows += 1
    if rows != GRID_RESOLUTION ** 2:
        return Outcome(f"grid has {rows} rows", None)
    return Outcome(None, None)


def check_cli(op: Op, result: CliResult, refs: References) -> Outcome:
    if result.returncode != EXIT_OK:
        return Outcome(f"exit code {result.returncode}", None)
    command = op.detail[0]
    try:
        if command == "grid":
            return _check_grid(result.stdout)
        rows = _json_rows(result.stdout)
        if command == "classify":
            (row,) = rows
            if (row["a"], row["b"], row["class"], row["b_max"]) != (
                op.a, op.b, "HyperbolicOuter", refs.bmax[op.a]
            ):
                return Outcome("wrong classification", None)
            return Outcome(None, None)
        if command == "solve":
            (row,) = rows
            if (row["a"], row["b"]) != (op.a, op.b):
                return Outcome("row for another pair", None)
            return _check_solve_row(row, refs, full=True)
        # table --a 2..3: every admissible pair with a in 2..3, in order.
        expected = [(a, b) for a in (2, 3) for b in range(a + 1, refs.bmax[a] + 1)]
        if [(r["a"], r["b"]) for r in rows] != expected:
            return Outcome("table rows do not match the pair range", None)
        outcomes = [_check_solve_row(r, refs, full=False) for r in rows]
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return Outcome(f"unparsable output ({type(exc).__name__})", None)
    errs = [o.err for o in outcomes if o.err is not None]
    failure = next((o.failure for o in outcomes if o.failure), None)
    return Outcome(failure, max(errs) if errs else None)


CHECK = {"solve": check_solve, "oracle": check_oracle, "cli": check_cli}


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: object
    setup_module: str
    in_process: bool


WORKLOADS = {
    "family": Workload("family", family_pass, "hypsimplex", True),
    "oracle": Workload("oracle", oracle_pass, "hypsimplex", True),
    "cli": Workload("cli", cli_pass, "hypsimplex.cli", False),
}


def warm(workload: Workload, spawner: Spawner | None) -> None:
    """Fill caches and lazy state once before timing."""
    if workload.name == "family":
        run_solve(Op("solve", 3, 4))
    elif workload.name == "oracle":
        run_oracle(Op("oracle", 3, 4, (50, "domain")))
    else:
        spawner.run(cli_argv(Op("cli", 3, 4, ("classify", "3", "4"))))
