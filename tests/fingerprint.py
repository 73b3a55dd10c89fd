"""Print one ``key<TAB>value`` line per output of the library and the CLI.

The first line, keyed ``versions``, records the Python and numpy versions
the outputs were made with.  Run from the repository root of two checkouts
and diff the two outputs; the lines that differ are the outputs a change
moved.  ``tests/golden/outputs.tsv`` holds the outputs of the current code,
which ``tests/test_golden.py`` compares with a fresh run; a change that
moves an output writes the file anew:

    PYTHONPATH=src python3 tests/fingerprint.py > tests/golden/outputs.tsv

The outputs are ``repr(solve())`` on every bench/refs.json pair, on
LARGE_A_PAIRS and on the boundary pair (2, 8); ``repr(grid_oracle())`` at
resolution 200 on domain_for's box and at resolution 400 on the full box
[0, pi/a] x [0, pi/b], for every pair with a = 2..20 and
a < b <= b_max + 2; and the exit code and the sha256 of the stdout and of
the stderr of CLI_COMMANDS, run in this process by ``clirun.run_cli`` (or
the exception a command raises); and the ``repr`` of the value types that
the CLI and the solver build: ``SimplexParams``, a swapped one, an
``AngleSlice``, a ``PropernessReport.signature``, the default
``SolverConfig``, a ``MinorSpec`` and the ``ContractionEstimate`` on (3, 7)'s
certificate box; and, for each name of
``hypsimplex.__all__`` in sorted order, the ``__module__`` of the object it
resolves to (the value of ``__version__``).
CLI_COMMANDS reach exit codes 0, 1, 2 and 4, and every path on which the
CLI prints an ``error:`` line and exits 2; none is a usage error, whose
wording comes from the argument parser.  The two grids at resolution 149
span several blocks of alpha1 rows of ``cli.cmd_grid``, the last one
partial.
Newton's step budget is not an option, so none of them reaches exit code 3
(diverged).
"""

from __future__ import annotations

import hashlib
import json
import platform
from collections.abc import Iterator
from math import pi
from pathlib import Path

import numpy
from clirun import run_cli

import hypsimplex
from hypsimplex import (
    AngleSlice,
    DomainBox,
    MinorSpec,
    SimplexParams,
    SolverConfig,
    compute_bmax,
    domain_for,
    estimate_contraction,
    grid_oracle,
    normalize_params,
    solve,
)

REFS_JSON = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
# pi/a and pi/b are not floats from about 2**1024 on, and 12 a^3, which
# Newton's start divides by on b = 2a, from about a = 2.465e102.
_HUGE = f"{2**1024} {2**1024 + 1}"
CLI_COMMANDS = (
    "classify 3 7", "classify 6 3", "solve 2 3", "solve 3 7", "solve 2 8", "solve 2 9",
    "solve 2 2", "solve 0 3", "check 3 7", "check 2 8",
    "solve 3 7 --degrees --format csv", "table", "table --a 5 --b 2..3",
    "table --a 1 --b 2..3", "table --a 2..3 --format csv --degrees",
    "grid 3 7 --resolution 20", "grid 2 2", "grid 2 5 --resolution 7 --format json-lines --degrees",
    "check 2 9", "check 2 2", "check 100000000 200000000", "check 7 12 --format csv",
    f"classify {_HUGE}", f"solve {_HUGE}", f"grid {_HUGE}", f"check {_HUGE}",
    f"table --a {2**1024} --b {2**1024 + 1}", f"solve 3 {2**1024 + 1}",
    "solve 2 3 --degrees", "classify 3 3", "table --a 1..2 --b 2..4 --format csv",
    f"solve {10**103} {2 * 10**103}",
    "grid 5 8 --resolution 149", "grid 2 5 --resolution 149 --format json-lines --degrees",
    "table --a 3..2", "table --a x", "table --a 0", "table --a 2 --b 5..3",
    "grid 3 7 --resolution 1", f"grid 3 7 --resolution {10**20}", "check 0 3", "classify 0 5",
)
# b = 2a, 2a - 1 and 3a/2 at a = 10**3..10**12: the rows where accuracy
# decays toward the corner of the domain box, and their neighbours.
LARGE_A_PAIRS = tuple(
    (a, b) for a in (10**k for k in range(3, 13)) for b in (2 * a, 2 * a - 1, 3 * a // 2)
)


def ref_pairs() -> list[tuple[int, int]]:
    """The (a, b) pairs of bench/refs.json, in file order."""
    return [tuple(map(int, key.split(","))) for key in json.loads(REFS_JSON.read_text())["roots"]]


def oracle_scans() -> Iterator[tuple[str, SimplexParams, int, DomainBox]]:
    """(name, params, resolution, box) of every grid_oracle scan, in print order."""
    for a in range(2, 21):
        for b in range(a + 1, compute_bmax(a) + 3):
            params = SimplexParams(a, b)
            yield f"{a},{b} domain 200", params, 200, domain_for(params)
            yield f"{a},{b} full 400", params, 400, DomainBox(0.0, pi / a, 0.0, pi / b)


def main() -> None:
    print(f"versions\tpython {platform.python_version()} numpy {numpy.__version__}")
    for a, b in (*ref_pairs(), *LARGE_A_PAIRS, (2, 8)):
        print(f"solve {a},{b}\t{solve(SimplexParams(a, b))!r}")
    for name, params, resolution, box in oracle_scans():
        roots = grid_oracle(params, resolution=resolution, box=box)
        print(f"oracle {name}\t{roots!r}")
    for command in CLI_COMMANDS:
        try:
            code, out, err = run_cli(command.split())
        except Exception as exc:  # a shell would see a traceback and exit 1
            print(f"cli {command}\traised {exc!r}")
            continue
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
        print(f"cli {command}\t{code} {' '.join(digests)}")
    report = solve(SimplexParams(3, 7))
    values = {
        "SimplexParams(3, 7)": SimplexParams(3, 7),
        "normalize_params(7, 3)": normalize_params(7, 3),
        "AngleSlice(0.25, 0.1, SimplexParams(4, 9))": AngleSlice(0.25, 0.1, SimplexParams(4, 9)),
        "solve(SimplexParams(3, 7)).properness.signature": report.properness.signature,
        "SolverConfig()": SolverConfig(),
        "MinorSpec.without_vertex(1)": MinorSpec.without_vertex(1),
        "estimate_contraction(SimplexParams(3, 7), solve(SimplexParams(3, 7)).certificate_box)":
            estimate_contraction(SimplexParams(3, 7), report.certificate_box),
    }
    for name, value in values.items():
        print(f"repr {name}\t{value!r}")
    for name in sorted(hypsimplex.__all__):
        value = getattr(hypsimplex, name)
        print(f"api {name}\t{value if name == '__version__' else value.__module__}")


if __name__ == "__main__":
    main()
