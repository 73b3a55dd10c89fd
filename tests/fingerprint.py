"""Print one ``key<TAB>value`` line per output of the library and the CLI.

Run from the repository root of two checkouts and diff the two outputs; the
lines that differ are the outputs a change moved:

    PYTHONPATH=src python3 tests/fingerprint.py > outputs.tsv

The outputs are ``repr(solve())`` on every bench/refs.json pair, on
LARGE_A_PAIRS and on the boundary pair (2, 8); ``repr(grid_oracle())`` at
resolution 200 on domain_for's box and at resolution 400 on the full box
[0, pi/a] x [0, pi/b], for every pair with a = 2..20 and
a < b <= b_max + 2; and the exit code and the sha256 of the stdout and of
the stderr of CLI_COMMANDS, run in this process by ``clirun.run_cli``.
CLI_COMMANDS reach exit codes 0 to 3 and several ``error:`` lines; none is
a usage error, whose wording comes from the argument parser.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from math import pi
from pathlib import Path

from clirun import run_cli

from hypsimplex import DomainBox, SimplexParams, compute_bmax, domain_for, grid_oracle, solve

REFS_JSON = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
CLI_COMMANDS = (
    "classify 3 7", "classify 6 3", "solve 2 3", "solve 3 7", "solve 2 8", "solve 2 9",
    "solve 2 2", "solve 0 3", "solve 2 4 --max-iter 0", "solve 2 4 --max-iter 1",
    "solve 3 7 --degrees --format csv", "table", "table --a 5 --b 2..3",
    "table --a 1 --b 2..3", "table --a 2..3 --format csv --degrees",
    "grid 3 7 --resolution 20", "grid 2 2", "grid 2 5 --resolution 7 --format json-lines --degrees",
    "check --trials 20 --seed 3", "check --trials 20 --seed 3 --format csv",
    "check --trials 1 --identity-only",
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
    for a, b in (*ref_pairs(), *LARGE_A_PAIRS, (2, 8)):
        print(f"solve {a},{b}\t{solve(SimplexParams(a, b))!r}")
    for name, params, resolution, box in oracle_scans():
        roots = grid_oracle(params, resolution=resolution, box=box)
        print(f"oracle {name}\t{roots!r}")
    for command in CLI_COMMANDS:
        code, out, err = run_cli(command.split())
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
        print(f"cli {command}\t{code} {' '.join(digests)}")


if __name__ == "__main__":
    main()
