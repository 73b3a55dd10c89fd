"""Every output of ``tests/fingerprint.py`` matches ``tests/golden/outputs.tsv``.

The script runs in a fresh interpreter, as a user would run it, and its
lines are compared with the file's one by one.  A failure names the keys
whose lines moved.  The values depend on libm and numpy, so the file's first
line records the Python and numpy versions it was made with; where they
differ from this interpreter's the test still compares, and its message
says that the versions differ.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")
GOLDEN = TESTS / "golden" / "outputs.tsv"


def _by_key(lines: list[str]) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in lines)


def test_outputs_match_the_golden_file():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    result = subprocess.run(
        [sys.executable, str(TESTS / "fingerprint.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    (here, *actual), (made, *expected) = result.stdout.splitlines(), GOLDEN.read_text().splitlines()
    versions = "" if here == made else f"; versions differ: golden {made!r}, here {here!r}"
    old, new = _by_key(expected), _by_key(actual)
    moved = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    shown = ", ".join(moved[:40]) + (f" and {len(moved) - 40} more" if len(moved) > 40 else "")
    assert actual == expected, (
        f"{len(moved)} outputs moved: {shown or 'none, but their order changed'}{versions}"
    )
    if versions:
        print(f"outputs match{versions}")
