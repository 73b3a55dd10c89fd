"""Run the ``hypsimplex`` command line in this process and capture what a
shell would see:

    from clirun import run_cli
    result = run_cli(["solve", 3, 7])  # result.exit_code, .stdout, .stderr

``run_cli`` sets ``sys.argv``, sends stdout and stderr to strings, calls
``hypsimplex.cli.main()`` and turns a ``SystemExit`` into the exit code the
shell would read.  It needs only the standard library, and ``main()`` takes
its arguments from ``sys.argv`` in every version of the CLI, so the same
call runs the CLI of any checkout (``tests/fingerprint.py`` relies on it).
"""

from __future__ import annotations

import contextlib
import io
import sys
from typing import NamedTuple

import hypsimplex.cli


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(args) -> CliResult:
    """Run ``hypsimplex ARGS``; each argument is passed as ``str(arg)``."""
    out, err = io.StringIO(), io.StringIO()
    argv, sys.argv = sys.argv, ["hypsimplex", *map(str, args)]
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            hypsimplex.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.argv = argv
    return CliResult(code, out.getvalue(), err.getvalue())
