"""numpy is loaded only where an array or a general 4x4 matrix exists, the
solver only where a pair is solved, ``dataclasses`` (and the ``inspect`` it
imports) only with the solver or the matrix path, and the CLI never loads
click.

Each case runs in a fresh interpreter, so the modules loaded by the rest of
the suite do not hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli(*args: str) -> str:
    return (
        f"sys.argv = ['hypsimplex', *{list(args)!r}]\n"
        "import hypsimplex.cli\n"
        "try:\n"
        "    hypsimplex.cli.main()\n"
        "except SystemExit:\n"
        "    pass\n"
    )


def _loads(code: str, module: str = "numpy") -> bool:
    """Whether ``code`` leaves ``module`` in ``sys.modules``, read from the
    last line the child prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    script = f"import sys\n{code}\nprint({module!r} in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("code", [
    "import hypsimplex",
    "import hypsimplex.cli",
    "from hypsimplex import SimplexParams, solve\nsolve(SimplexParams(3, 7))",
    "from hypsimplex import SimplexParams, solve\nsolve(SimplexParams(2, 3))",
    _cli("classify", "3", "7"),
    _cli("solve", "3", "7"),
    _cli("solve", "2", "3"),
    _cli("table"),
], ids=["import", "import-cli", "solve", "solve-2-3", "cli-classify", "cli-solve",
        "cli-solve-2-3", "cli-table"])
def test_scalar_paths_do_not_load_numpy(code):
    assert not _loads(code)


@pytest.mark.parametrize("code", [
    _cli("grid", "2", "4", "--resolution", "4"),
    "import hypsimplex\nhypsimplex.SymMatrix4",
], ids=["cli-grid", "matrix-name"])
def test_array_paths_load_numpy(code):
    assert _loads(code)


@pytest.mark.parametrize("code", [
    "import hypsimplex.cli",
    _cli("classify", "3", "7"),
    _cli("solve", "3", "7"),
    _cli("table"),
], ids=["import-cli", "cli-classify", "cli-solve", "cli-table"])
def test_cli_does_not_load_click(code):
    assert not _loads(code, "click")


@pytest.mark.parametrize("code", [
    "import hypsimplex",
    "import hypsimplex.cli",
    _cli("classify", "3", "7"),
], ids=["import", "import-cli", "cli-classify"])
def test_classifying_does_not_load_the_solver(code):
    assert not _loads(code, "hypsimplex.solver")


@pytest.mark.parametrize("code", [
    _cli("solve", "3", "7"),
    _cli("table", "--a", "3"),
    _cli("grid", "2", "4", "--resolution", "4"),
    _cli("check", "3", "7"),
    "import hypsimplex\nhypsimplex.solve",
], ids=["cli-solve", "cli-table", "cli-grid", "cli-check", "solver-name"])
def test_solving_loads_the_solver(code):
    assert _loads(code, "hypsimplex.solver")


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
@pytest.mark.parametrize("code", [
    "import hypsimplex",
    "import hypsimplex.cli",
    _cli("classify", "3", "7"),
], ids=["import", "import-cli", "cli-classify"])
def test_classifying_does_not_load_dataclasses(code, module):
    assert not _loads(code, module)


def test_solving_loads_dataclasses():
    assert _loads(_cli("solve", "3", "7"), "dataclasses")
