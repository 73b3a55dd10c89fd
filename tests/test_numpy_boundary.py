"""``import hypsimplex`` loads no submodule, and reading a public name loads
only its defining module and that module's imports.  numpy is loaded only
where an array or a general 4x4 matrix exists, the solver only where a pair
is solved (``hypsimplex grid`` samples the conditions and loads no
solver), neither any module nor any command loads ``dataclasses`` or
click, and no command loads ``csv``.

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


def _modules(code: str) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter, read from the last line the child prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    script = f"import sys\n{code}\nprint(' '.join(sys.modules))\n"
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.splitlines()[-1].split())


def _loads(code: str, module: str = "numpy") -> bool:
    """Whether ``code`` leaves ``module`` in ``sys.modules``."""
    return module in _modules(code)


def test_import_loads_no_submodule():
    assert {m for m in _modules("import hypsimplex") if m.startswith("hypsimplex.")} == set()


@pytest.mark.parametrize("name, loaded, not_loaded", [
    ("InvalidParams", {"hypsimplex.errors"}, {"hypsimplex.model"}),
    ("SimplexParams", {"hypsimplex.model"}, {"hypsimplex.conditions"}),
    ("compute_bmax", {"hypsimplex.conditions"}, {"hypsimplex.solver", "numpy"}),
], ids=["InvalidParams", "SimplexParams", "compute_bmax"])
def test_a_name_loads_only_its_module(name, loaded, not_loaded):
    modules = _modules(f"import hypsimplex\nhypsimplex.{name}")
    assert loaded <= modules
    assert not_loaded & modules == set()


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
    _cli("check", "3", "7"),
    "import hypsimplex\nhypsimplex.solve",
], ids=["cli-solve", "cli-table", "cli-check", "solver-name"])
def test_solving_loads_the_solver(code):
    assert _loads(code, "hypsimplex.solver")


# Not inspect: numpy itself imports it.
@pytest.mark.parametrize("module", ["hypsimplex.solver", "dataclasses"])
def test_sampling_the_grid_loads_no_solver(module):
    assert not _loads(_cli("grid", "2", "4", "--resolution", "4"), module)


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
@pytest.mark.parametrize("code", [
    "import hypsimplex",
    "import hypsimplex.cli",
    _cli("classify", "3", "7"),
], ids=["import", "import-cli", "cli-classify"])
def test_classifying_does_not_load_dataclasses(code, module):
    assert not _loads(code, module)


def test_no_module_or_command_loads_dataclasses():
    # One interpreter imports every module and runs every command: the
    # module is absent at the end only if no step loaded it.
    modules = ["", ".cli", ".conditions", ".errors", ".interval", ".matrices", ".model",
               ".solver"]
    code = "\n".join([
        *(f"import hypsimplex{m}" for m in modules),
        _cli("classify", "3", "7"),
        _cli("solve", "3", "7"),
        _cli("table", "--a", "3"),
        _cli("grid", "2", "4", "--resolution", "4"),
        _cli("check", "3", "7"),
    ])
    assert not _loads(code, "dataclasses")


def test_no_command_loads_csv():
    # One interpreter runs every command in both formats, as above.
    code = "\n".join(_cli(*args, "--format", fmt) for fmt in ("csv", "json-lines") for args in [
        ("classify", "3", "7"), ("solve", "2", "3"), ("table", "--a", "3"),
        ("grid", "2", "4", "--resolution", "4"), ("check", "3", "7"),
    ])
    assert not _loads(code, "csv")
