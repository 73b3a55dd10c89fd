"""The README quickstart, its CLI examples and the demo scripts run as
documented."""

import contextlib
import io
import re
import runpy
import shlex
from pathlib import Path

import pytest

from clirun import run_cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _run(code_or_path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if isinstance(code_or_path, Path):
            runpy.run_path(str(code_or_path), run_name="__main__")
        else:
            exec(compile(code_or_path, "README.md", "exec"), {"__name__": "readme"})
    return out.getvalue()


def test_readme_quickstart_prints_what_its_comments_say():
    (block,) = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    printed = _run(block).splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, statement in zip(printed, prints):
        if "#" in statement:
            assert line == statement.split("#", 1)[1].strip(), statement


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_runs_to_completion(demo):
    assert _run(demo)


def _readme_cli_lines() -> list[str]:
    (block,) = [
        block for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S)
        if "\nhypsimplex " in block
    ]
    return [line for line in block.splitlines() if line.startswith("hypsimplex ")]


@pytest.mark.parametrize(
    "line", _readme_cli_lines(), ids=lambda line: line.split("#")[0].strip()
)
def test_readme_cli_example_exits_as_documented(line):
    command, _, comment = line.partition("#")
    documented = re.search(r"exit code (\d+)", comment)
    args = shlex.split(command.split(">", 1)[0])[1:]
    result = run_cli(args)
    assert result.exit_code == (int(documented.group(1)) if documented else 0), line
