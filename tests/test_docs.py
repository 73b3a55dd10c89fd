"""The README quickstart and the demo scripts run as documented."""

import contextlib
import io
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(code_or_path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if isinstance(code_or_path, Path):
            runpy.run_path(str(code_or_path), run_name="__main__")
        else:
            exec(compile(code_or_path, "README.md", "exec"), {"__name__": "readme"})
    return out.getvalue()


def test_readme_quickstart_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
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
