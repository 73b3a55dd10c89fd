"""The benchmark's tracer wraps library functions by name; they must exist.

``bench/spans.py`` looks up every name of its ``LAYER_FUNCTIONS`` table with
``getattr`` at run time, so renaming or deleting one of them in ``src/``
breaks the traced benchmark run.  This test loads that table from the file,
without editing it, and fails on such a rename first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being built.
    sys.modules[spec.name] = spans
    spec.loader.exec_module(spans)
    return spans


LAYER_FUNCTIONS = _load_spans().LAYER_FUNCTIONS


@pytest.mark.parametrize("layer", sorted(LAYER_FUNCTIONS))
def test_every_traced_name_is_a_callable_of_its_module(layer):
    module_name, names = LAYER_FUNCTIONS[layer]
    module = importlib.import_module(module_name)
    missing = [name for name in names if not callable(getattr(module, name, None))]
    assert not missing, missing
