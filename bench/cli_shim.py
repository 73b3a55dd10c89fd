"""Traced stand-in for ``python -m hypsimplex.cli`` in the benchmark's traced run.

    python bench/cli_shim.py SPANS.npz ARGS...

Times the import of ``hypsimplex.cli``, installs the layer wrappers, runs
``hypsimplex.cli.main`` with ARGS, writes the spans to SPANS.npz and exits
with the CLI's exit code.  The import is timed before anything else is
imported, so numpy's import counts as part of it, as in a real cold start.
"""

import sys
import time

shim_start = time.perf_counter()
spans_path, sys.argv = sys.argv[1], ["hypsimplex", *sys.argv[2:]]
import hypsimplex.cli  # noqa: E402

import_end = time.perf_counter()

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.record("import", "cli", shim_start, import_end)
tracer.record("install", "trace", import_end, time.perf_counter())
code = 0
try:
    with tracer.span("main", "cli"):
        hypsimplex.cli.main()
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
finally:
    sys.stdout.flush()
    shim_end = time.perf_counter()
    tracer.uninstall()
    table = tracer.table()
    table.meta = {"shim_start": shim_start, "shim_end": shim_end}
    table.save(spans_path)
sys.exit(code)
