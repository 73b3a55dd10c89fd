"""Summary statistics and the environment stamp shared by the benchmark."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

MIN_BEYOND_P90 = 10


def latency_summary(seconds: list[float]) -> dict:
    """Median and 90th percentile in ms, with the sample count and the number
    of samples strictly above the 90th percentile.

    The percentile is ``statistics.quantiles(..., n=10)[-1]`` (the
    exclusive method); with fewer than two samples it equals the median.
    ``p90_resolved`` is false when fewer than MIN_BEYOND_P90 samples lie
    beyond it, i.e. the run was too short to estimate that percentile.
    """
    if not seconds:
        raise ValueError("no latency samples")
    ms = [s * 1e3 for s in seconds]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else p50
    beyond = sum(1 for v in ms if v > p90)
    return {
        "p50": p50,
        "p90": p90,
        "samples": len(ms),
        "beyond_p90": beyond,
        "p90_resolved": beyond >= MIN_BEYOND_P90,
    }


def _git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run in an exported tree that has no .git at all."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy

    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": sys.platform,
        "seed": seed,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "load1_start": os.getloadavg()[0],
    }


# Probe times on a fast core of the host the benchmark was tuned on (Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4): scaled times are near wall times there.
REFERENCE_COMPUTE_S = 1.25e-3
REFERENCE_SPAWN_S = 9e-3


class ComputeProbe:
    """Times a fixed CPU task that does not touch hypsimplex: a Python loop
    and a numpy trig pass, about 1.25 ms on a fast core.  Used for
    operations that run inside the benchmark process.

    Co-tenants on a shared host change its speed by up to 2x for seconds at
    a time, which moved whole-run medians of wall time by 15-20% between
    runs.  The benchmark reads a probe between operations and scales each
    operation's wall time by reference / (the probe read around it), so a
    slow spell slows the probe and the operation alike and cancels.
    """

    reference = REFERENCE_COMPUTE_S

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.1, 1.0, 4096)
        self.readings: list[float] = []

    def read(self) -> float:
        np, x = self._np, self._x
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(4000):
            acc += i * 0.5
        for _ in range(20):
            np.cos(x) * np.sin(x)
        dt = time.perf_counter() - t0
        self.readings.append(dt)
        return dt


class SpawnProbe:
    """Times a bare interpreter start (``python -I -S -c pass``, about 12 ms)
    through the spawner.  Used for child processes: their start-up, page
    faults and imports slow down with the host differently from pure
    computation, and this probe tracks them (bucket medians of a CLI
    command moved 2% after scaling, against 14% with ComputeProbe)."""

    reference = REFERENCE_SPAWN_S

    def __init__(self, spawner) -> None:
        self._spawner = spawner
        self.readings: list[float] = []

    def read(self) -> float:
        _, dt = self._spawner.run([sys.executable, "-I", "-S", "-c", "pass"])
        self.readings.append(dt)
        return dt


def scaled(seconds: list[float], probes: list[float], reference: float) -> list[float]:
    """Wall times rescaled to the reference probe speed."""
    return [s * reference / p for s, p in zip(seconds, probes)]
