"""Benchmark of hypsimplex: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload family|oracle|cli|all --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` it measures the end-to-end metrics with tracing off.  With
``--trace 1`` every operation runs twice, untraced and then traced, and it
reports the per-layer metrics and the tracing overhead.  Every operation's
output is checked against ``bench/refs.json``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs the three workloads one after another, each in a
fresh process.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("family", "oracle", "cli")
# The traced run writes its spans here, one file per workload.
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 11
# A run goes on past --seconds until it has this many operations, so that
# at least ten lie beyond the 90th percentile.  Only cli, whose children
# take 0.2-1 s each, can reach the deadline with fewer.
MIN_SAMPLES = 110

# name -> unit; the gated end-to-end metrics, then two reported beside them
# (fail_frac is also the result's failed / attempted).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
REPORTED = {"fail_frac": "ratio", "root_err_max": "rad"}
PER_LAYER_EXTRA = {
    "cli.import_s": "s",
    "cli.process_s": "s/op",
    "cli.output_bytes": "B/op",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Sample:
    """One operation: wall seconds, the speed probe read around it, and the
    check outcome."""

    op: object
    seconds: float
    probe: float
    outcome: object


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="hypsimplex benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_times(module: str, repeats: int, spawner, probe) -> list[tuple[float, float]]:
    """(seconds, probe) for ``repeats`` fresh interpreters importing
    ``module``, after one untimed import that leaves the bytecode warm."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    samples = []
    before = probe.read()
    for i in range(repeats + 1):
        result, _ = spawner.run([sys.executable, "-c", code])
        after = probe.read()
        if result.returncode != 0:
            raise BenchError(f"importing {module} failed (exit {result.returncode})")
        if i:
            samples.append((float(result.stdout.split()[-1]), (before + after) / 2))
        before = after
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def executor(workload, spawner, prefix=None):
    """op -> (result, wall seconds) for the workload's operations."""
    from workloads import cli_argv, timed

    if workload.in_process:
        return timed
    return lambda op: spawner.run(cli_argv(op, prefix))


def untraced_phase(workload, refs, rng, seconds, execute, probe) -> list[Sample]:
    """Whole passes until the deadline and MIN_SAMPLES operations."""
    from workloads import CHECK

    samples: list[Sample] = []
    deadline = time.perf_counter() + seconds
    before = probe.read()
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        for op in workload.make_pass(refs, rng):
            result, dt = execute(op)
            after = probe.read()
            samples.append(Sample(op, dt, (before + after) / 2, CHECK[op.kind](op, result, refs)))
            before = after
    return samples


@dataclass
class Traced:
    untraced: list
    traced: list
    table: object
    imports: list
    process: list
    outbytes: list


def trace_phase(workload, refs, rng, seconds, spawner, probe, workdir: Path) -> Traced:
    """Whole passes until the deadline.  Every operation runs untraced and
    then traced, back to back, so both see the same machine state and their
    difference is the tracing overhead.  CLI children run through the shim,
    which writes each child's spans to a file."""
    from spans import SpanTable, Tracer
    from workloads import CHECK

    tracer = Tracer()
    path = workdir / "spans.npz"
    plain = executor(workload, spawner)
    shimmed = executor(workload, spawner, [str(BENCH / "cli_shim.py"), str(path)])
    out = Traced([], [], None, [], [], [])
    tables = []
    deadline = time.perf_counter() + seconds
    before = probe.read()
    while not out.untraced or time.perf_counter() < deadline:
        for op in workload.make_pass(refs, rng):
            result, dt = plain(op)
            after = probe.read()
            out.untraced.append(Sample(op, dt, (before + after) / 2, CHECK[op.kind](op, result, refs)))
            before = after
            if workload.in_process:
                tracer.install()
                tracer.current_op = len(out.traced)
                try:
                    result, dt = plain(op)
                finally:
                    tracer.current_op = -1
                    tracer.uninstall()
            else:
                result, dt = shimmed(op)
                table = SpanTable.load(path)
                path.unlink()
                tables.append(table)
                out.imports.append(table.duration_of("import"))
                out.process.append(dt - (table.meta["shim_end"] - table.meta["shim_start"]))
                out.outbytes.append(len(result.stdout))
            after = probe.read()
            out.traced.append(Sample(op, dt, (before + after) / 2, CHECK[op.kind](op, result, refs)))
            before = after
    out.table = tracer.table() if workload.in_process else SpanTable.concat(tables, list(range(len(tables))))
    return out


def summarize(samples: list[Sample], reference: float) -> dict:
    from measure import latency_summary, scaled

    secs = [s.seconds for s in samples]
    norm = scaled(secs, [s.probe for s in samples], reference)
    lat = latency_summary(norm)
    raw = latency_summary(secs)
    failures = Counter(s.outcome.failure for s in samples if s.outcome.failure)
    errs = [s.outcome.err for s in samples if s.outcome.err is not None]
    n = len(samples)
    return {
        "metrics": {
            "ops_per_s": n / sum(norm),
            "latency_ms.p50": lat["p50"],
            "latency_ms.p90": lat["p90"],
            "fail_frac": sum(failures.values()) / n,
            "root_err_max": max(errs) if errs else 0.0,
        },
        "raw": {"ops_per_s": n / sum(secs), "latency_ms.p50": raw["p50"],
                "latency_ms.p90": raw["p90"]},
        "latency": lat,
        "attempted": n,
        "failed": sum(failures.values()),
        "failures": dict(failures),
    }


def trace_report(t: Traced, reference: float, cli_import_s: float) -> dict:
    """Per-layer metrics, with span times rescaled per operation like the
    end-to-end times, plus the tracing overhead and the share of traced
    wall time that no span accounts for."""
    import numpy as np

    from spans import layer_metrics

    n = len(t.traced)
    scale = np.array([reference / s.probe for s in t.traced])
    metrics = layer_metrics(t.table, n, scale)
    process_s = [p * f for p, f in zip(t.process, scale)]
    metrics["cli.import_s"] = (
        statistics.median(i * f for i, f in zip(t.imports, scale)) if t.imports else cli_import_s
    )
    metrics["cli.process_s"] = sum(process_s) / n
    metrics["cli.output_bytes"] = statistics.fmean(t.outbytes) if t.outbytes else 0.0
    wall_traced = sum(s.seconds * f for s, f in zip(t.traced, scale))
    wall_untraced = sum(s.seconds * reference / s.probe for s in t.untraced)
    accounted = float(np.sum(t.table.self_time() * scale[t.table.op])) + sum(process_s)
    metrics["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    metrics["trace.unaccounted_frac"] = (wall_traced - accounted) / wall_traced
    return metrics


def per_layer_units() -> dict:
    from spans import LAYER_METRIC_UNITS

    return {**LAYER_METRIC_UNITS, **PER_LAYER_EXTRA}


def pin_to_one_cpu() -> int | None:
    """Keep the benchmark, its children and the speed probe on one CPU, so
    the probe reads the speed of the core the operations run on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> dict:
    import random

    from measure import ComputeProbe, SpawnProbe, environment, scaled
    from workloads import WORKLOADS, References, Spawner, warm

    workload = WORKLOADS[args.workload]
    refs = References.load()
    env = environment(ROOT, args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()
    spawner = Spawner()
    try:
        spawn_probe = SpawnProbe(spawner)
        probe = ComputeProbe() if workload.in_process else spawn_probe
        setup = import_times(workload.setup_module, SETUP_REPEATS, spawner, spawn_probe)
        warm(workload, spawner)
        rng = random.Random(args.seed)
        if args.trace:
            cli_import = (import_times("hypsimplex.cli", 5, spawner, spawn_probe)
                          if workload.in_process else [])
            WORK_DIR.mkdir(exist_ok=True)
            traced = trace_phase(workload, refs, rng, args.seconds, spawner, probe, WORK_DIR)
            untraced = traced.untraced
            spans_path = WORK_DIR / f"spans-{args.workload}.npz"
            traced.table.save(spans_path)
        else:
            untraced = untraced_phase(
                workload, refs, rng, args.seconds, executor(workload, spawner), probe)
    finally:
        children_rss = spawner.close()
    report = summarize(untraced, probe.reference)
    setup_scaled = scaled([s for s, _ in setup], [p for _, p in setup], spawn_probe.reference)
    report["metrics"]["setup_s"] = statistics.median(setup_scaled)
    report["raw"]["setup_s"] = statistics.median(s for s, _ in setup)
    report["metrics"]["peak_rss_mb"] = peak_rss_mb() if workload.in_process else children_rss
    if args.trace:
        cli_import_s = statistics.median(scaled(
            [s for s, _ in cli_import], [p for _, p in cli_import], spawn_probe.reference,
        )) if cli_import else 0.0
        report["per_layer"] = trace_report(traced, probe.reference, cli_import_s)
        report["traced"] = summarize(traced.traced, probe.reference)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    env["load1_end"] = os.getloadavg()[0]
    for name, pr in (("probe", probe), ("spawn_probe", spawn_probe)):
        env[name + "_median_ms"] = statistics.median(pr.readings) * 1e3
        env[name + "_p5_ms"] = statistics.quantiles(pr.readings, n=20)[0] * 1e3
    report["env"] = env
    report["workload"] = args.workload
    return report


def print_report(report: dict, args) -> None:
    print(f"workload {report['workload']}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    lat = report["latency"]
    notes = {
        "latency_ms.p50": f"({lat['samples']} samples)",
        "latency_ms.p90": f"({lat['samples']} samples, {lat['beyond_p90']} beyond"
                          + ("" if lat["p90_resolved"] else ", TOO FEW") + ")",
        "fail_frac": f"({report['failed']} of {report['attempted']})",
    }
    for name in report["raw"]:
        notes[name] = f"(raw wall {report['raw'][name]:.6g}) " + notes.get(name, "")
    print("end-to-end, tracing off, times scaled to the reference probe speed:")
    for name, unit in {**END_TO_END, **REPORTED}.items():
        print(f"  {name:<24} {report['metrics'][name]:<14.6g} {unit:<6} {notes.get(name, '')}")
    if report["failures"]:
        print("failures " + json.dumps(report["failures"], sort_keys=True))
    if "per_layer" in report:
        units = per_layer_units()
        print("per layer, traced run:")
        for name, value in report["per_layer"].items():
            print(f"  {name:<32} {value:<14.6g} {units[name]}")
    print("report " + json.dumps(report, sort_keys=True, default=str))


def result_line(report: dict, trace: int) -> dict:
    if trace:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in report["per_layer"].items()}
    else:
        metrics = {k: {"value": report["metrics"][k], "unit": u} for k, u in END_TO_END.items()}
    attempted = report["attempted"] + report.get("traced", {}).get("attempted", 0)
    failed = report["failed"] + report.get("traced", {}).get("failed", 0)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process, so memory and imports stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import hypsimplex from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_workload(args)
    except workloads.WrongTrueRoot as exc:
        print(f"error: wrong answer on a TRUE_ROOTS pair, no numbers written: {exc}",
              file=sys.stderr)
        return 3
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report, args)
    print(json.dumps(result_line(report, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
