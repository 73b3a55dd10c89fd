"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import bisect
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src"), str(ROOT / "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hypsimplex as hs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from measure import MIN_BEYOND_P90, latency_summary, scaled  # noqa: E402
from spans import LAYER_METRIC_UNITS, SpanTable, Tracer, layer_metrics  # noqa: E402
from workloads import CliResult, Op, References  # noqa: E402


@pytest.fixture(scope="module")
def refs() -> References:
    return References.load()


# ------------------------------------------------------------ percentiles

def test_latency_summary_matches_statistics_and_counts_the_tail():
    seconds = [i / 1000 for i in range(1, 201)]  # 1..200 ms
    s = latency_summary(seconds)
    ms = [v * 1e3 for v in seconds]
    assert s["p50"] == pytest.approx(statistics.median(ms))
    assert s["p90"] == pytest.approx(statistics.quantiles(ms, n=10)[-1])
    assert s["samples"] == 200
    assert s["beyond_p90"] == sum(1 for v in ms if v > s["p90"]) == 20
    assert s["p90_resolved"]


def test_latency_summary_flags_a_short_run():
    s = latency_summary([0.001 * i for i in range(1, 50)])
    assert s["beyond_p90"] < MIN_BEYOND_P90
    assert not s["p90_resolved"]
    single = latency_summary([0.004])
    assert single["p50"] == single["p90"] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        latency_summary([])


# -------------------------------------------------------------- self time

def _table(rows) -> SpanTable:
    """rows: (name, layer, start, end, parent)."""
    names = sorted({r[0] for r in rows})
    layers = [next(r[1] for r in rows if r[0] == n) for n in names]
    n = len(rows)
    return SpanTable(
        names=names, layers=layers,
        name_id=np.array([names.index(r[0]) for r in rows]),
        start=np.array([r[2] for r in rows], dtype=float),
        end=np.array([r[3] for r in rows], dtype=float),
        parent=np.array([r[4] for r in rows]),
        op=np.zeros(n, dtype=np.int64), x=np.zeros(n, dtype=np.int64),
        y=np.zeros(n, dtype=np.int64),
    )


def test_self_time_subtracts_direct_children_only():
    table = _table([
        ("solve", "solver", 0.0, 10.0, -1),
        ("estimate_contraction", "solver", 1.0, 4.0, 0),
        ("edge_condition1_raw", "conditions", 2.0, 3.0, 1),
        ("check_properness", "solver", 5.0, 9.0, 0),
        ("determinant", "matrices", 6.0, 6.5, 3),
    ])
    assert table.self_time().tolist() == pytest.approx([3.0, 2.0, 1.0, 3.5, 0.5])
    # Self times of a tree add up to the root's duration.
    assert table.self_time().sum() == pytest.approx(10.0)
    assert table.boundary().tolist() == [True, False, True, False, True]


def test_concat_offsets_parents_and_sets_operation_ids():
    one = _table([("main", "cli", 0.0, 2.0, -1), ("determinant", "matrices", 0.5, 1.0, 0)])
    two = _table([("main", "cli", 5.0, 6.0, -1), ("inverse", "matrices", 5.1, 5.2, 0)])
    merged = SpanTable.concat([one, two], [0, 1])
    assert merged.parent.tolist() == [-1, 0, -1, 2]
    assert merged.op.tolist() == [0, 0, 1, 1]
    assert [merged.names[i] for i in merged.name_id] == ["main", "determinant", "main", "inverse"]
    assert merged.self_time().tolist() == pytest.approx([1.5, 0.5, 0.9, 0.1])


def test_tracer_records_nested_calls_and_restores_the_functions():
    original = hs.solve
    tracer = Tracer()
    tracer.install()
    tracer.current_op = 0
    try:
        report = hs.solve(hs.SimplexParams(3, 5))
    finally:
        tracer.uninstall()
    assert hs.solve is original and hs.solver.grid_oracle.__name__ == "grid_oracle"
    assert not hasattr(hs.solver.estimate_contraction, "__wrapped__")
    table = tracer.table()
    dur = table.end - table.start
    roots = table.parent == -1
    assert [table.names[i] for i in table.name_id[roots]] == ["solve"]
    assert table.self_time().sum() == pytest.approx(dur[roots].sum())
    m = layer_metrics(table, 1)
    assert set(m) == set(LAYER_METRIC_UNITS)
    assert m["solver.solve_calls"] == 1
    assert m["solver.iterations_mean"] == report.iterations
    assert m["solver.certificate_calls"] >= 1
    assert m["conditions.scalar_calls"] > 100
    assert m["conditions.array_points"] > 0
    assert m["matrices.calls"] > 0


def test_cli_shim_writes_spans_and_keeps_the_exit_code(tmp_path):
    path = tmp_path / "spans.npz"
    shim = [str(BENCH / "cli_shim.py"), str(path)]
    spawner = wl.Spawner()
    try:
        result, seconds = spawner.run(wl.cli_argv(Op("cli", 3, 7, ("classify", "3", "7")), shim))
        table = SpanTable.load(path)
        bad, _ = spawner.run(wl.cli_argv(Op("cli", 0, 0, ("classify", "0", "5")), shim))
    finally:
        rss = spawner.close()
    assert result.returncode == 0 and json.loads(result.stdout)["class"] == "HyperbolicOuter"
    assert {"import", "main", "classify_realization"} <= set(table.names)
    assert 0 < table.meta["shim_end"] - table.meta["shim_start"] < seconds
    assert bad.returncode == 2
    assert rss > 10


# ------------------------------------------------------ failure injection

def _report(refs, a, b, **changes):
    x, y = refs.roots[(a, b)]
    params = hs.SimplexParams(a, b)
    angles = hs.DihedralAngles.from_reduced(params, x, y)
    good = hs.SolveReport(
        status=hs.SolveStatus.SOLVED, angles=angles, residual_cond1=0.0,
        residual_cond2=0.0, iterations=10, contraction_norm_estimate=0.5,
        properness=hs.check_properness(params, angles),
    )
    return replace(good, **changes)


def test_checks_accept_a_correct_solve(refs):
    outcome = wl.check_solve(Op("solve", 7, 9), _report(refs, 7, 9), refs)
    assert outcome.failure is None and outcome.err == 0.0


def test_perturbed_root_counts_as_failure(refs):
    x, y = refs.roots[(7, 9)]
    angles = hs.DihedralAngles.from_reduced(hs.SimplexParams(7, 9), x + 2e-9, y)
    outcome = wl.check_solve(Op("solve", 7, 9), _report(refs, 7, 9, angles=angles), refs)
    assert outcome.failure == "angle error"
    assert outcome.err == pytest.approx(2e-9, rel=1e-3)


def test_relative_tolerance_catches_small_absolute_errors(refs):
    x, y = refs.roots[(200, 400)]  # beta1 ~ 6.5e-7: 1e-12 is ~1.5e-6 relative
    angles = hs.DihedralAngles.from_reduced(hs.SimplexParams(200, 400), x, y + 1e-12)
    outcome = wl.check_solve(Op("solve", 200, 400), _report(refs, 200, 400, angles=angles), refs)
    assert outcome.failure == "angle error"


def test_wrong_answer_on_a_true_roots_pair_aborts(refs):
    x, y = refs.roots[(3, 5)]
    angles = hs.DihedralAngles.from_reduced(hs.SimplexParams(3, 5), x, y + 1e-6)
    with pytest.raises(wl.WrongTrueRoot):
        wl.check_solve(Op("solve", 3, 5), _report(refs, 3, 5, angles=angles), refs)


def test_dropped_certificate_counts_as_failure(refs):
    for bound in (None, 1.0):
        report = _report(refs, 7, 9, contraction_norm_estimate=bound)
        assert wl.check_solve(Op("solve", 7, 9), report, refs).failure == "no contraction certificate"


def test_oracle_check_needs_the_proper_and_improper_roots(refs):
    proper = hs.GridRoot(*refs.roots[(2, 3)], 0.0, 0.0)
    improper = hs.GridRoot(*refs.improper_23, 0.0, 0.0)
    full = Op("oracle", 2, 3, (400, "full"))
    assert wl.check_oracle(full, [proper, improper], refs).failure is None
    assert wl.check_oracle(full, [proper], refs).failure == "improper root of (2, 3) missing"
    assert wl.check_oracle(Op("oracle", 2, 3, (200, "domain")), [proper], refs).failure is None
    assert wl.check_oracle(full, [], refs).failure == "proper root missing"


def _solve_row(refs, a, b, **changes) -> bytes:
    x, y = refs.roots[(a, b)]
    row = {"a": a, "b": b, "status": "Solved", "alpha1": x, "beta1": y,
           "contraction_norm_estimate": 0.5, "proper_all_pass": True}
    row.update(changes)
    return (json.dumps(row) + "\n").encode()


def test_cli_checks(refs):
    op = Op("cli", 7, 9, ("solve", "7", "9"))
    assert wl.check_cli(op, CliResult(0, _solve_row(refs, 7, 9)), refs).failure is None
    assert wl.check_cli(op, CliResult(3, _solve_row(refs, 7, 9)), refs).failure == "exit code 3"
    assert wl.check_cli(op, CliResult(0, b"{not json\n"), refs).failure.startswith("unparsable")
    assert wl.check_cli(op, CliResult(0, b""), refs).failure.startswith("unparsable")
    moved = _solve_row(refs, 7, 9, beta1=refs.roots[(7, 9)][1] + 1e-8)
    assert wl.check_cli(op, CliResult(0, moved), refs).failure == "angle error"
    grid = Op("cli", 3, 7, ("grid", "3", "7"))
    assert wl.check_cli(grid, CliResult(0, b"alpha1,beta1,cond1,cond2,dcond1,dcond2\n1,2,3,4,5,6\n"),
                        refs).failure == "grid has 1 rows"


class FixedProbe:
    reference = 1e-3

    def read(self) -> float:
        return 2e-3


def test_scaling_by_the_probe():
    assert scaled([0.010, 0.030], [1e-3, 3e-3], 1e-3) == pytest.approx([0.010, 0.010])


def test_injected_failures_are_counted_without_stopping_the_run(refs, monkeypatch):
    """A perturbed root, a dropped certificate and a wrong exit code each
    count once in fail_frac; the phase runs to its end."""
    x, y = refs.roots[(7, 9)]
    perturbed = hs.DihedralAngles.from_reduced(hs.SimplexParams(7, 9), x + 1e-7, y)
    results = {
        (7, 9): _report(refs, 7, 9, angles=perturbed),
        (8, 10): _report(refs, 8, 10, contraction_norm_estimate=None),
        (9, 11): _report(refs, 9, 11),
    }
    results[(9, 12)] = CliResult(1, b"")

    def execute(op):
        return results[(op.a, op.b)], 0.01

    ops = [Op("solve", a, b) for a, b in list(results)[:3]] + [Op("cli", 9, 12, ("solve", "9", "12"))]
    workload = wl.Workload("injected", lambda refs, rng: list(ops), "hypsimplex", True)
    samples = run.untraced_phase(workload, refs, random.Random(0), 1e-9, execute, FixedProbe())
    summary = run.summarize(samples, FixedProbe.reference)
    # Whole passes of four operations until MIN_SAMPLES are in.
    passes = summary["attempted"] // 4
    assert summary["attempted"] == 4 * passes == 4 * -(-run.MIN_SAMPLES // 4)
    assert summary["failed"] == 3 * passes
    assert summary["failures"] == {
        "angle error": passes, "no contraction certificate": passes, "exit code 1": passes,
    }
    assert summary["metrics"]["fail_frac"] == 0.75
    assert summary["metrics"]["root_err_max"] == pytest.approx(1e-7, rel=1e-6)
    # Times are scaled by reference / probe: 10 ms at half speed reads 5 ms.
    assert summary["metrics"]["latency_ms.p50"] == pytest.approx(5.0)
    assert summary["metrics"]["ops_per_s"] == pytest.approx(200.0)


# --------------------------------------------------------------- workloads

def test_stratified_draw_takes_one_value_per_stratum():
    rng = random.Random(5)
    for _ in range(50):
        draws = wl.stratified(rng, 201, 399, 5)
        assert len(draws) == 5
        edges = [201, 240, 280, 320, 360, 400]
        assert [bisect.bisect_right(edges, d) - 1 for d in draws] == [0, 1, 2, 3, 4]


def test_passes_have_fixed_composition(refs):
    rng = random.Random(7)
    family = wl.family_pass(refs, rng)
    assert len(family) == 84 + 3 * (wl.SWEEP_STRATA + 1)
    pairs = {(op.a, op.b) for op in family}
    assert refs.true_pairs <= pairs
    assert {(40, 80), (80, 160), (200, 400)} <= pairs
    oracle = wl.oracle_pass(refs, rng)
    assert sum(op.detail == wl.DOMAIN_SCAN for op in oracle) == 20
    assert sum(op.detail == wl.FULL_SCAN for op in oracle) == 10
    assert Op("oracle", 2, 3, (400, "full")) in oracle
    cli = wl.cli_pass(refs, rng)
    assert sorted(op.detail[0] for op in cli) == sorted(
        c for c, n in wl.CLI_MIX for _ in range(n))
    assert all((op.a, op.b) in refs.roots for op in family + oracle)


def test_same_seed_same_inputs(refs):
    for make in (wl.family_pass, wl.oracle_pass, wl.cli_pass):
        assert make(refs, random.Random(3)) == make(refs, random.Random(3))
        assert make(refs, random.Random(3)) != make(refs, random.Random(4))


# -------------------------------------------------------------- references

def test_committed_references_match_true_roots(refs):
    from oracles import BMAX_TABLE, IMPROPER_ROOT_23, TRUE_ROOTS

    assert refs.true_pairs == set(TRUE_ROOTS)
    for pair, (x, y) in TRUE_ROOTS.items():
        rx, ry = refs.roots[pair]
        assert abs(rx - x) <= 2.2205e-16 and abs(ry - y) <= 2.2205e-16, pair
    assert refs.improper_23 == pytest.approx(IMPROPER_ROOT_23, abs=2.2205e-16)
    for a, bmax in BMAX_TABLE.items():
        assert refs.bmax[a] == bmax


def test_references_cover_every_drawable_pair(refs):
    for a in (*wl.FAMILY_SMALL_A, *wl.FAMILY_SWEEP_A, *wl.ORACLE_A):
        for b in range(a + 1, refs.bmax[a] + 1):
            assert (a, b) in refs.roots


def test_regenerated_references_agree_on_the_true_roots_rows(refs):
    mp = pytest.importorskip("mpmath")
    assert mp is not None
    import regen_refs

    for a, b in [(2, 3), (3, 8), (6, 12)]:
        x, y = regen_refs.reference_root(a, b)
        assert (float(x), float(y)) == refs.roots[(a, b)]
    ix, iy = regen_refs.improper_root_23()
    assert (float(ix), float(iy)) == refs.improper_23


# ------------------------------------------------------------ the contract

def test_benchmark_json_names_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["command"][1] == "bench/run.py" and spec["paths"] == ["bench"]


def test_runner_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.iterdir():
        if f.is_file():
            (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
