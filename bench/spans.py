"""Spans around the public functions of each hypsimplex layer.

The tracer patches, at run time, every module-level binding of the listed
functions in every loaded ``hypsimplex`` module, because ``solver`` and
``cli`` import the kernels by name.  Each call records one span: function,
start, end, parent span and operation id, plus two integers a function's
note can fill (sizes, iteration counts).  Spans are kept in flat arrays so
that a million of them cost tens of megabytes, and are turned into the
per-layer metrics when the run ends.  No code under ``src/`` changes.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Layer -> (defining module, public functions wrapped).  The vertex-minor
# helpers of ``conditions`` are left out: only the kernels call them, so
# they are part of a kernel call, not calls into the layer.
LAYER_FUNCTIONS = {
    "conditions": ("hypsimplex.conditions", (
        "edge_condition1_raw", "edge_condition2_raw",
        "edge_condition1_deriv_raw", "edge_condition2_deriv_raw",
        "edge_condition1_cross_deriv_raw", "edge_condition2_cross_deriv_raw",
        "edge_condition1", "edge_condition2",
        "edge_condition1_deriv", "edge_condition2_deriv",
        "vertex_minor0", "vertex_minor1",
        "corner_value", "compute_bmax", "realizability_inequality",
    )),
    "solver": ("hypsimplex.solver", (
        "solve", "estimate_contraction", "grid_oracle", "check_properness",
        "domain_for", "contraction_map",
    )),
    "model": ("hypsimplex.model", (
        "normalize_params", "classify_realization", "classify_vertex",
        "build_coxeter_schlafli", "gram_sign_check",
    )),
    "matrices": ("hypsimplex.matrices", (
        "determinant", "inverse", "signature", "minor",
        "jacobi_minor_identity", "projective_distance",
    )),
}
# "cli" spans come from the CLI shim; "trace" spans time the tracer itself.
LAYERS = (*LAYER_FUNCTIONS, "cli", "trace")

SOLVE_CERTIFIED = 1
SOLVE_BUDGET_HIT = 2


def _note_kernel(args, kwargs, result):
    """(points, bytes) of an array kernel call; (0, 0) for a scalar call.
    Bytes are computed from the sizes of the array arguments and result."""
    if not isinstance(result, np.ndarray) or result.ndim == 0:
        return 0, 0
    nbytes = result.nbytes + sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    return result.size, nbytes


def _note_solve(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        from hypsimplex.solver import SolverConfig

        config = SolverConfig()
    flags = 0
    bound = result.contraction_norm_estimate
    if bound is not None and bound < 1.0:
        flags |= SOLVE_CERTIFIED
    if result.iterations >= config.max_iterations:
        flags |= SOLVE_BUDGET_HIT
    return result.iterations, flags


def _note_oracle(args, kwargs, result):
    return len(result), 0


NOTES = {
    **{name: _note_kernel for name in LAYER_FUNCTIONS["conditions"][1]},
    "solve": _note_solve,
    "grid_oracle": _note_oracle,
}


class Tracer:
    """Records spans in flat arrays; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.x = array("q")
        self.y = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._bindings: list | None = None

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.x.append(0)
        self.y.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Add a finished span timed by the caller."""
        idx = self._open(self._name_id(name, layer))
        self.start[idx], self.end[idx] = start, end
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        idx = self._open(self._name_id(name, layer))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        note = NOTES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.x[idx], tracer.y[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, original, wrapper) for every binding of a
        listed function in a loaded hypsimplex module."""
        packages = [
            mod for name, mod in list(sys.modules.items())
            if name == "hypsimplex" or name.startswith("hypsimplex.")
        ]
        bindings = []
        for layer, (module_name, names) in LAYER_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                wrapped = self.wrap(original, name, layer)
                for mod in packages:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            bindings.append((mod, attr, original, wrapped))
        return bindings

    def install(self) -> None:
        """Patch the bindings; they are looked up once per tracer."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, attr, _, wrapped in self._bindings:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings or ():
            setattr(mod, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            layers=list(self.layers),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            op=np.frombuffer(self.op, dtype=np.int32).astype(np.int64),
            x=np.frombuffer(self.x, dtype=np.int64).copy(),
            y=np.frombuffer(self.y, dtype=np.int64).copy(),
        )


@dataclass
class SpanTable:
    """Spans as columns; ``meta`` holds scalars saved alongside them."""

    names: list
    layers: list
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    x: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path) -> None:
        np.savez(
            path, names=np.array(self.names), layers=np.array(self.layers),
            name_id=self.name_id, start=self.start, end=self.end,
            parent=self.parent, op=self.op, x=self.x, y=self.y,
            **{"meta_" + k: v for k, v in self.meta.items()},
        )

    @classmethod
    def load(cls, path) -> "SpanTable":
        with np.load(path) as data:
            fields = {k: data[k] for k in data.files if not k.startswith("meta_")}
            meta = {k[5:]: float(data[k]) for k in data.files if k.startswith("meta_")}
        fields["names"] = [str(n) for n in fields["names"]]
        fields["layers"] = [str(n) for n in fields["layers"]]
        return cls(**fields, meta=meta)

    @classmethod
    def concat(cls, tables: list["SpanTable"], ops: list[int]) -> "SpanTable":
        """Join tables, giving every span of tables[i] the operation ops[i]."""
        names: list[str] = []
        layers: list[str] = []
        ids: dict[str, int] = {}
        cols = {k: [] for k in ("name_id", "start", "end", "parent", "op", "x", "y")}
        offset = 0
        for table, op in zip(tables, ops):
            remap = np.empty(len(table.names), dtype=np.int64)
            for i, (name, layer) in enumerate(zip(table.names, table.layers)):
                if name not in ids:
                    ids[name] = len(names)
                    names.append(name)
                    layers.append(layer)
                remap[i] = ids[name]
            cols["name_id"].append(remap[table.name_id] if len(table) else table.name_id)
            cols["parent"].append(np.where(table.parent >= 0, table.parent + offset, -1))
            cols["op"].append(np.full(len(table), op, dtype=np.int64))
            for k in ("start", "end", "x", "y"):
                cols[k].append(getattr(table, k))
            offset += len(table)
        merged = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
        for k in ("name_id", "parent", "op", "x", "y"):
            merged[k] = merged[k].astype(np.int64)
        return cls(names=names, layers=layers, **merged)

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover.

        Spans come from one thread, so the direct children of a span never
        overlap and their durations add up to the time they cover.
        """
        dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return dur - covered

    def layer_of(self) -> np.ndarray:
        layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        per_name = np.array([layer_ids[l] for l in self.layers], dtype=np.int64)
        return per_name[self.name_id] if len(self) else np.empty(0, dtype=np.int64)

    def boundary(self) -> np.ndarray:
        """True for calls into a layer from outside it (or from no span)."""
        layer = self.layer_of()
        parent_layer = np.where(self.parent >= 0, layer[np.maximum(self.parent, 0)], -1)
        return parent_layer != layer

    def duration_of(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        m = self.mask(name)
        return float(np.sum(self.end[m] - self.start[m]))

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)


LAYER_METRIC_UNITS = {
    "conditions.scalar_calls": "count/op",
    "conditions.scalar_self_s": "s/op",
    "conditions.array_calls": "count/op",
    "conditions.array_points": "count/op",
    "conditions.array_self_s": "s/op",
    "conditions.array_ns_per_point": "ns",
    "conditions.array_bytes_computed": "B/op",
    "solver.solve_calls": "count/op",
    "solver.solve_self_s": "s/op",
    "solver.iterations_mean": "count",
    "solver.fp_budget_hit_frac": "ratio",
    "solver.certificate_s": "s/op",
    "solver.certificate_calls": "count/op",
    "solver.certificate_yield": "ratio",
    "solver.oracle_s": "s/op",
    "solver.oracle_roots": "count/op",
    "solver.properness_s": "s/op",
    "solver.self_s": "s/op",
    "model.classify_s": "s/op",
    "matrices.calls": "count/op",
    "matrices.self_s": "s/op",
    "cli.self_s": "s/op",
    "trace.spans": "count/op",
}


def layer_metrics(table: SpanTable, n_ops: int, scale=None) -> dict[str, float]:
    """Per-layer metrics from the spans of n_ops operations, per operation
    (units in LAYER_METRIC_UNITS).  Calls are counted where they cross into
    a layer; self times cover every span of the layer.  ``scale[i]``
    multiplies the times of operation i.  A ratio with no attempts (no
    solve on this workload) reads 0."""
    if n_ops < 1:
        raise ValueError("need at least one operation")
    factor = np.ones(len(table)) if scale is None else np.asarray(scale)[table.op]
    own = table.self_time() * factor
    dur = (table.end - table.start) * factor
    layer = table.layer_of()
    boundary = table.boundary()
    lid = {name: i for i, name in enumerate(LAYERS)}

    def per_op(v) -> float:
        return float(np.sum(v)) / n_ops

    cond = layer == lid["conditions"]
    array = cond & (table.x > 0)
    scalar = cond & (table.x == 0)
    points = int(np.sum(table.x[array & boundary]))
    array_self = float(np.sum(own[array]))
    solves = table.mask("solve")
    cert = table.mask("estimate_contraction")
    oracle = table.mask("grid_oracle")
    n_solves = int(np.sum(solves))
    n_cert = int(np.sum(cert))
    certified = int(np.sum((table.y[solves] & SOLVE_CERTIFIED) > 0))
    budget = int(np.sum((table.y[solves] & SOLVE_BUDGET_HIT) > 0))
    mats = layer == lid["matrices"]
    return {
        "conditions.scalar_calls": per_op(scalar & boundary),
        "conditions.scalar_self_s": per_op(own[scalar]),
        "conditions.array_calls": per_op(array & boundary),
        "conditions.array_points": points / n_ops,
        "conditions.array_self_s": array_self / n_ops,
        "conditions.array_ns_per_point": array_self / points * 1e9 if points else 0.0,
        "conditions.array_bytes_computed": per_op(table.y[array & boundary]),
        "solver.solve_calls": n_solves / n_ops,
        "solver.solve_self_s": per_op(own[solves]),
        "solver.iterations_mean": float(np.mean(table.x[solves])) if n_solves else 0.0,
        "solver.fp_budget_hit_frac": budget / n_solves if n_solves else 0.0,
        "solver.certificate_s": per_op(dur[cert]),
        "solver.certificate_calls": n_cert / n_ops,
        "solver.certificate_yield": certified / n_cert if n_cert else 0.0,
        "solver.oracle_s": per_op(dur[oracle]),
        "solver.oracle_roots": per_op(table.x[oracle]),
        "solver.properness_s": per_op(dur[table.mask("check_properness")]),
        "solver.self_s": per_op(own[layer == lid["solver"]]),
        "model.classify_s": per_op(own[layer == lid["model"]]),
        "matrices.calls": per_op(mats & boundary),
        "matrices.self_s": per_op(own[mats]),
        "cli.self_s": per_op(own[(layer == lid["cli"]) & ~table.mask("import")]),
        "trace.spans": len(table) / n_ops,
    }
