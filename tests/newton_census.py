"""Count solver._newton's runs, steps and stops over the standard inputs.

Wraps solver._newton, and the edge_system_raw its steps call, from outside
the library, then runs solve() on every bench/refs.json pair and on
tests/fingerprint.py's LARGE_A_PAIRS, and grid_oracle on the 508 scans of
tests/fingerprint.py.  Prints one line per scan and one total per group:

    PYTHONPATH=src python3 tests/newton_census.py > census.tsv

Each line is a key, a tab and these counts: ``runs``; ``steps``;
``converged`` runs, split by the stop that fired into ``unit`` (a step of
at most one _units unit) and ``stall`` (the _NEAR rule); the unconverged
runs by cause, ``left`` (a step out of the run's region), ``budget``
(max_iterations steps) and ``singular`` (a singular or non-finite Jacobian
or step); ``kept``, the roots the group's calls return (SOLVED reports,
improper roots, grid_oracle roots); and ``residual``, the largest edge
condition at a converged stop.  The groups are solve()'s own runs on the
refs pairs and on LARGE_A_PAIRS, the a = 2 second-root runs within those
solves, and the scans with a = 2 and with a >= 3.
"""

from __future__ import annotations

from fingerprint import LARGE_A_PAIRS, oracle_scans, ref_pairs

from hypsimplex import SimplexParams, SolveStatus, grid_oracle, solve, solver
from hypsimplex.conditions import edge_conditions_raw

COUNTS = ("runs", "steps", "converged", "unit", "stall", "left", "budget", "singular", "kept")


class Census:
    """The runs of solver._newton while installed, one dict per run."""

    def __init__(self) -> None:
        self.runs: list[dict] = []
        self._newton, self._system = solver._newton, solver.edge_system_raw
        self._last: tuple[float, float] | None = None

    def install(self) -> None:
        solver._newton, solver.edge_system_raw = self._recording, self._evaluating

    def _evaluating(self, x, y, a, b):
        self._last = (x, y)
        return self._system(x, y, a, b)

    def _recording(self, params, start, config, *region):
        self._last = start
        point, steps, converged = self._newton(params, start, config, *region)
        stop = self._stop(params, config, region[0] if region else None, point, steps, converged)
        residual = max(map(abs, edge_conditions_raw(*point, params.a, params.b)))
        self.runs.append({"steps": steps, "stop": stop, "residual": residual if converged else 0.0})
        return point, steps, converged

    def _stop(self, params, config, region, point, steps, converged) -> str:
        if converged:
            # The last step, taken again from the last point evaluated.
            (f1, f2), ((j11, j12), (j21, j22)) = self._system(*self._last, params.a, params.b)
            det = j11 * j22 - j12 * j21
            x_unit, y_unit = solver._units(params)
            dx, dy = (f1 * j22 - f2 * j12) / det, (j11 * f2 - j21 * f1) / det
            return "unit" if max(abs(dx) / x_unit, abs(dy) / y_unit) <= 1.0 else "stall"
        if region is not None and not region.contains(*point):
            return "left"
        if steps == config.max_iterations:
            return "budget"
        return "singular"


def tally(runs: list[dict], kept: int) -> dict:
    counts = dict.fromkeys(COUNTS, 0)
    counts.update(runs=len(runs), steps=sum(r["steps"] for r in runs), kept=kept)
    for r in runs:
        counts[r["stop"]] += 1
    counts["converged"] = counts["unit"] + counts["stall"]
    counts["residual"] = max((r["residual"] for r in runs), default=0.0)
    return counts


def add(total: dict, counts: dict) -> None:
    for key in COUNTS:
        total[key] = total.get(key, 0) + counts[key]
    total["residual"] = max(total.get("residual", 0.0), counts["residual"])


def line(key: str, counts: dict) -> str:
    fields = " ".join(f"{name} {counts[name]}" for name in COUNTS)
    return f"{key}\t{fields} residual {counts['residual']:.3g}"


def main() -> None:
    census = Census()
    census.install()
    totals: dict[str, dict] = {}
    for group, pairs in (("solve refs", ref_pairs()), ("solve large-a", LARGE_A_PAIRS)):
        for a, b in pairs:
            first = len(census.runs)
            report = solve(SimplexParams(a, b))
            own, second = census.runs[first : first + 1], census.runs[first + 1 :]
            add(totals.setdefault(group, {}), tally(own, int(report.status is SolveStatus.SOLVED)))
            add(totals.setdefault("second roots", {}), tally(second, len(report.improper_roots)))
    for name, params, resolution, box in oracle_scans():
        first = len(census.runs)
        roots = grid_oracle(params, resolution=resolution, box=box)
        counts = tally(census.runs[first:], len(roots))
        print(line(f"oracle {name}", counts))
        add(totals.setdefault("oracle a=2" if params.a == 2 else "oracle a>=3", {}), counts)
        add(totals.setdefault("oracle", {}), counts)
    for group, counts in totals.items():
        print(line(f"total {group}", counts))


if __name__ == "__main__":
    main()
