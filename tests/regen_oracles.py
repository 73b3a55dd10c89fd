"""Regenerate the frozen oracle data of tests/oracles.py at 50 digits.

Run from the repository root (needs mpmath; --check also imports
hypsimplex, hence PYTHONPATH=src unless the package is installed):

    PYTHONPATH=src python3 tests/regen_oracles.py          # print the tables as Python literals
    PYTHONPATH=src python3 tests/regen_oracles.py --check  # compare with tests/oracles.py

The roots come from bench/regen_refs.py, which states the edge conditions
and the realizability inequality from the paper without importing
hypsimplex, brackets each root in its domain box by nested bisection and
polishes it with mpmath's Newton at 50 digits.  The bracket matters: Newton
started from the printed legacy rows (3, 8) and (5, 11) converges to zeros
outside their boxes.

The conditions there are stated through the vertex minors of the angle
matrix.  As a check that does not rest on that formulation, this script
also reads the four edge lengths off the inverse Coxeter-Schlafli matrix,
which the paper's edge conditions require to agree in the identified pairs
d01 = d02 and d03 = d13.  ``--check`` prints, for every row of the legacy
tabulation, the value as printed, the root rounded to the seven significant
digits the tabulation carries, how far the printed value is from the root,
the edge-condition residual and the two edge-length gaps at the printed
value, and the largest gap at the root; it then lists every frozen value
the regeneration does not reproduce, and every a = 2..60 where the closed
form hypsimplex.compute_bmax differs from the 50-digit b_max (exit
status 1).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import mpmath as mp

from hypsimplex.conditions import compute_bmax

_BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if _BENCH not in sys.path:
    sys.path.append(_BENCH)

from regen_refs import (  # noqa: E402
    DPS,
    b_max,
    conditions,
    float_start,
    improper_root_23,
    polish,
    reference_root,
)

# oracles.py tabulates the proper roots for a = 2..6 (every b up to b_max)
# and b_max for a = 2..12; compute_bmax is checked for a = 2..60.
TRUE_ROOT_A = range(2, 7)
BMAX_A = range(2, 13)
CLOSED_FORM_A = range(2, 61)

# The a = 2 pairs with a proper root, each of which has one second, improper
# root left of the analytic cut alpha1 = pi/3.
IMPROPER_B = range(3, 8)

# Regression rows for large a, where the conditions shrink with a.
LARGE_A_PAIRS = (
    (40, 80), (80, 156), (80, 160), (200, 381), (200, 391), (200, 400),
    (10**10, 15 * 10**9), (10**12, 15 * 10**11),
)


def seven_digits(root) -> tuple[float, float]:
    """A root rounded as the legacy tabulation prints it."""
    return tuple(float(f"{float(v):.7g}") for v in root)


def angle_matrix(alpha1, alpha2, beta1, beta2) -> mp.matrix:
    """The Coxeter-Schlafli matrix of the four angles, at the working
    precision."""
    ca1, ca2, cb1, cb2 = (mp.cos(mp.mpf(t)) for t in (alpha1, alpha2, beta1, beta2))
    return mp.matrix([
        [1, -cb1, -cb2, -ca1],
        [-cb1, 1, -ca1, -ca2],
        [-cb2, -ca1, 1, -cb1],
        [-ca1, -ca2, -cb1, 1],
    ])


def edge_lengths(alpha1, alpha2, beta1, beta2) -> tuple[mp.mpf, ...]:
    """(d01, d02, d03, d13) at 50 digits: hyperbolic distances
    arccosh(-g_ij / sqrt(g_ii g_jj)) between the vertices, with g the
    inverse of the Coxeter-Schlafli matrix of the four angles.  All four
    angles are taken as given, so float angles are compared with the
    lengths at exactly those angles."""
    with mp.workdps(DPS):
        g = angle_matrix(alpha1, alpha2, beta1, beta2) ** -1

        def d(i: int, j: int) -> mp.mpf:
            return mp.acosh(-g[i, j] / mp.sqrt(g[i, i] * g[j, j]))

        return d(0, 1), d(0, 2), d(0, 3), d(1, 3)


def edge_length_gaps(alpha1, beta1, a: int, b: int) -> tuple[mp.mpf, mp.mpf]:
    """|d01 - d02| and |d03 - d13| at 50 digits, with alpha2 and beta2
    derived from the constraints at 50 digits."""
    with mp.workdps(DPS):
        alpha1, beta1 = mp.mpf(alpha1), mp.mpf(beta1)
        d01, d02, d03, d13 = edge_lengths(
            alpha1, 2 * mp.pi / a - 2 * alpha1, beta1, 2 * mp.pi / b - 2 * beta1
        )
        return abs(d01 - d02), abs(d03 - d13)


def improper_root(b: int) -> tuple[mp.mpf, mp.mpf]:
    """The second, improper root of (2, b), bracketed in the full box left of
    alpha1 = pi/3 as bench/regen_refs.improper_root_23 brackets (2, 3)'s."""
    return polish(2, b, float_start(2, b, 1e-6, math.pi / 3 - 1e-6, 0.0, math.pi / b))


def compute() -> dict:
    """Every table of oracles.py except LEGACY_TABLE_AS_PRINTED, at 50
    digits (roots as mpf pairs), and b_max for every a of CLOSED_FORM_A."""
    bmax_50_digits = {a: b_max(a) for a in CLOSED_FORM_A}
    bmax = {a: bmax_50_digits[a] for a in BMAX_A}
    true_roots = {
        (a, b): reference_root(a, b)
        for a in TRUE_ROOT_A
        for b in range(a + 1, bmax[a] + 1)
    }
    return {
        "BMAX_TABLE": bmax,
        "BMAX_50_DIGITS": bmax_50_digits,
        "TRUE_ROOTS": true_roots,
        "LEGACY_TABLE": {pair: seven_digits(root) for pair, root in true_roots.items()},
        "LARGE_A_ROOTS": {pair: reference_root(*pair) for pair in LARGE_A_PAIRS},
        "IMPROPER_ROOTS": {(2, b): improper_root(b) for b in IMPROPER_B},
        "IMPROPER_ROOT_23": improper_root_23(),
    }


def _pair_text(root, fmt) -> str:
    return "(" + ", ".join(fmt(v) for v in root) + ")"


def emit(tables: dict) -> str:
    """The regenerated tables as Python literals for oracles.py."""
    exact = lambda v: repr(float(v))  # noqa: E731
    lines = []
    for name in ("TRUE_ROOTS", "LARGE_A_ROOTS", "IMPROPER_ROOTS"):
        lines.append(f"{name} = {{")
        lines += [f"    {pair}: {_pair_text(root, exact)}," for pair, root in tables[name].items()]
        lines.append("}")
    lines.append(f"IMPROPER_ROOT_23 = {_pair_text(tables['IMPROPER_ROOT_23'], exact)}")
    lines.append(f"BMAX_TABLE = {tables['BMAX_TABLE']}")
    return "\n".join(lines)


def _ulps(got: float, want) -> float:
    return abs(got - float(want)) / math.ulp(float(want))


def compare(tables: dict, oracles) -> list[str]:
    """Frozen values that the regeneration does not reproduce: LEGACY_TABLE
    and BMAX_TABLE exactly, the double-precision roots within one ulp,
    IMPROPER_ROOT_23 as the (2, 3) row of IMPROPER_ROOTS; and every a where
    compute_bmax differs from the 50-digit b_max."""
    problems = [
        f"compute_bmax({a}) = {compute_bmax(a)}, 50-digit b_max = {want}"
        for a, want in tables["BMAX_50_DIGITS"].items()
        if compute_bmax(a) != want
    ]
    for name in ("LEGACY_TABLE", "BMAX_TABLE"):
        if getattr(oracles, name) != tables[name]:
            problems.append(f"{name} differs from the regenerated table")
    for name in ("TRUE_ROOTS", "LARGE_A_ROOTS", "IMPROPER_ROOTS"):
        frozen = getattr(oracles, name)
        if frozen.keys() != tables[name].keys():
            problems.append(f"{name}: pair sets differ")
            continue
        for pair, root in tables[name].items():
            if max(map(_ulps, frozen[pair], root)) > 1:
                regenerated = _pair_text(root, lambda v: mp.nstr(v, 20))
                problems.append(f"{name}[{pair}]: {frozen[pair]} vs {regenerated}")
    if max(map(_ulps, oracles.IMPROPER_ROOT_23, tables["IMPROPER_ROOT_23"])) > 1:
        problems.append("IMPROPER_ROOT_23 differs by more than one ulp")
    if oracles.IMPROPER_ROOT_23 != oracles.IMPROPER_ROOTS.get((2, 3)):
        problems.append("IMPROPER_ROOT_23 is not the (2, 3) row of IMPROPER_ROOTS")
    return problems


def legacy_evidence(tables: dict, printed: dict) -> list[str]:
    """One line per legacy row: the printed and corrected values, the
    largest distance of the printed value from the root, the largest
    edge-condition residual and the two edge-length gaps at the printed
    value, and the larger edge-length gap at the root."""
    lines = [f"{'pair':9} {'printed':>26} {'corrected':>26} {'|printed-root|':>14} "
             f"{'residual':>9} {'|d01-d02|':>9} {'|d03-d13|':>9} {'gap@root':>9}"]
    with mp.workdps(DPS):
        for pair, root in tables["TRUE_ROOTS"].items():
            row = printed[pair]
            deviation = max(abs(mp.mpf(p) - r) for p, r in zip(row, root))
            residual = max(abs(v) for v in conditions(*map(mp.mpf, row), *pair, lib=mp))
            gaps = edge_length_gaps(*row, *pair)
            lines.append(
                f"{str(pair):9} {_pair_text(row, '{:.7g}'.format):>26} "
                f"{_pair_text(tables['LEGACY_TABLE'][pair], '{:.7g}'.format):>26} "
                f"{float(deviation):14.2e} {float(residual):9.2e} "
                f"{float(gaps[0]):9.2e} {float(gaps[1]):9.2e} "
                f"{float(max(edge_length_gaps(*root, *pair))):9.1e}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with tests/oracles.py and print the "
                             "legacy-table evidence; write nothing")
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    tables = compute()
    elapsed = time.perf_counter() - t0
    if not args.check:
        print(emit(tables))
        return 0
    import oracles  # tests/oracles.py, beside this script

    print("\n".join(legacy_evidence(tables, oracles.LEGACY_TABLE_AS_PRINTED)))
    problems = compare(tables, oracles)
    for line in problems:
        print(line)
    print(f"regenerated in {elapsed:.1f} s; {len(problems)} frozen values not reproduced")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
