"""Compute 50-digit reference roots for every pair the benchmark can draw.

Run from the repository root (needs mpmath):

    python3 bench/regen_refs.py            # rewrite bench/refs.json
    python3 bench/regen_refs.py --check    # recompute and compare, write nothing

The edge conditions, the realizability inequality and the analytic
exclusions for a = 2 and a = 3 are restated here from the paper, without
importing hypsimplex, so the references do not share code with the solver.
A root is bracketed in double precision by nested bisection (the alpha1
root of the first condition for fixed beta1, then beta1 on the second
condition) and polished by mpmath's multidimensional Newton at 50 digits.
The timed benchmark reads the committed JSON and never imports mpmath.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp

DPS = 50
REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# Pairs the workloads can draw: the family tabulation (a = 2..12 with its
# large-a sweeps) and the oracle cross-check (a = 2..20).
FAMILY_SMALL_A = range(2, 13)
FAMILY_SWEEP_A = (40, 80, 200)
ORACLE_A = range(2, 21)

# The 27 pairs of tests/oracles.py::TRUE_ROOTS (a = 2..6 up to b_max).
TRUE_ROOT_A = range(2, 7)


def _minors(c1, c2, d1, d2):
    m0 = 1 - c1 * c1 - c2 * c2 - d1 * d1 - 2 * c1 * c2 * d1
    m1 = 1 - c1 * c1 - d1 * d1 - d2 * d2 - 2 * c1 * d1 * d2
    return m0, m1


def conditions(alpha1, beta1, a, b, lib=math):
    """Both edge conditions with alpha2, beta2 eliminated by the constraints
    2 alpha1 + alpha2 = 2 pi / a and 2 beta1 + beta2 = 2 pi / b."""
    pi = lib.pi
    alpha2 = 2 * pi / a - 2 * alpha1
    beta2 = 2 * pi / b - 2 * beta1
    c1, c2 = lib.cos(alpha1), lib.cos(alpha2)
    d1, d2 = lib.cos(beta1), lib.cos(beta2)
    m0, m1 = _minors(c1, c2, d1, d2)
    f1 = m0 * lib.sin(beta1) ** 2 - m1 * lib.sin(alpha2) ** 2
    f2 = m1 * lib.sin(alpha1) ** 2 - m0 * lib.sin(beta2) ** 2
    return f1, f2


def admissible(a: int, b: int) -> bool:
    """Strict realizability inequality, decided at 50 digits."""
    with mp.workdps(DPS):
        lhs = (1 + mp.cos(mp.pi / a)) * mp.sin(2 * mp.pi / b)
        rhs = (mp.cos(mp.pi / a) + mp.cos(2 * mp.pi / b)) * mp.sin(mp.pi / a)
        return lhs - rhs > mp.mpf(10) ** (-(DPS - 10))


def b_max(a: int) -> int:
    return max(b for b in range(a + 1, 4 * a + 1) if admissible(a, b))


def alpha_range(a: int) -> tuple[float, float]:
    """alpha1 interval holding the proper root; for a = 2 and a = 3 part of
    [0, pi/a] is excluded analytically, which also drops the improper root
    of (2, 3)."""
    if a == 2:
        return math.pi / 3, math.pi / 2
    if a == 3:
        return math.pi / 12, math.pi / 3
    return 0.0, math.pi / a


def _bisect(func, lo: float, hi: float) -> float | None:
    flo, fhi = func(lo), func(hi)
    if flo is None or fhi is None or flo * fhi > 0:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fmid = func(mid)
        if fmid is None:
            return None
        if fmid == 0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def float_start(a: int, b: int, alo: float, ahi: float, blo: float, bhi: float):
    """Double-precision bracket of the common zero by nested bisection."""

    def alpha_of(beta: float) -> float | None:
        return _bisect(lambda al: conditions(al, beta, a, b)[0], alo, ahi)

    def outer(beta: float) -> float | None:
        al = alpha_of(beta)
        return None if al is None else conditions(al, beta, a, b)[1]

    # Scan beta for a sign change of the outer function, then bisect it.
    n = 64
    grid = [blo + (bhi - blo) * k / n for k in range(n + 1)]
    # Keep the open interval: the beta1 = 0 edge is degenerate.
    grid[0] = blo + (bhi - blo) * 1e-9
    grid[-1] = bhi - (bhi - blo) * 1e-9
    values = [outer(x) for x in grid]
    for k in range(n):
        v0, v1 = values[k], values[k + 1]
        if v0 is not None and v1 is not None and v0 * v1 <= 0:
            beta = _bisect(outer, grid[k], grid[k + 1])
            if beta is not None:
                return alpha_of(beta), beta
    raise RuntimeError(f"no bracketed root for ({a}, {b})")


def polish(a: int, b: int, start) -> tuple[mp.mpf, mp.mpf]:
    with mp.workdps(DPS + 10):
        f = lambda x, y: conditions(x, y, a, b, lib=mp)  # noqa: E731
        x, y = mp.findroot(
            [lambda x, y: f(x, y)[0], lambda x, y: f(x, y)[1]],
            (mp.mpf(start[0]), mp.mpf(start[1])),
        )
        r = max(abs(v) for v in f(x, y))
        if r > mp.mpf(10) ** (-DPS):
            raise RuntimeError(f"({a}, {b}): residual {mp.nstr(r, 5)} after polish")
        return +x, +y


def reference_root(a: int, b: int) -> tuple[mp.mpf, mp.mpf]:
    alo, ahi = alpha_range(a)
    start = float_start(a, b, alo, ahi, 0.0, math.pi / b)
    x, y = polish(a, b, start)
    if not (alo < x < ahi and 0 < y < mp.pi / b):
        raise RuntimeError(f"({a}, {b}): polished root left the domain box")
    if abs(x - start[0]) > 1e-5 or abs(y - start[1]) > 1e-5:
        raise RuntimeError(f"({a}, {b}): polish moved far from the bracket")
    return x, y


def improper_root_23() -> tuple[mp.mpf, mp.mpf]:
    """The second, improper root of (2, 3), below the analytic cut pi/3."""
    start = float_start(2, 3, 1e-6, math.pi / 3 - 1e-6, 0.0, math.pi / 3)
    return polish(2, 3, start)


def drawable_pairs() -> list[tuple[int, int]]:
    pairs = set()
    for a in (*FAMILY_SMALL_A, *FAMILY_SWEEP_A, *ORACLE_A):
        pairs.update((a, b) for b in range(a + 1, b_max(a) + 1))
    return sorted(pairs)


def _text(v) -> str:
    return mp.nstr(v, DPS, strip_zeros=False)


def compute() -> dict:
    bmax = {a: b_max(a) for a in sorted({*FAMILY_SMALL_A, *FAMILY_SWEEP_A, *ORACLE_A})}
    roots = {}
    for a, b in drawable_pairs():
        x, y = reference_root(a, b)
        roots[f"{a},{b}"] = [_text(x), _text(y)]
    ix, iy = improper_root_23()
    return {
        "digits": DPS,
        "about": "alpha1, beta1 of the proper root per 'a,b', from bench/regen_refs.py",
        "b_max": {str(a): v for a, v in bmax.items()},
        "true_roots_pairs": [[a, b] for a in TRUE_ROOT_A for b in range(a + 1, bmax[a] + 1)],
        "roots": roots,
        "improper_2_3": [_text(ix), _text(iy)],
    }


def compare(new: dict, old: dict) -> list[str]:
    """Differences between two reference sets, at double precision."""
    problems = []
    if new["b_max"] != old["b_max"] or new["true_roots_pairs"] != old["true_roots_pairs"]:
        problems.append("pair sets differ")
    for key in sorted(set(new["roots"]) | set(old["roots"])):
        if key not in new["roots"] or key not in old["roots"]:
            problems.append(f"{key}: present in one set only")
            continue
        for n, o in zip(new["roots"][key], old["roots"][key]):
            if float(n) != float(o):
                problems.append(f"{key}: {n} vs {o}")
    for n, o in zip(new["improper_2_3"], old["improper_2_3"]):
        if float(n) != float(o):
            problems.append(f"improper (2, 3): {n} vs {o}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with the committed file")
    args = parser.parse_args()
    t0 = time.perf_counter()
    refs = compute()
    elapsed = time.perf_counter() - t0
    if args.check:
        problems = compare(refs, json.loads(REFS_PATH.read_text()))
        for line in problems:
            print(line)
        print(f"{len(refs['roots'])} roots recomputed in {elapsed:.1f} s; "
              f"{len(problems)} differences")
        return 1 if problems else 0
    REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {len(refs['roots'])} roots to {REFS_PATH.name} in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
