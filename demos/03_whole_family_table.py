"""Tabulate the whole family and cross-check with the grid oracle.

Every admissible pair with 2 <= a <= 6 is solved, printed, and then
located again by the grid oracle: a sign-change scan over the domain box
that flags the cells where both edge conditions change sign and runs Newton
from the centre of each flagged cell.  solve() starts Newton once, from the
pair's asymptotic root or the centre of the domain box; the oracle's
starting points come from the scan instead, so agreement shows that the
root solve() reports is the only one the grid sees in the box.  Both share
the Newton routine and the kernels, so the check does not cover an error
in those.

Runtime: under a second.
"""

from hypsimplex import SimplexParams, SolveStatus, compute_bmax, grid_oracle, solve


def main() -> None:
    print(f"  {'pair':>8}  {'alpha1':>18}  {'beta1':>18}  {'oracle agreement':>16}")
    print("  " + "-" * 66)
    worst_gap = 0.0
    for a in range(2, 7):
        for b in range(a + 1, compute_bmax(a) + 1):
            params = SimplexParams(a, b)
            report = solve(params)
            assert report.status is SolveStatus.SOLVED
            roots = grid_oracle(params, resolution=150)
            assert len(roots) == 1, "oracle must find exactly one root"
            gap = max(
                abs(roots[0].alpha1 - report.angles.alpha1),
                abs(roots[0].beta1 - report.angles.beta1),
            )
            worst_gap = max(worst_gap, gap)
            print(
                f"  ({a:2d},{b:3d})  {report.angles.alpha1:18.15f}  "
                f"{report.angles.beta1:18.15f}  {gap:13.2e}"
            )
    print("  " + "-" * 66)
    print(f"  worst deviation between solver and oracle: {worst_gap:.2e}")
    print()

    print("Beyond the admissible range:")
    for b in (8, 9):
        report = solve(SimplexParams(2, b))
        print(f"  (2, {b}) -> {report.status.value}")
    print()
    print("At b = 8 the inequality degenerates to equality and the only root")
    print("is the corner of the box itself, a simplex collapsed to zero")
    print("edge length; past it there is no root at all.")


if __name__ == "__main__":
    main()
