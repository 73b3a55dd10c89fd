"""Which parameter pairs admit a properly realizable simplex?

The family has one simplex shape per integer pair (a, b) with b >= a >= 1.
Small parameters land in spherical or ideal-vertex territory, the diagonal
a = b is excluded by symmetry, and for everything else a single strict
trigonometric inequality decides whether the simplex can be realized with
all four vertices beyond the absolute.  For each a the admissible b form a
contiguous range (a, bmax(a)]; this script maps that landscape.
"""

from hypsimplex import (
    SimplexParams,
    classify_realization,
    compute_bmax,
    corner_value,
    normalize_params,
    realizability_inequality,
)


def main() -> None:
    print("Classification of small parameter pairs")
    print("=" * 54)
    for a, b in [(1, 1), (1, 4), (2, 2), (3, 3), (2, 3), (2, 7), (2, 8), (2, 9), (6, 12)]:
        cls = classify_realization(SimplexParams(a, b))
        print(f"  (a, b) = ({a:2d}, {b:2d})  ->  {cls.value}")

    print()
    print("Parameter order does not matter:")
    p = normalize_params(9, 2)
    print(f"  normalize_params(9, 2) -> (a, b) = ({p.a}, {p.b}), swapped = {p.swapped}")

    print()
    print("The realizability inequality, numerically")
    print("=" * 54)
    print(f"  {'pair':>8}   {'lhs':>12}  {'rhs':>12}  strict?")
    for a, b in [(2, 7), (2, 8), (2, 9), (5, 11), (5, 12)]:
        lhs, rhs, strict = realizability_inequality(SimplexParams(a, b))
        print(f"  ({a:2d}, {b:2d})   {lhs:12.8f}  {rhs:12.8f}  {strict}")
    print("  ((2, 8) is the exact equality case: lhs - rhs = sin(pi/4) - cos(pi/4)")
    print("   is zero, which is why its range ends at b = 7.)")

    print()
    print("Equivalent corner-value discriminant")
    print("=" * 54)
    print("  The value of the second edge condition at the corner (pi/a, 0)")
    print("  equals (lhs - rhs)(lhs + rhs), so its sign repeats the decision:")
    print("  positive means solvable, zero degenerate, negative unsolvable.")
    for a, b in [(2, 7), (2, 8), (2, 9)]:
        print(f"  corner value ({a}, {b}) = {corner_value(SimplexParams(a, b)):+.3e}")

    print()
    print("Largest admissible b for each a")
    print("=" * 54)
    for a in range(2, 13):
        bmax = compute_bmax(a)
        count = bmax - a
        print(f"  a = {a:2d}:  b in ({a}, {bmax}]   ({count} admissible values)")
    print()
    print("  From a = 6 on, b_max = 2a exactly: lhs - rhs falls as b grows, is")
    print("  positive at b = 2a and negative at b = 2a + 1 (model._b_max proves")
    print("  it), so the corner value at b = 2a + 1 is negative for every a >= 6.")


if __name__ == "__main__":
    main()
