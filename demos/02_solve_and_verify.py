"""Solve one simplex and verify the answer geometrically.

Solving means finding the two free dihedral angles (the other two follow
from linear constraints) at which both edge conditions vanish, so that the
identified edges of the fundamental simplex really have matching lengths.
A solution is only trusted after the metric checks pass: the angle matrix
must have hyperbolic signature, every vertex must classify as lying beyond
the absolute, the inverse matrix must carry the right sign pattern, and
the edge lengths forced equal must come out equal.
"""

from math import pi

from hypsimplex import (
    SimplexParams,
    build_coxeter_schlafli,
    classify_vertex,
    determinant,
    inverse,
    projective_distance,
    signature,
    solve,
)


def show_pair(a: int, b: int) -> None:
    params = SimplexParams(a, b)
    report = solve(params)
    angles = report.angles
    print(f"Pair (a, b) = ({a}, {b})")
    print("-" * 54)
    print(f"  status      : {report.status.value}")
    print(f"  alpha1      : {angles.alpha1:.15f}  ({angles.alpha1 * 180 / pi:10.6f} deg)")
    print(f"  alpha2      : {angles.alpha2:.15f}  ({angles.alpha2 * 180 / pi:10.6f} deg)")
    print(f"  beta1       : {angles.beta1:.15f}  ({angles.beta1 * 180 / pi:10.6f} deg)")
    print(f"  beta2       : {angles.beta2:.15f}  ({angles.beta2 * 180 / pi:10.6f} deg)")
    print(f"  residuals   : {report.residual_cond1:+.2e}, {report.residual_cond2:+.2e}")
    print(f"  iterations  : {report.iterations}")

    matrix = build_coxeter_schlafli(angles)
    gram = inverse(matrix)
    print("  verification:")
    print(f"    det         = {determinant(matrix):+.6f} (must be negative)")
    print(f"    signature   = {signature(matrix).as_tuple()} (must be (3, 1, 0))")
    vertices = [classify_vertex(matrix, v).value for v in range(4)]
    print(f"    vertices    = {vertices}")
    signs = [gram[i, j] for i, j in ((0, 1), (0, 2), (0, 3), (1, 3))]
    print(f"    gram signs  = {['%+.4f' % s for s in signs]} (all negative)")

    dist = {
        (i, j): projective_distance(gram, i, j)
        for i, j in ((0, 1), (0, 2), (2, 3), (0, 3), (1, 2), (1, 3))
    }
    print("    edge lengths (identified edges must agree):")
    print(f"      short class  d01 = {dist[(0, 1)]:.12f}")
    print(f"                   d02 = {dist[(0, 2)]:.12f}")
    print(f"                   d23 = {dist[(2, 3)]:.12f}")
    print(f"      long class   d03 = {dist[(0, 3)]:.12f}")
    print(f"                   d12 = {dist[(1, 2)]:.12f}")
    print(f"                   d13 = {dist[(1, 3)]:.12f}")
    print(f"  all proper  : {report.properness.all_pass}")
    print()


def main() -> None:
    show_pair(2, 4)
    show_pair(5, 9)
    print("The short/long split is the defining property of the family:")
    print("three of the six edges share one length, three share another.")


if __name__ == "__main__":
    main()
