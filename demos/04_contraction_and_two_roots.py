"""The damped iteration, its contraction certificate, and a second root.

The paper's iteration is the map (x, y) -> (x + c1/k1, y + c2/k2): adding
a small multiple of each edge condition to its own coordinate.  Both
conditions decrease along their own coordinate near the root, so with
damping constants above twice the steepest slope the map is a local
contraction — something the package certifies numerically by sampling the
Jacobian over a shrinking box around the solved root.  solve() itself
finds the root by Newton's method; this damped map is the iteration the
certificate is about, traced here next to the root solve() returns.

The (2, 3) system also makes a nice cautionary tale: inside the full
constraint box it has TWO roots, and only one of them survives the
geometric verification.
"""

from hypsimplex import (
    DihedralAngles,
    DomainBox,
    NoContraction,
    SimplexParams,
    check_properness,
    contraction_map,
    domain_for,
    estimate_contraction,
    solve,
)


def iteration_trace() -> None:
    params = SimplexParams(2, 4)
    box = domain_for(params)
    step = contraction_map(params, box, k1=10.0, k2=10.0)
    report = solve(params)
    tx, ty = report.angles.alpha1, report.angles.beta1
    print("Damped fixed-point trace for (2, 4), k1 = k2 = 10:")
    x, y = box.center
    for it in range(61):
        if it % 10 == 0:
            err = max(abs(x - tx), abs(y - ty))
            print(f"  iter {it:3d}:  x = {x:.12f}  y = {y:.12f}  error = {err:.2e}")
        x, y = step(x, y)
    print()


def certificates() -> None:
    params = SimplexParams(2, 4)
    report = solve(params)
    x, y = report.angles.alpha1, report.angles.beta1

    print("Contraction certificates around the (2, 4) root:")
    try:
        estimate_contraction(params)
    except NoContraction:
        print("  full domain box : no certificate (the first condition's")
        print("                    slope changes sign on the far edge)")
    for radius in (0.05, 0.02, 0.01):
        box = DomainBox(x - radius, x + radius, y - radius, y + radius)
        try:
            est = estimate_contraction(params, box)
            print(
                f"  radius {radius:.3f}    : norm bound {est.norm_bound:.3f} "
                f"with k1 = {est.k1:.2f}, k2 = {est.k2:.2f}"
            )
        except NoContraction:
            print(f"  radius {radius:.3f}    : no certificate at this size")
    print(f"  solve() records : {report.contraction_norm_estimate:.3f}")
    print()


def two_roots() -> None:
    params = SimplexParams(2, 3)
    report = solve(params)
    print("The two roots of the (2, 3) system:")
    print(
        f"  proper   : ({report.angles.alpha1:.12f}, {report.angles.beta1:.12f})"
        f"  -> properness {report.properness.all_pass}"
    )
    for x, y in report.improper_roots:
        angles = DihedralAngles.from_reduced(params, x, y)
        verdict = check_properness(params, angles)
        print(
            f"  improper : ({x:.12f}, {y:.12f})"
            f"  -> properness {verdict.all_pass}"
            f" (determinant negative: {verdict.determinant_negative})"
        )
    print()
    print("The second root produces a matrix of the wrong signature: a")
    print("numerically valid solution of the equations that is not a")
    print("hyperbolic simplex.  The geometric verification is not optional.")


def main() -> None:
    iteration_trace()
    certificates()
    two_roots()


if __name__ == "__main__":
    main()
