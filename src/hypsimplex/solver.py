"""Root finding for the edge-condition system.

The solve pipeline is: gate on the realization class, which alone decides
solvability, then locate the root of the two edge conditions by Newton's
method with the analytic Jacobian, started from the centre of the reduced
domain box, and finally verify the solved angles geometrically
(positivity, determinant sign, vertex classes, Gram sign pattern) from
the closed forms of conditions.gram_raw.  A grid-based oracle provides an
independent root locator for cross-checking, and an interval-arithmetic
bound proves the paper's damped fixed-point map a contraction on a box
around the root.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import asinh, hypot, inf, isfinite, nextafter, pi, sin, sqrt
from numbers import Integral, Real

import numpy as np

from . import matrices
from .conditions import edge_conditions_raw, edge_jacobian_raw, gram_raw
from .errors import InvalidClass, NoContraction
from .interval import Interval
from .model import (
    DihedralAngles,
    RealizationClass,
    SimplexParams,
    VertexClass,
    classify_realization,
)

ORACLE_RESIDUAL_TOL = 1e-9
# solve() certifies each root on one box of radius _CERTIFICATE_RADIUS *
# |coordinate|.  2**-30 is wide next to the few ulps of rounding in the
# interval kernels and narrow next to how much the Jacobian varies across
# the box.  Measured with one box per root: every radius from 2**-17 to
# 2**-53 certifies all 536 pairs of bench/refs.json (largest bound
# 0.994834), and 2**-30 certifies all 2986 admissible pairs with a <= 60 or
# a in {100, 150, 200, 300, 400} (largest bound 0.99935), so no wider
# search is needed.
_CERTIFICATE_RADIUS = 2.0**-30


class SolveStatus(enum.Enum):
    SOLVED = "Solved"
    NO_PROPER_SOLUTION = "NoProperSolution"
    BOUNDARY_SOLUTION = "BoundarySolution"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class DomainBox:
    """Closed box in (alpha1, beta1), lower end below upper end on each axis."""

    alpha1_lo: float
    alpha1_hi: float
    beta1_lo: float
    beta1_hi: float

    def __post_init__(self) -> None:
        if not (self.alpha1_lo < self.alpha1_hi and self.beta1_lo < self.beta1_hi):
            raise ValueError("degenerate domain box")

    @property
    def center(self) -> tuple[float, float]:
        return (
            0.5 * (self.alpha1_lo + self.alpha1_hi),
            0.5 * (self.beta1_lo + self.beta1_hi),
        )

    def clamp(self, alpha1: float, beta1: float) -> tuple[float, float]:
        return (
            min(max(alpha1, self.alpha1_lo), self.alpha1_hi),
            min(max(beta1, self.beta1_lo), self.beta1_hi),
        )

    def contains(self, alpha1: float, beta1: float, slack: float = 0.0) -> bool:
        return (
            self.alpha1_lo - slack <= alpha1 <= self.alpha1_hi + slack
            and self.beta1_lo - slack <= beta1 <= self.beta1_hi + slack
        )


@dataclass(frozen=True)
class SolverConfig:
    """Newton's stopping rule for solve(); the defaults suit every pair.

    Newton stops once a step is at most ``angle_tolerance`` and succeeds
    only if both residuals are then below ``tolerance``; it takes at most
    ``max_iterations`` steps.  The contraction certificate has no settings:
    estimate_contraction derives its damping from the box.
    Raises ValueError for a value outside those meanings.
    """

    tolerance: float = 1e-11
    angle_tolerance: float = 1e-12
    max_iterations: int = 2000

    def __post_init__(self) -> None:
        for name in ("tolerance", "angle_tolerance"):
            value = getattr(self, name)
            real = isinstance(value, Real) and not isinstance(value, bool)
            if not (real and isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number above 0, got {value!r}")
        steps = self.max_iterations
        if not (isinstance(steps, int) and not isinstance(steps, bool) and steps >= 1):
            raise ValueError(f"max_iterations must be an int of at least 1, got {steps!r}")


@dataclass(frozen=True)
class ContractionEstimate:
    """Proven sup-norm bound on the Jacobian of the damped update map.

    ``norm_bound`` is an upper bound, by outward-rounded interval
    arithmetic, of the largest absolute row sum of the Jacobian of
    (alpha1, beta1) -> (alpha1 + c1/k1, beta1 + c2/k2) over every point of
    ``box``, with the damping ``k1``, ``k2`` that estimate_contraction
    derived from that box; ``resolution`` is the number of cells per side
    the box was split into.
    """

    k1: float
    k2: float
    norm_bound: float
    box: DomainBox
    resolution: int


@dataclass(frozen=True)
class PropernessReport:
    """Geometric verification of one angle tuple.

    The flags: every angle lies in (0, pi), the angle matrix has a negative
    ``determinant``, every vertex is OUTER, and the Gram entries g01, g02,
    g03, g13 of its inverse are negative.  ``vertex_classes`` lists vertices
    0..3 by the sign of their minor (m0 for vertices 0 and 2, m1 for 1 and
    3): OUTER below zero, PROPER above, IDEAL at zero.  ``edge_lengths`` is
    ((d01, d02), (d03, d13)) when gram_signs holds and m0 m1 > 0, else None.
    """

    angles_positive: bool
    determinant_negative: bool
    vertices_outer: bool
    gram_signs: bool
    determinant: float
    vertex_classes: tuple[VertexClass, VertexClass, VertexClass, VertexClass]
    edge_lengths: tuple[tuple[float, float], tuple[float, float]] | None

    @property
    def all_pass(self) -> bool:
        return all((self.angles_positive, self.determinant_negative,
                    self.vertices_outer, self.gram_signs))

    @property
    def signature(self) -> matrices.Signature:
        """Inertia of the angle matrix from the signs of det and m1.

        Some angle lies inside (0, pi), so the matrix has a positive definite
        2x2 principal block and, by Cauchy interlacing, at least two positive
        eigenvalues.  The sign of det fixes the parity of the negative ones,
        and the sign of m1 the inertia of the 3x3 block without vertex 1.
        """
        proper = self.vertex_classes[1] is VertexClass.PROPER
        if self.determinant < 0:
            return matrices.Signature(3, 1, 0)
        if self.determinant > 0:
            return matrices.Signature(*((4, 0, 0) if proper else (2, 2, 0)))
        return matrices.Signature(*((3, 0, 1) if proper else (2, 1, 1)))


@dataclass(frozen=True)
class GridRoot:
    alpha1: float
    beta1: float
    residual1: float
    residual2: float


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    angles: DihedralAngles | None = None
    residual_cond1: float | None = None
    residual_cond2: float | None = None
    iterations: int = 0
    contraction_norm_estimate: float | None = None
    properness: PropernessReport | None = None
    improper_roots: tuple[tuple[float, float], ...] = ()
    certificate_box: DomainBox | None = None


def domain_for(params: SimplexParams) -> DomainBox:
    """Reduced search box containing exactly the proper root.

    For the two smallest families part of the nominal alpha1 range is
    excluded analytically (no proper solution lives there), which also cuts
    away the second, improper root of the (2, 3) system.
    """
    a, b = params.a, params.b
    if a == 2:
        alpha_lo, alpha_hi = pi / 3, pi / 2
    elif a == 3:
        alpha_lo, alpha_hi = pi / 12, pi / 3
    else:
        alpha_lo, alpha_hi = 0.0, pi / a
    return DomainBox(alpha_lo, alpha_hi, 0.0, pi / b)


def _eval_conditions(alpha1: float, beta1: float, a: int, b: int) -> tuple[float, float]:
    c1, c2 = edge_conditions_raw(alpha1, beta1, a, b)
    return float(c1), float(c2)


def _check_resolution(resolution) -> None:
    if not (
        isinstance(resolution, Integral)
        and not isinstance(resolution, bool)
        and resolution >= 1
    ):
        raise ValueError(f"resolution must be an int of at least 1, got {resolution!r}")


def estimate_contraction(
    params: SimplexParams,
    box: DomainBox | None = None,
    resolution: int = 8,
) -> ContractionEstimate:
    """Prove the damped update map a sup-norm contraction on a box.

    Splits the box into resolution x resolution cells (``resolution``
    counts cells per side) and evaluates the Jacobian of
    (alpha1, beta1) -> (alpha1 + c1/k1, beta1 + c2/k2) on each cell in
    outward-rounded interval arithmetic, so the worst absolute row sum
    bounds every point of the box, not only sampled ones.

    The damping is k_i = max(2 * mag(d_i), 1e-3), with d_i the interval
    of dc_i/dx_i and e_i that of the cross derivative over the box.  Then
    1 + d_i/k_i stays in [1/2, 3/2] and a row sum is
    1 + (max d_i + mag(e_i))/k_i: below one it grows with k_i, at or above
    one it stays there for every k_i, so no larger damping gives a tighter
    bound.  Raises NoContraction when the bound is not below one; on the
    full domain box it never is, since the first condition's derivative
    loses its sign on the alpha1 = pi/a edge — certificates exist only on
    smaller boxes around the root.  Raises ValueError unless
    ``resolution`` is an int of at least 1.
    """
    _check_resolution(resolution)
    box = box or domain_for(params)
    a, b = params.a, params.b
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution + 1)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution + 1)
    cells = []
    for i in range(resolution):
        x = Interval(al[i], al[i + 1])
        for j in range(resolution):
            y = Interval(be[j], be[j + 1])
            cells.append(edge_jacobian_raw(x, y, a, b))
    k1 = max(2.0 * max(d1.mag() for (d1, _), _ in cells), 1e-3)
    k2 = max(2.0 * max(d2.mag() for _, (_, d2) in cells), 1e-3)
    row_sum = max(
        max((1 + d1 / k1).mag() + (e1 / k1).mag(), (e2 / k2).mag() + (1 + d2 / k2).mag())
        for (d1, e1), (e2, d2) in cells
    )
    # The sum of the two magnitudes rounds to nearest; step up past it.
    bound = nextafter(row_sum, inf)
    if not bound < 1.0:
        raise NoContraction(
            f"damped-map bound {bound:.6g} is not below 1 on the given box "
            f"for (a, b) = ({a}, {b})"
        )
    return ContractionEstimate(k1, k2, bound, box, resolution)


def contraction_map(
    params: SimplexParams, box: DomainBox, k1: float, k2: float
) -> "callable":
    """The paper's damped, box-clamped update map.

    Its fixed point is the root; estimate_contraction certifies this map.
    solve() itself runs Newton's method.
    """
    a, b = params.a, params.b

    def step(alpha1: float, beta1: float) -> tuple[float, float]:
        c1, c2 = _eval_conditions(alpha1, beta1, a, b)
        return box.clamp(alpha1 + c1 / k1, beta1 + c2 / k2)

    return step


def _newton(
    params: SimplexParams, start: tuple[float, float], config: SolverConfig
) -> tuple[tuple[float, float], int, bool]:
    """Newton's method on both edge conditions; returns (point, steps, converged).

    Stops once a step is at most config.angle_tolerance in both coordinates
    and converges only if both residuals are then below config.tolerance.
    A singular or non-finite Jacobian or step ends it unconverged at the
    last finite iterate.
    """
    a, b = params.a, params.b
    x, y = start
    for step in range(1, config.max_iterations + 1):
        f1, f2 = _eval_conditions(x, y, a, b)
        (j11, j12), (j21, j22) = edge_jacobian_raw(x, y, a, b)
        # The kernel returns numpy scalars; solve() reports Python floats.
        j11, j12, j21, j22 = float(j11), float(j12), float(j21), float(j22)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not isfinite(det):
            return (x, y), step - 1, False
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        if not (isfinite(dx) and isfinite(dy)):
            return (x, y), step - 1, False
        x, y = x - dx, y - dy
        if max(abs(dx), abs(dy)) <= config.angle_tolerance:
            r1, r2 = _eval_conditions(x, y, a, b)
            return (x, y), step, max(abs(r1), abs(r2)) < config.tolerance
    return (x, y), config.max_iterations, False


def _sign_change_cells(grid: np.ndarray) -> np.ndarray:
    """Cells of a grid of values with some corner <= 0 and some corner >= 0.

    The boolean masks are reduced over views of neighbouring rows, then of
    neighbouring columns; on finite values this is the four-corner test
    min <= 0 <= max.
    """

    def any_corner(mask):
        rows = mask[:-1] | mask[1:]
        return rows[:, :-1] | rows[:, 1:]

    return any_corner(grid <= 0.0) & any_corner(grid >= 0.0)


def grid_oracle(
    params: SimplexParams,
    resolution: int = 200,
    box: DomainBox | None = None,
    config: SolverConfig | None = None,
) -> list[GridRoot]:
    """Independent root locator: sign-change cells plus Newton per cell.

    Flags every grid cell on which both edge conditions change sign (some
    corner <= 0 and some corner >= 0), runs Newton from the centre of each
    flagged cell, accepts a converged point at most three cell diagonals
    from that centre, polishes it with a second Newton run, and keeps
    deduplicated points inside the box whose residuals clear the oracle
    tolerance.  Raises ValueError unless ``resolution`` (cells per side) is
    an int of at least 1.
    """
    _check_resolution(resolution)
    cfg = config or SolverConfig()
    box = box or domain_for(params)
    a, b = params.a, params.b
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution + 1)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution + 1)
    g1, g2 = edge_conditions_raw(al[:, None], be[None, :], a, b)
    flagged = _sign_change_cells(g1) & _sign_change_cells(g2)
    roots: list[GridRoot] = []
    for i, j in zip(*np.nonzero(flagged)):
        center = (0.5 * (al[i] + al[i + 1]), 0.5 * (be[j] + be[j + 1]))
        (x, y), _, converged = _newton(params, center, cfg)
        diag = hypot(al[i + 1] - al[i], be[j + 1] - be[j])
        if not (converged and hypot(x - center[0], y - center[1]) <= 3.0 * diag):
            continue
        (x, y), _, _ = _newton(params, (x, y), cfg)
        r1, r2 = _eval_conditions(x, y, a, b)
        if max(abs(r1), abs(r2)) >= ORACLE_RESIDUAL_TOL:
            continue
        if not box.contains(x, y, slack=1e-9):
            continue
        if any(hypot(x - r.alpha1, y - r.beta1) < 1e-7 for r in roots):
            continue
        roots.append(GridRoot(float(x), float(y), r1, r2))
    roots.sort(key=lambda r: (r.alpha1, r.beta1))
    return roots


def check_properness(params: SimplexParams, angles: DihedralAngles) -> PropernessReport:
    """Geometric verification of an angle tuple from conditions.gram_raw.

    With det < 0, g_ij < 0 reads cof_ij > 0.  gram_signs also needs det below
    -matrices.SINGULARITY_FACTOR, where matrices.inverse refuses the matrix
    (no entry exceeds 1 in absolute value).  Each length is asinh(sqrt(-det)
    sin theta / sqrt(m_i m_j)), theta as in gram_raw; arccosh of the Gram
    ratio would lose the digits of short edges.
    """
    det, m0, m1, cofactors = gram_raw(*angles.as_tuple())
    det, m0, m1 = float(det), float(m0), float(m1)
    outer, proper, ideal = VertexClass.OUTER, VertexClass.PROPER, VertexClass.IDEAL
    classes = tuple(outer if m < 0 else proper if m > 0 else ideal for m in (m0, m1, m0, m1))
    gram_signs = det < -matrices.SINGULARITY_FACTOR and all(c > 0 for c in cofactors)
    lengths = None
    if gram_signs and m0 * m1 > 0:
        thetas = (angles.beta1, angles.alpha2, angles.alpha1, angles.beta2)
        scales = (sqrt(m0 * m1), abs(m0), sqrt(m0 * m1), abs(m1))
        d01, d02, d03, d13 = (asinh(sqrt(-det) * sin(t) / r) for t, r in zip(thetas, scales))
        lengths = ((d01, d02), (d03, d13))
    return PropernessReport(
        angles_positive=all(0.0 < v < pi for v in angles.as_tuple()),
        determinant_negative=det < 0.0,
        vertices_outer=m0 < 0 and m1 < 0,
        gram_signs=gram_signs,
        determinant=det,
        vertex_classes=classes,
        edge_lengths=lengths,
    )


def _improper_scan(
    params: SimplexParams, proper: tuple[float, float], config: SolverConfig
) -> tuple[tuple[float, float], ...]:
    """Sweep the full constraint box for roots other than the proper one.

    Only transversal zeros are reported: the origin corner of the a = 2
    family is an exact common zero of both conditions with a quartically
    flat neighborhood, and points in that valley clear any pure residual
    threshold without being genuine interior roots.  A non-singular
    Jacobian separates the two cases cleanly.
    """
    a, b = params.a, params.b
    full = DomainBox(0.0, pi / a, 0.0, pi / b)
    extras = []
    for root in grid_oracle(params, resolution=400, box=full, config=config):
        if hypot(root.alpha1 - proper[0], root.beta1 - proper[1]) < 1e-6:
            continue
        (j11, j12), (j21, j22) = edge_jacobian_raw(root.alpha1, root.beta1, a, b)
        if abs(j11 * j22 - j12 * j21) < 1e-8:
            continue
        extras.append((float(root.alpha1), float(root.beta1)))
    return tuple(extras)


def _solved_report(
    params: SimplexParams,
    root: tuple[float, float],
    iterations: int,
    config: SolverConfig,
) -> SolveReport:
    a, b = params.a, params.b
    x, y = root
    r1, r2 = _eval_conditions(x, y, a, b)
    angles = DihedralAngles.from_reduced(params, x, y)
    properness = check_properness(params, angles)
    rx, ry = _CERTIFICATE_RADIUS * abs(x), _CERTIFICATE_RADIUS * abs(y)
    box = DomainBox(x - rx, min(pi / a, x + rx), y - ry, min(pi / b, y + ry))
    try:
        certificate = estimate_contraction(params, box, resolution=1)
        norm_bound, certificate_box = certificate.norm_bound, certificate.box
    except NoContraction:
        norm_bound = certificate_box = None
    improper: tuple[tuple[float, float], ...] = ()
    if (a, b) == (2, 3):
        improper = _improper_scan(params, root, config)
    return SolveReport(
        status=SolveStatus.SOLVED,
        angles=angles,
        residual_cond1=r1,
        residual_cond2=r2,
        iterations=iterations,
        contraction_norm_estimate=norm_bound,
        properness=properness,
        improper_roots=improper,
        certificate_box=certificate_box,
    )


def solve(params: SimplexParams, config: SolverConfig | None = None) -> SolveReport:
    """Decide solvability and solve the edge-condition system.

    Raises InvalidClass unless the pair classifies as hyperbolic with
    vertices out of the absolute or as the unsolvable remainder.  The class
    decides solvability exactly (see classify_realization); the one pair on
    the boundary between the two reports the degenerate corner root as a
    boundary solution.  Otherwise Newton runs from the domain box centre,
    and the result is DIVERGED unless it converges inside the box.
    """
    cfg = config or SolverConfig()
    cls = classify_realization(params)
    if cls not in (RealizationClass.HYPERBOLIC_OUTER, RealizationClass.NO_PROPER_SOLUTION):
        raise InvalidClass(
            f"solve applies to hyperbolic pairs with outer vertices; "
            f"(a, b) = ({params.a}, {params.b}) classifies as {cls.value}"
        )
    # At a = 2 the realizability inequality reads sin y > cos y, y = 2 pi/b,
    # with equality only at b = 8, where the corner (pi/2, 0) is the only
    # root.  For a >= 3 equality holds at no integer b (model._b_max).
    if params.a == 2 and params.b == 8:
        angles = DihedralAngles.from_reduced(params, pi / params.a, 0.0)
        r1, r2 = _eval_conditions(pi / params.a, 0.0, params.a, params.b)
        return SolveReport(
            SolveStatus.BOUNDARY_SOLUTION,
            angles=angles,
            residual_cond1=r1,
            residual_cond2=r2,
            properness=check_properness(params, angles),
        )
    if cls is RealizationClass.NO_PROPER_SOLUTION:
        return SolveReport(SolveStatus.NO_PROPER_SOLUTION)

    box = domain_for(params)
    root, steps, converged = _newton(params, box.center, cfg)
    if converged and box.contains(*root):
        return _solved_report(params, root, steps, cfg)
    return SolveReport(SolveStatus.DIVERGED, iterations=steps)
