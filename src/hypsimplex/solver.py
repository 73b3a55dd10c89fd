"""Root finding for the edge-condition system.

The solve pipeline is: gate on the realization class, which alone decides
solvability, then locate the root of the two edge conditions in the box
[0, pi/a] x [0, pi/b] (alpha1 >= pi/3 at a = 2) by Newton's method with the
analytic Jacobian from _start's point, converged once a step is within one
unit of _units, 4 machine epsilons of the box's side, and verify the solved
angles geometrically (positivity, determinant sign, vertex classes, Gram
sign pattern) from conditions.gram_raw.  At a = 2 the second, improper root
is found on a closed-form curve through the roots.  A grid-based oracle
locates roots independently, each Newton run kept to its cell's
neighbourhood, and an interval bound proves the paper's damped map a
contraction on Newton's stop box, one unit per axis around the root.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import acos, asinh, inf, isfinite, nextafter, pi, sin, sqrt
from numbers import Integral
from sys import float_info
from typing import TYPE_CHECKING

from .conditions import (
    edge_conditions_factors,
    edge_conditions_raw,
    edge_jacobian_raw,
    edge_system_raw,
    gram_raw,
)
from .errors import InvalidClass, NoContraction
from .interval import Interval
from .model import (
    SINGULARITY_FACTOR,
    DihedralAngles,
    RealizationClass,
    Signature,
    SimplexParams,
    VertexClass,
    classify_realization,
)

if TYPE_CHECKING:
    from collections.abc import Callable

# Newton measures its steps in _units; a step within _NEAR units, 4
# sqrt(eps) of the box's side, is near convergence (see _newton).
_NEAR = 2.0**26
# grid_oracle multiplies the grid factors one tile of alpha1 node rows at a
# time.  A tile holds at most _TILE_NODES nodes (two node rows at least),
# whatever the resolution: 30 cell rows of a 401-node axis.  Each of its two
# float64 buffers, 96 KiB, stays under glibc's default 128 KiB mmap
# threshold, so it comes from the heap instead of being mapped and unmapped
# on every scan.  Measured with bench/run.py --workload oracle (6 s runs,
# two seeds): budgets of 8192, 12288, 16040 and 32768 nodes gave p50
# 0.47-0.50, 0.42-0.45, 0.51-0.56 and 0.61-0.66 ms and p90 1.12, 0.90-0.94,
# 0.97-1.02 and 0.95-0.97 ms, and from 16040 nodes on the scans page-fault
# again; the whole 401 x 401 grid read 0.54-0.58 and 1.98-2.04 ms.
_TILE_NODES = 12288
# The realization classes solve() accepts, whether or not they have a root.
_SOLVABLE = (RealizationClass.HYPERBOLIC_OUTER, RealizationClass.NO_PROPER_SOLUTION)


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

    def contains(self, alpha1: float, beta1: float) -> bool:
        return (
            self.alpha1_lo <= alpha1 <= self.alpha1_hi
            and self.beta1_lo <= beta1 <= self.beta1_hi
        )


@dataclass(frozen=True)
class SolverConfig:
    """Newton's step budget for solve(); the default suits every pair.

    Newton takes at most ``max_iterations`` steps.  Its stop has no
    setting: _newton derives it from the pair's box, and the certificate
    derives its damping from its box.
    Raises ValueError unless ``max_iterations`` is an int of at least 1.
    """

    max_iterations: int = 2000

    def __post_init__(self) -> None:
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
    derived from that box.  solve()'s box is Newton's stop box: one _units
    step per axis around the root, clamped at pi/a and pi/b.
    """

    k1: float
    k2: float
    norm_bound: float
    box: DomainBox


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
    def signature(self) -> Signature:
        """Inertia of the angle matrix from the signs of det and m1.

        Some angle lies inside (0, pi), so the matrix has a positive definite
        2x2 principal block and, by Cauchy interlacing, at least two positive
        eigenvalues.  The sign of det fixes the parity of the negative ones,
        and the sign of m1 the inertia of the 3x3 block without vertex 1.
        """
        proper = self.vertex_classes[1] is VertexClass.PROPER
        if self.determinant < 0:
            return Signature(3, 1, 0)
        if self.determinant > 0:
            return Signature(*((4, 0, 0) if proper else (2, 2, 0)))
        return Signature(*((3, 0, 1) if proper else (2, 1, 1)))


@dataclass(frozen=True)
class GridRoot:
    """A root grid_oracle kept, with both edge conditions at it."""

    alpha1: float
    beta1: float
    residual1: float
    residual2: float


@dataclass(frozen=True)
class SolveReport:
    """What solve() found.  ``improper_roots`` lists the (alpha1, beta1) roots
    outside domain_for's box: at a = 2 the second root, with det >= 0; else ()."""

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
    """Search box of the proper root: [0, pi/a] x [0, pi/b], cut to
    alpha1 >= pi/3 at a = 2.

    At a = 2 every root with a nonzero vertex minor lies on the curve
    cos alpha1 = sin beta1/(2 sin beta2), which passes alpha1 = pi/3 at
    beta1 = 2 pi/(3b).  That point separates the proper root from the
    second, improper root, and _second_root's path starts there.  For
    a >= 3 the full box holds one root: the full-box grid_oracle at
    resolution 400 finds exactly one on every admissible pair, a = 3..20.
    """
    alpha_lo = pi / 3 if params.a == 2 else 0.0
    return DomainBox(alpha_lo, pi / params.a, 0.0, pi / params.b)


def estimate_contraction(params: SimplexParams, box: DomainBox) -> ContractionEstimate:
    """Prove the damped update map a sup-norm contraction on a box.

    Evaluates the Jacobian of (alpha1, beta1) -> (alpha1 + c1/k1,
    beta1 + c2/k2) once on the whole box in outward-rounded interval
    arithmetic, so the worst absolute row sum bounds every point of the
    box, not only sampled ones.  The box is not split: callers that need a
    smaller box pass one.

    The damping is k_i = 2 * mag(d_i), with d_i the interval of
    dc_i/dx_i and e_i that of the cross derivative over the box; d_i comes
    out of outward-rounded operations, so it is never the point 0 and k_i
    is above 0.  Then 1 + d_i/k_i stays in [1/2, 3/2] and a row sum is
    1 + (max d_i + mag(e_i))/k_i: below one it grows with k_i, at or above
    one it stays there for every k_i, so no larger damping gives a tighter
    bound.  Raises NoContraction when the bound is not below one; on the
    domain box of domain_for it never is, since the first condition's
    derivative loses its sign on the alpha1 = pi/a edge — certificates
    exist only on smaller boxes around the root.
    """
    a, b = params.a, params.b
    x = Interval(box.alpha1_lo, box.alpha1_hi)
    y = Interval(box.beta1_lo, box.beta1_hi)
    (d1, e1), (e2, d2) = edge_jacobian_raw(x, y, a, b)
    k1 = 2.0 * d1.mag()
    k2 = 2.0 * d2.mag()
    row_sum = max(
        (1 + d1 / k1).mag() + (e1 / k1).mag(), (e2 / k2).mag() + (1 + d2 / k2).mag()
    )
    # The sum of the two magnitudes rounds to nearest; step up past it.
    bound = nextafter(row_sum, inf)
    if not bound < 1.0:
        raise NoContraction(
            f"damped-map bound {bound:.6g} is not below 1 on the given box "
            f"for (a, b) = ({a}, {b})"
        )
    return ContractionEstimate(k1, k2, bound, box)


def contraction_map(
    params: SimplexParams, box: DomainBox, k1: float, k2: float
) -> Callable[[float, float], tuple[float, float]]:
    """The paper's damped, box-clamped update map.

    Its fixed point is the root; estimate_contraction certifies this map.
    solve() itself runs Newton's method.
    """
    a, b = params.a, params.b

    def step(alpha1: float, beta1: float) -> tuple[float, float]:
        c1, c2 = edge_conditions_raw(alpha1, beta1, a, b)
        return box.clamp(alpha1 + c1 / k1, beta1 + c2 / k2)

    return step


def _units(params: SimplexParams) -> tuple[float, float]:
    """Newton's unit of length per axis: 4 eps times the box's side, pi/a in
    alpha1 and pi/b in beta1, so it shrinks with the angles as a grows."""
    return tuple(4.0 * float_info.epsilon * pi / n for n in (params.a, params.b))


def _newton(params: SimplexParams, start: tuple[float, float], config: SolverConfig,
            region: DomainBox | None = None) -> tuple[tuple[float, float], int, bool]:
    """Newton's method on both edge conditions; returns (point, steps,
    converged), converged meaning that its stop fired.

    Each step takes the conditions and the Jacobian from one edge_system_raw
    call, and is measured in _units in each coordinate.  Newton stops once a
    step is at most one unit.  It also stops once a step is larger than the
    square root of the one before, if that one was at most _NEAR units: a
    step that near which does not shrink quadratically is rounding, as near
    the a = 2 second roots or on the linear approach into the alpha1 ~ 0
    valley of an a = 2 full box (3 of grid_oracle's 1573 runs on
    tests/fingerprint.py's scans, none of solve()'s).  A step out of
    ``region``, if given, a singular or non-finite Jacobian or step, or
    config.max_iterations steps end it unconverged at the last iterate.
    """
    a, b = params.a, params.b
    x, y = start
    x_unit, y_unit = _units(params)
    last = inf
    for step in range(1, config.max_iterations + 1):
        (f1, f2), ((j11, j12), (j21, j22)) = edge_system_raw(x, y, a, b)
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not isfinite(det):
            return (x, y), step - 1, False
        dx = (f1 * j22 - f2 * j12) / det
        dy = (j11 * f2 - j21 * f1) / det
        if not (isfinite(dx) and isfinite(dy)):
            return (x, y), step - 1, False
        x, y = x - dx, y - dy
        if region is not None and not region.contains(x, y):
            return (x, y), step, False
        size = max(abs(dx) / x_unit, abs(dy) / y_unit)
        if size <= 1.0 or (last <= _NEAR and size * size > last):
            return (x, y), step, True
        last = size
    return (x, y), config.max_iterations, False


def _sign_change_cells(grid):
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
) -> list[GridRoot]:
    """Independent root locator: sign-change cells plus Newton per cell.

    Multiplies the factors of edge_conditions_factors one tile of alpha1
    node rows at a time (see _TILE_NODES), each sharing its last node row
    with the next, so no whole grid is ever held.  Flags, in row-major
    order, every cell on which both edge conditions change sign (some
    corner <= 0 and some corner >= 0).  A tile on which the first condition
    has one strict sign (min > 0 or max < 0) holds no such cell and is
    skipped before the second condition's tile is multiplied.  Newton runs
    from the centre of each flagged cell whose neighbourhood (the cell and
    its eight neighbours, clipped to the box) holds no root kept yet, and a
    step out of that neighbourhood ends the run.  A point is kept when
    Newton's stop fired and it lies more than _NEAR _units inside the box
    on both axes: one nearer the edge counts as on it, as do the rounding
    artefacts of the alpha1 ~ 0 valley on every a = 2 full box.  Each kept
    root's residuals are evaluated once.  Raises ValueError unless
    ``resolution`` (cells per side) is an int of at least 1.
    """
    import numpy as np

    integral = isinstance(resolution, Integral) and not isinstance(resolution, bool)
    if not (integral and resolution >= 1):
        raise ValueError(f"resolution must be an int of at least 1, got {resolution!r}")
    box = box or domain_for(params)
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution + 1)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution + 1)
    (u1, v1), (u2, v2) = edge_conditions_factors(al, be, params.a, params.b)
    rows = max(1, _TILE_NODES // (resolution + 1) - 1)
    tile1 = np.empty((rows + 1, resolution + 1))
    tile2 = np.empty_like(tile1)
    flagged = []
    for i0 in range(0, resolution, rows):
        m = min(rows, resolution - i0) + 1
        g1 = np.matmul(u1[i0 : i0 + m], v1, out=tile1[:m])
        if g1.min() > 0.0 or g1.max() < 0.0:
            continue
        g2 = np.matmul(u2[i0 : i0 + m], v2, out=tile2[:m])
        cells = np.flatnonzero(_sign_change_cells(g1) & _sign_change_cells(g2))
        flagged += (cells + i0 * resolution).tolist()
    al, be = al.tolist(), be.tolist()
    x_near, y_near = (_NEAR * unit for unit in _units(params))
    config = SolverConfig()
    roots: list[GridRoot] = []
    for cell in flagged:
        i, j = divmod(cell, resolution)
        near = DomainBox(al[max(i - 1, 0)], al[min(i + 2, resolution)],
                         be[max(j - 1, 0)], be[min(j + 2, resolution)])
        if any(near.contains(r.alpha1, r.beta1) for r in roots):
            continue
        center = (0.5 * (al[i] + al[i + 1]), 0.5 * (be[j] + be[j + 1]))
        (x, y), _, converged = _newton(params, center, config, near)
        if converged and (min(x - box.alpha1_lo, box.alpha1_hi - x) > x_near
                          and min(y - box.beta1_lo, box.beta1_hi - y) > y_near):
            roots.append(GridRoot(x, y, *edge_conditions_raw(x, y, params.a, params.b)))
    roots.sort(key=lambda r: (r.alpha1, r.beta1))
    return roots


def check_properness(params: SimplexParams, angles: DihedralAngles) -> PropernessReport:
    """Geometric verification of an angle tuple from conditions.gram_raw.

    With det < 0, g_ij < 0 reads cof_ij > 0.  gram_signs also needs det below
    -SINGULARITY_FACTOR, where matrices.inverse refuses the matrix
    (no entry exceeds 1 in absolute value).  Each length is asinh(sqrt(-det)
    sin theta / sqrt(m_i m_j)), theta as in gram_raw; arccosh of the Gram
    ratio would lose the digits of short edges.
    """
    det, m0, m1, cofactors = gram_raw(*angles.as_tuple())
    outer, proper, ideal = VertexClass.OUTER, VertexClass.PROPER, VertexClass.IDEAL
    classes = tuple(outer if m < 0 else proper if m > 0 else ideal for m in (m0, m1, m0, m1))
    gram_signs = det < -SINGULARITY_FACTOR and all(c > 0 for c in cofactors)
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


def _second_root(params: SimplexParams, config: SolverConfig) -> tuple[tuple[float, float], ...]:
    """The improper second root of an a = 2 pair, or () if Newton fails.

    Every root with a nonzero vertex minor lies on s1 t1 = s2 t2 (s_i, t_i
    the sines of alpha_i, beta_i).  At a = 2, s2 = 2 s1 cos alpha1, so less
    the valley factor s1 the curve is cos alpha1 = t1/(2 t2).  Its path in
    beta1 runs from 2 pi/(3b), on domain_for's alpha1 = pi/3 edge, and is
    clamped to alpha1 = 0 once t1/(2 t2) reaches 1, where c1 = -(1 - cos
    beta1)^2 t1^2 < 0.  For b = 3..7, the a = 2 pairs solved, c1 > 0 at the
    start and changes sign once on the path: a finite check on 200 000
    nodes per pair.  The bracket is halved until it is at most _NEAR _units
    wide in beta1, where _newton's steps shrink quadratically; b cancels,
    so that is 23 halvings at every b.  Newton starts at the last midpoint.
    """
    b = params.b
    lo, hi = 2.0 * pi / (3 * b), pi / b
    y_near = _NEAR * _units(params)[1]
    while hi - lo > y_near:
        y = 0.5 * (lo + hi)
        x = acos(min(1.0, sin(y) / (2.0 * sin(2.0 * pi / b - 2.0 * y))))
        lo, hi = (y, hi) if edge_conditions_raw(x, y, 2, b)[0] > 0.0 else (lo, y)
    root, _, converged = _newton(params, (x, y), config)
    return (root,) if converged else ()


def _solved_report(
    params: SimplexParams,
    root: tuple[float, float],
    iterations: int,
    config: SolverConfig,
) -> SolveReport:
    a, b = params.a, params.b
    x, y = root
    r1, r2 = edge_conditions_raw(x, y, a, b)
    angles = DihedralAngles.from_reduced(params, x, y)
    properness = check_properness(params, angles)
    ux, uy = _units(params)
    box = DomainBox(x - ux, min(pi / a, x + ux), y - uy, min(pi / b, y + uy))
    try:
        certificate = estimate_contraction(params, box)
        norm_bound, certificate_box = certificate.norm_bound, certificate.box
    except NoContraction:
        norm_bound = certificate_box = None
    improper = _second_root(params, config) if a == 2 else ()
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


def _start(params: SimplexParams, box: DomainBox) -> tuple[float, float]:
    """Newton's start for solve(): the pair's asymptotic root where known.

    With rho = b/a, a alpha1 and b beta1 tend to 2 pi (2 rho - 1)/(3 rho)
    and 2 pi (2 - rho)/3 as a grows, the relative error falling as 1/a^2;
    for a >= 3 and b < 2a that limit, inside the box for 1/2 <= rho <= 2,
    is the start.  On b = 2a the limit's beta1 is 0 and the root collapses
    into the corner (pi/a, 0): alpha1 = pi/a - pi^3/(12 a^3) and beta1 =
    pi^3/(6 a^3) to leading order.  Elsewhere, at a = 2 and on the pairs
    with b > 2a, where the limit's beta1 is negative, Newton starts at the
    box's centre.
    """
    a, b = params.a, params.b
    if a == 2 or b > 2 * a:
        return box.center
    if b == 2 * a:
        return pi / a - pi**3 / (12 * a**3), pi**3 / (6 * a**3)
    rho = b / a
    return 2 * pi * (2 * rho - 1) / (3 * rho * a), 2 * pi * (2 - rho) / (3 * b)


def solve(params: SimplexParams, config: SolverConfig | None = None) -> SolveReport:
    """Decide solvability and solve the edge-condition system.

    Raises InvalidClass unless the pair classifies as hyperbolic with
    vertices out of the absolute or as the unsolvable remainder.  The class
    decides solvability exactly (see classify_realization); the one pair on
    the boundary between the two reports the degenerate corner root as a
    boundary solution.  Otherwise Newton runs from _start's point with no
    region, since from the box centre at (2, 7), (3, 7) and (3, 8) it leaves
    the box and comes back, and the result is DIVERGED unless it converges
    inside the box.
    """
    cfg = config or SolverConfig()
    cls = classify_realization(params)
    if cls not in _SOLVABLE:
        raise InvalidClass(
            f"solve applies to hyperbolic pairs with outer vertices; "
            f"(a, b) = ({params.a}, {params.b}) classifies as {cls.value}"
        )
    # At a = 2 the realizability inequality reads sin y > cos y, y = 2 pi/b,
    # with equality only at b = 8, where the corner (pi/2, 0) is the only
    # root in domain_for's box; for a >= 3 it holds at no integer b (_b_max).
    if params.a == 2 and params.b == 8:
        angles = DihedralAngles.from_reduced(params, pi / params.a, 0.0)
        r1, r2 = edge_conditions_raw(pi / params.a, 0.0, params.a, params.b)
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
    root, steps, converged = _newton(params, _start(params, box), cfg)
    if converged and box.contains(*root):
        return _solved_report(params, root, steps, cfg)
    return SolveReport(SolveStatus.DIVERGED, iterations=steps)
