"""Root finding for the edge-condition system.

The solve pipeline is: gate on the realization class, decide solvability
from the sign of the corner value, then locate the root of the two edge
conditions by Newton's method with the analytic Jacobian, started from the
centre of the reduced domain box, and finally verify the solved angles
geometrically (positivity, determinant sign, vertex classes, inverse-matrix
sign pattern).  A grid-based oracle provides an independent root locator
for cross-checking, and an interval-arithmetic bound proves the paper's
damped fixed-point map a contraction on a box around the root.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import hypot, inf, isfinite, nextafter, pi
from numbers import Real

import numpy as np

from . import matrices
from .conditions import (
    edge_condition1_cross_deriv_raw,
    edge_condition1_deriv_raw,
    edge_condition1_raw,
    edge_condition2_cross_deriv_raw,
    edge_condition2_deriv_raw,
    edge_condition2_raw,
    corner_value,
)
from .errors import AmbiguousSignature, InvalidClass, NoContraction
from .interval import Interval
from .model import (
    DihedralAngles,
    RealizationClass,
    SimplexParams,
    VertexClass,
    build_coxeter_schlafli,
    classify_realization,
    classify_vertex,
    gram_sign_check,
)

CORNER_ZERO_TOL = 1e-12
ORACLE_RESIDUAL_TOL = 1e-9
# _local_certificate tries boxes of radius 2**-k * |coordinate| for these k.
# No box wider than k = 3 certifies any pair of bench/refs.json; k = 40
# keeps the box many ulps wide.
_LOCAL_HALVINGS = range(3, 41)


class SolveStatus(enum.Enum):
    SOLVED = "Solved"
    NO_PROPER_SOLUTION = "NoProperSolution"
    BOUNDARY_SOLUTION = "BoundarySolution"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class DomainBox:
    """Closed coordinate box known to isolate the proper root."""

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
            if not (isinstance(value, Real) and isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number above 0, got {value!r}")
        if not isinstance(self.max_iterations, int) or self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be an int of at least 1, got {self.max_iterations!r}"
            )


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
    angles_positive: bool
    determinant_negative: bool
    vertices_outer: bool
    gram_signs: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.angles_positive
            and self.determinant_negative
            and self.vertices_outer
            and self.gram_signs
        )


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
    return (
        float(edge_condition1_raw(alpha1, beta1, a, b)),
        float(edge_condition2_raw(alpha1, beta1, a, b)),
    )


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
    smaller boxes around the root.
    """
    box = box or domain_for(params)
    a, b = params.a, params.b
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution + 1)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution + 1)
    cells = []
    for i in range(resolution):
        x = Interval(al[i], al[i + 1])
        for j in range(resolution):
            y = Interval(be[j], be[j + 1])
            cells.append((
                edge_condition1_deriv_raw(x, y, a, b),
                edge_condition2_deriv_raw(x, y, a, b),
                edge_condition1_cross_deriv_raw(x, y, a, b),
                edge_condition2_cross_deriv_raw(x, y, a, b),
            ))
    k1 = max(2.0 * max(c[0].mag() for c in cells), 1e-3)
    k2 = max(2.0 * max(c[1].mag() for c in cells), 1e-3)
    row_sum = max(
        max((1 + d1 / k1).mag() + (e1 / k1).mag(), (e2 / k2).mag() + (1 + d2 / k2).mag())
        for d1, d2, e1, e2 in cells
    )
    # The sum of the two magnitudes rounds to nearest; step up past it.
    bound = nextafter(row_sum, inf)
    if not bound < 1.0:
        raise NoContraction(
            f"damped-map bound {bound:.6g} is not below 1 on the given box "
            f"for (a, b) = ({a}, {b})"
        )
    return ContractionEstimate(k1, k2, bound, box, resolution)


def _local_certificate(
    params: SimplexParams, root: tuple[float, float]
) -> ContractionEstimate | None:
    """Shrink a root-scaled box around the root until the certificate holds."""
    a, b = params.a, params.b
    x, y = root
    for k in _LOCAL_HALVINGS:
        rx, ry = abs(x) * 2.0**-k, abs(y) * 2.0**-k
        box = DomainBox(x - rx, min(pi / a, x + rx), y - ry, min(pi / b, y + ry))
        try:
            return estimate_contraction(params, box, resolution=1)
        except NoContraction:
            continue
    return None


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


def _jacobian(
    alpha1: float, beta1: float, a: int, b: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Analytic Jacobian of (cond1, cond2) with respect to (alpha1, beta1)."""
    return (
        (
            float(edge_condition1_deriv_raw(alpha1, beta1, a, b)),
            float(edge_condition1_cross_deriv_raw(alpha1, beta1, a, b)),
        ),
        (
            float(edge_condition2_cross_deriv_raw(alpha1, beta1, a, b)),
            float(edge_condition2_deriv_raw(alpha1, beta1, a, b)),
        ),
    )


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
        (j11, j12), (j21, j22) = _jacobian(x, y, a, b)
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


def _bisect_1d(func, lo: float, hi: float, steps: int = 100) -> float | None:
    flo, fhi = func(lo), func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        return None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _cell_root(
    params: SimplexParams,
    alo: float,
    ahi: float,
    blo: float,
    bhi: float,
    config: SolverConfig,
) -> tuple[float, float] | None:
    """Locate a common zero inside one flagged grid cell.

    Tries nested bisection in both orientations (inner root of one
    condition along one coordinate, outer bisection of the other condition
    along the other), then falls back to Newton from the cell center.
    """
    a, b = params.a, params.b

    def root_alpha(beta: float) -> float | None:
        return _bisect_1d(lambda al: float(edge_condition1_raw(al, beta, a, b)), alo, ahi)

    def outer_beta(beta: float) -> float | None:
        al = root_alpha(beta)
        if al is None:
            return None
        return float(edge_condition2_raw(al, beta, a, b))

    lo_val, hi_val = outer_beta(blo), outer_beta(bhi)
    if lo_val is not None and hi_val is not None and lo_val * hi_val <= 0.0:
        beta = _bisect_1d(lambda bt: outer_beta(bt) or 0.0, blo, bhi)
        if beta is not None:
            al = root_alpha(beta)
            if al is not None:
                return al, beta

    def root_beta(alpha: float) -> float | None:
        return _bisect_1d(lambda bt: float(edge_condition2_raw(alpha, bt, a, b)), blo, bhi)

    def outer_alpha(alpha: float) -> float | None:
        bt = root_beta(alpha)
        if bt is None:
            return None
        return float(edge_condition1_raw(alpha, bt, a, b))

    lo_val, hi_val = outer_alpha(alo), outer_alpha(ahi)
    if lo_val is not None and hi_val is not None and lo_val * hi_val <= 0.0:
        alpha = _bisect_1d(lambda al: outer_alpha(al) or 0.0, alo, ahi)
        if alpha is not None:
            bt = root_beta(alpha)
            if bt is not None:
                return alpha, bt

    center = (0.5 * (alo + ahi), 0.5 * (blo + bhi))
    (x, y), _, converged = _newton(params, center, config)
    diag = hypot(ahi - alo, bhi - blo)
    if converged and hypot(x - center[0], y - center[1]) <= 3.0 * diag:
        return x, y
    return None


def grid_oracle(
    params: SimplexParams,
    resolution: int = 200,
    box: DomainBox | None = None,
    config: SolverConfig | None = None,
) -> list[GridRoot]:
    """Independent root locator: sign-change cells plus nested bisection.

    Flags every grid cell on which both edge conditions change sign (the
    four-corner min/max test), digs the root out of each flagged cell, and
    keeps deduplicated points whose residuals clear the oracle tolerance.
    """
    cfg = config or SolverConfig()
    box = box or domain_for(params)
    a, b = params.a, params.b
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution + 1)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution + 1)
    aa, bb = np.meshgrid(al, be, indexing="ij")
    g1 = edge_condition1_raw(aa, bb, a, b)
    g2 = edge_condition2_raw(aa, bb, a, b)

    def corner_stack(g):
        return np.stack(
            [g[:-1, :-1], g[1:, :-1], g[:-1, 1:], g[1:, 1:]], axis=0
        )

    s1 = corner_stack(g1)
    s2 = corner_stack(g2)
    flagged = (
        (s1.min(axis=0) <= 0.0)
        & (s1.max(axis=0) >= 0.0)
        & (s2.min(axis=0) <= 0.0)
        & (s2.max(axis=0) >= 0.0)
    )
    roots: list[GridRoot] = []
    for i, j in zip(*np.nonzero(flagged)):
        found = _cell_root(params, al[i], al[i + 1], be[j], be[j + 1], cfg)
        if found is None:
            continue
        (x, y), _, _ = _newton(params, found, cfg)
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
    """Geometric verification of a solved angle tuple."""
    tup = angles.as_tuple()
    angles_positive = all(0.0 < v < pi for v in tup)
    matrix = build_coxeter_schlafli(angles)
    det = matrices.determinant(matrix)
    determinant_negative = det < 0.0
    vertices_outer = True
    for vertex in range(4):
        try:
            if classify_vertex(matrix, vertex) is not VertexClass.OUTER:
                vertices_outer = False
        except AmbiguousSignature:
            vertices_outer = False
    gram_ok = False
    if determinant_negative:
        gram_ok = gram_sign_check(matrices.inverse(matrix))
    return PropernessReport(angles_positive, determinant_negative, vertices_outer, gram_ok)


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
        (j11, j12), (j21, j22) = _jacobian(root.alpha1, root.beta1, a, b)
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
    r1, r2 = _eval_conditions(root[0], root[1], params.a, params.b)
    angles = DihedralAngles.from_reduced(params, root[0], root[1])
    properness = check_properness(params, angles)
    certificate = _local_certificate(params, root)
    improper: tuple[tuple[float, float], ...] = ()
    if (params.a, params.b) == (2, 3):
        improper = _improper_scan(params, root, config)
    return SolveReport(
        status=SolveStatus.SOLVED,
        angles=angles,
        residual_cond1=r1,
        residual_cond2=r2,
        iterations=iterations,
        contraction_norm_estimate=(
            certificate.norm_bound if certificate is not None else None
        ),
        properness=properness,
        improper_roots=improper,
        certificate_box=certificate.box if certificate is not None else None,
    )


def solve(params: SimplexParams, config: SolverConfig | None = None) -> SolveReport:
    """Decide solvability and solve the edge-condition system.

    Raises InvalidClass unless the pair classifies as hyperbolic with
    vertices out of the absolute or as the unsolvable remainder; the
    boundary between those two (corner value exactly zero, which the float
    evaluation attains to machine precision) reports the degenerate corner
    root as a boundary solution.  Otherwise Newton runs from the domain
    box centre, and the result is DIVERGED unless it converges inside the
    box.
    """
    cfg = config or SolverConfig()
    cls = classify_realization(params)
    if cls not in (RealizationClass.HYPERBOLIC_OUTER, RealizationClass.NO_PROPER_SOLUTION):
        raise InvalidClass(
            f"solve applies to hyperbolic pairs with outer vertices; "
            f"(a, b) = ({params.a}, {params.b}) classifies as {cls.value}"
        )
    corner = corner_value(params)
    if abs(corner) < CORNER_ZERO_TOL:
        angles = DihedralAngles.from_reduced(params, pi / params.a, 0.0)
        r1, r2 = _eval_conditions(pi / params.a, 0.0, params.a, params.b)
        return SolveReport(
            SolveStatus.BOUNDARY_SOLUTION,
            angles=angles,
            residual_cond1=r1,
            residual_cond2=r2,
            properness=check_properness(params, angles),
        )
    if corner < 0.0:
        return SolveReport(SolveStatus.NO_PROPER_SOLUTION)

    box = domain_for(params)
    root, steps, converged = _newton(params, box.center, cfg)
    if converged and box.contains(*root):
        return _solved_report(params, root, steps, cfg)
    return SolveReport(SolveStatus.DIVERGED, iterations=steps)
