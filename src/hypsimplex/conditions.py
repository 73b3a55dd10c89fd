"""Edge-condition functions on the reduced (alpha1, beta1) coordinates.

With the linear constraints substituted, the whole system lives on two
coordinates: alpha1 in [0, pi/a] and beta1 in [0, pi/b].  This module keeps
the scalar machinery: the two vertex minors as closed trig polynomials, the
two edge conditions whose common zero is the solved simplex, their
constrained derivatives (the derivative along a coordinate with the
companion angle eliminated through the constraint, i.e. the combination
(d/d alpha1) - 2 (d/d alpha2) and its beta twin), the realizability
inequality, and the derived largest admissible second parameter.

All kernels accept numpy arrays and broadcast; the public operations wrap
them for scalar slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import InvalidParams
from .interval import PI, Interval
from .model import SimplexParams, _inequality_sides

_BOX_TOL = 1e-12


@dataclass(frozen=True)
class AngleSlice:
    """A point of the reduced coordinate box for fixed parameters.

    alpha2 and beta2 are always derived from the constraints, never stored.
    """

    alpha1: float
    beta1: float
    params: SimplexParams

    def __post_init__(self) -> None:
        a, b = self.params.a, self.params.b
        if not (-_BOX_TOL <= self.alpha1 <= pi / a + _BOX_TOL):
            raise ValueError(f"alpha1 = {self.alpha1!r} outside [0, pi/{a}]")
        if not (-_BOX_TOL <= self.beta1 <= pi / b + _BOX_TOL):
            raise ValueError(f"beta1 = {self.beta1!r} outside [0, pi/{b}]")

    @property
    def alpha2(self) -> float:
        return 2 * pi / self.params.a - 2 * self.alpha1

    @property
    def beta2(self) -> float:
        return 2 * pi / self.params.b - 2 * self.beta1


def _derived(alpha1, beta1, a: int, b: int):
    # On intervals, 2*pi/a must enclose the true value, not math.pi's.
    two_pi = 2 * PI if isinstance(alpha1, Interval) or isinstance(beta1, Interval) else 2 * pi
    return two_pi / a - 2 * alpha1, two_pi / b - 2 * beta1


def vertex_minor0_raw(alpha1, alpha2, beta1):
    """Closed form of the vertex minor shared by vertices 0 and 2."""
    c1, c2, d1 = np.cos(alpha1), np.cos(alpha2), np.cos(beta1)
    return 1.0 - c1 * c1 - c2 * c2 - d1 * d1 - 2.0 * c1 * c2 * d1


def vertex_minor1_raw(alpha1, beta1, beta2):
    """Closed form of the vertex minor shared by vertices 1 and 3."""
    c1, d1, d2 = np.cos(alpha1), np.cos(beta1), np.cos(beta2)
    return 1.0 - c1 * c1 - d1 * d1 - d2 * d2 - 2.0 * c1 * d1 * d2


def edge_condition1_raw(alpha1, beta1, a: int, b: int):
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    m0 = vertex_minor0_raw(alpha1, alpha2, beta1)
    m1 = vertex_minor1_raw(alpha1, beta1, beta2)
    return m0 * np.sin(beta1) ** 2 - m1 * np.sin(alpha2) ** 2


def edge_condition2_raw(alpha1, beta1, a: int, b: int):
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    m0 = vertex_minor0_raw(alpha1, alpha2, beta1)
    m1 = vertex_minor1_raw(alpha1, beta1, beta2)
    return m1 * np.sin(alpha1) ** 2 - m0 * np.sin(beta2) ** 2


def edge_condition1_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the first edge condition along alpha1."""
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    s1, c1 = np.sin(alpha1), np.cos(alpha1)
    s2, c2 = np.sin(alpha2), np.cos(alpha2)
    t1, d1 = np.sin(beta1), np.cos(beta1)
    d2 = np.cos(beta2)
    m1 = 1.0 - c1 * c1 - d1 * d1 - d2 * d2 - 2.0 * c1 * d1 * d2
    part1 = (2 * s1 * c1 + 2 * s1 * c2 * d1) * t1**2 - (
        2 * s1 * c1 + 2 * s1 * d1 * d2
    ) * s2**2
    part2 = (2 * s2 * c2 + 2 * s2 * c1 * d1) * t1**2 - 2 * s2 * c2 * m1
    return part1 - 2.0 * part2


def edge_condition2_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the second edge condition along beta1."""
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    s1, c1 = np.sin(alpha1), np.cos(alpha1)
    c2 = np.cos(alpha2)
    t1, d1 = np.sin(beta1), np.cos(beta1)
    t2, d2 = np.sin(beta2), np.cos(beta2)
    m0 = 1.0 - c1 * c1 - c2 * c2 - d1 * d1 - 2.0 * c1 * c2 * d1
    part1 = (2 * t1 * d1 + 2 * t1 * c1 * d2) * s1**2 - (
        2 * t1 * d1 + 2 * t1 * c1 * c2
    ) * t2**2
    part2 = (2 * t2 * d2 + 2 * t2 * c1 * d1) * s1**2 - 2 * t2 * d2 * m0
    return part1 - 2.0 * part2


def edge_condition1_cross_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the first edge condition along beta1.

    No printed closed form exists for this direction; the expression below
    is the chain-rule expansion, validated against central finite
    differences in the test suite.
    """
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    c1 = np.cos(alpha1)
    s2, c2 = np.sin(alpha2), np.cos(alpha2)
    t1, d1 = np.sin(beta1), np.cos(beta1)
    t2, d2 = np.sin(beta2), np.cos(beta2)
    m0 = 1.0 - c1 * c1 - c2 * c2 - d1 * d1 - 2.0 * c1 * c2 * d1
    dm0_db1 = 2 * t1 * d1 + 2 * c1 * c2 * t1
    dm1_db1 = 2 * t1 * d1 + 2 * c1 * t1 * d2
    dm1_db2 = 2 * t2 * d2 + 2 * c1 * d1 * t2
    partial_b1 = dm0_db1 * t1**2 + 2 * m0 * t1 * d1 - dm1_db1 * s2**2
    partial_b2 = -dm1_db2 * s2**2
    return partial_b1 - 2.0 * partial_b2


def edge_condition2_cross_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the second edge condition along alpha1."""
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    s1, c1 = np.sin(alpha1), np.cos(alpha1)
    s2, c2 = np.sin(alpha2), np.cos(alpha2)
    d1 = np.cos(beta1)
    t2, d2 = np.sin(beta2), np.cos(beta2)
    m1 = 1.0 - c1 * c1 - d1 * d1 - d2 * d2 - 2.0 * c1 * d1 * d2
    dm1_da1 = 2 * s1 * c1 + 2 * s1 * d1 * d2
    dm0_da1 = 2 * s1 * c1 + 2 * s1 * c2 * d1
    dm0_da2 = 2 * s2 * c2 + 2 * c1 * s2 * d1
    partial_a1 = dm1_da1 * s1**2 + 2 * m1 * s1 * c1 - dm0_da1 * t2**2
    partial_a2 = -dm0_da2 * t2**2
    return partial_a1 - 2.0 * partial_a2


def vertex_minor0(s: AngleSlice) -> float:
    return float(vertex_minor0_raw(s.alpha1, s.alpha2, s.beta1))


def vertex_minor1(s: AngleSlice) -> float:
    return float(vertex_minor1_raw(s.alpha1, s.beta1, s.beta2))


def edge_condition1(s: AngleSlice) -> float:
    """First edge condition: zero when the first pair of identified edges
    has equal length."""
    return float(edge_condition1_raw(s.alpha1, s.beta1, s.params.a, s.params.b))


def edge_condition2(s: AngleSlice) -> float:
    """Second edge condition: zero when the second pair of identified edges
    has equal length."""
    return float(edge_condition2_raw(s.alpha1, s.beta1, s.params.a, s.params.b))


def edge_condition1_deriv(s: AngleSlice) -> float:
    return float(
        edge_condition1_deriv_raw(s.alpha1, s.beta1, s.params.a, s.params.b)
    )


def edge_condition2_deriv(s: AngleSlice) -> float:
    return float(
        edge_condition2_deriv_raw(s.alpha1, s.beta1, s.params.a, s.params.b)
    )


def realizability_inequality(params: SimplexParams) -> tuple[float, float, bool]:
    """Both sides of the strict realizability inequality and its truth.

    Raises InvalidParams unless b > a >= 2.
    """
    a, b = params.a, params.b
    if a < 2 or b <= a:
        raise InvalidParams(f"inequality requires b > a >= 2, got ({a}, {b})")
    lhs, rhs = _inequality_sides(a, b)
    return lhs, rhs, lhs > rhs


def compute_bmax(a: int, b_limit: int | None = None) -> int | None:
    """Largest b in (a, b_limit] satisfying the strict inequality.

    Returns None ("unbounded at the scan ceiling") if the inequality is
    still strict at b_limit itself; with the default ceiling of 4a this
    cannot happen, since the admissible range never reaches past 2.5a.
    """
    if a < 2:
        raise InvalidParams(f"need a >= 2, got {a}")
    if b_limit is None:
        b_limit = 4 * a
    if b_limit < a + 1:
        raise InvalidParams(f"b_limit must be at least a+1, got {b_limit}")
    best: int | None = None
    for b in range(a + 1, b_limit + 1):
        lhs, rhs = _inequality_sides(a, b)
        if lhs > rhs:
            best = b
    if best == b_limit:
        return None
    if best is None:
        raise InvalidParams(f"no admissible b in ({a}, {b_limit}]")
    return best


def corner_value(params: SimplexParams) -> float:
    """Second edge condition evaluated at the corner (pi/a, 0).

    Its sign discriminates solvability: positive means the edge-condition
    system has a proper root, negative means none, and zero means the only
    root is the degenerate corner itself.  Zero is an exact trigonometric
    identity at (2, 8); no other pair with b <= 5a and a < 60 comes within
    1e-6 of it.
    """
    a, b = params.a, params.b
    if a < 2 or b <= a:
        raise InvalidParams(f"corner value requires b > a >= 2, got ({a}, {b})")
    return float(edge_condition2_raw(pi / a, 0.0, a, b))
