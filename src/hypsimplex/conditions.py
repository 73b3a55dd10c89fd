"""Edge-condition functions on the reduced (alpha1, beta1) coordinates.

With the linear constraints substituted, the whole system lives on two
coordinates: alpha1 in [0, pi/a] and beta1 in [0, pi/b].  This module keeps
the scalar machinery: the two vertex minors m0, m1 as closed trig
polynomials, the edge conditions m0 sin^2 beta1 - m1 sin^2 alpha2 and
m1 sin^2 alpha1 - m0 sin^2 beta2 whose common zero is the solved simplex
(singly, and as the pair ``edge_conditions_raw`` that shares one evaluation
of the minors), their constrained Jacobian ``edge_jacobian_raw`` (the
product rule on the minors and the squared sines, the constraints moving
alpha2 and beta2 by -2 times alpha1 and beta1), the determinant and Gram
cofactors of the angle matrix (``gram_raw``), the realizability
inequality, and the derived largest admissible second parameter.

The ``*_raw`` kernels take floats, numpy arrays (broadcasting) and
``Interval`` boxes alike; the public operations wrap them for scalar
slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin

import numpy as np

from .errors import InvalidParams
from .interval import PI, Interval
from .model import SimplexParams, _b_max

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


def _minor(x, y, z):
    """The vertex minor 1 - x^2 - y^2 - z^2 - 2xyz in the cosines x, y, z
    of the three dihedral angles at the vertex."""
    return 1.0 - x * x - y * y - z * z - 2.0 * x * y * z


def gram_raw(alpha1, alpha2, beta1, beta2):
    """(det, m0, m1, (cof01, cof02, cof03, cof13)) of the Coxeter-Schlafli
    matrix of the four angles, as polynomials in their cosines c1, c2, d1, d2.

    The vertex minors are m0 = cof00 = cof22 and m1 = cof11 = cof33.  By the
    adjugate identity cof_ii cof_jj - cof_ij^2 = det sin^2 theta, where theta
    is beta1 for (0, 1), alpha2 for (0, 2), alpha1 for (0, 3), beta2 for (1, 3).
    """
    c1, c2, d1, d2 = np.cos(alpha1), np.cos(alpha2), np.cos(beta1), np.cos(beta2)
    det = ((c1 - d1) ** 2 - (1 + c2) * (1 + d2)) * ((c1 + d1) ** 2 - (1 - c2) * (1 - d2))
    c1sq, d1sq, c2d2, cd = c1**2, d1**2, c2 * d2, 2 * c1 * d1
    return det, _minor(c1, c2, d1), _minor(c1, d1, d2), (
        d1 * (1 + c1sq - d1sq) + c1 * (c2 + d2) + c2d2 * d1,
        c2 * (c1sq + d1sq - c2d2) + cd + d2,
        c1 * (1 + c2d2 + d1sq - c1sq) + d1 * (c2 + d2),
        d2 * (c1sq + d1sq - c2d2) + cd + c2,
    )


def edge_conditions_raw(alpha1, beta1, a: int, b: int):
    """Both edge conditions (c1, c2) from one evaluation of the minors.

    Broadcast axes (``alpha1[:, None]``, ``beta1[None, :]``) take the trig
    once per axis value instead of once per grid node.
    """
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    ca1, cb1 = np.cos(alpha1), np.cos(beta1)
    m0, m1 = _minor(ca1, np.cos(alpha2), cb1), _minor(ca1, cb1, np.cos(beta2))
    c1 = m0 * np.sin(beta1) ** 2 - m1 * np.sin(alpha2) ** 2
    c2 = m1 * np.sin(alpha1) ** 2 - m0 * np.sin(beta2) ** 2
    return c1, c2


def edge_condition1_raw(alpha1, beta1, a: int, b: int):
    """The first edge condition alone, as edge_conditions_raw computes it."""
    return edge_conditions_raw(alpha1, beta1, a, b)[0]


def edge_condition2_raw(alpha1, beta1, a: int, b: int):
    """The second edge condition alone, as edge_conditions_raw computes it."""
    return edge_conditions_raw(alpha1, beta1, a, b)[1]


def edge_jacobian_raw(alpha1, beta1, a: int, b: int):
    """Constrained Jacobian of the two edge conditions,
    ((dc1/dalpha1, dc1/dbeta1), (dc2/dalpha1, dc2/dbeta1)).

    With s, c the sines and cosines of alpha1, alpha2 (s1, c1, s2, c2) and
    t, d those of beta1, beta2 (t1, d1, t2, d2), the conditions are the
    products c1 = m0 t1^2 - m1 s2^2 and c2 = m1 s1^2 - m0 t2^2, and the
    constraints move alpha2 and beta2 by -2 times alpha1 and beta1.  The
    minors' derivatives along alpha1 (m0a, m1a) and beta1 (m0b, m1b) are

        m0a = 2 s1 (c1 + c2 d1) - 4 s2 (c2 + c1 d1),  m0b = 2 t1 (d1 + c1 c2),
        m1a = 2 s1 (c1 + d1 d2),  m1b = 2 t1 (d1 + c1 d2) - 4 t2 (d2 + c1 d1),

    and the product rule gives each entry as three terms:

        J11 = m0a t1^2 - m1a s2^2 + 4 m1 s2 c2,
        J12 = m0b t1^2 + 2 m0 t1 d1 - m1b s2^2,
        J21 = m1a s1^2 + 2 m1 s1 c1 - m0a t2^2,
        J22 = m1b s1^2 - m0b t2^2 + 4 m0 t2 d2.
    """
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    s1, c1 = np.sin(alpha1), np.cos(alpha1)
    s2, c2 = np.sin(alpha2), np.cos(alpha2)
    t1, d1 = np.sin(beta1), np.cos(beta1)
    t2, d2 = np.sin(beta2), np.cos(beta2)
    m0, m1 = _minor(c1, c2, d1), _minor(c1, d1, d2)
    m0a = 2 * s1 * (c1 + c2 * d1) - 4 * s2 * (c2 + c1 * d1)
    m0b = 2 * t1 * (d1 + c1 * c2)
    m1a = 2 * s1 * (c1 + d1 * d2)
    m1b = 2 * t1 * (d1 + c1 * d2) - 4 * t2 * (d2 + c1 * d1)
    s1sq, s2sq, t1sq, t2sq = s1**2, s2**2, t1**2, t2**2
    j11 = m0a * t1sq - m1a * s2sq + 4 * m1 * s2 * c2
    j12 = m0b * t1sq + 2 * m0 * t1 * d1 - m1b * s2sq
    j21 = m1a * s1sq + 2 * m1 * s1 * c1 - m0a * t2sq
    j22 = m1b * s1sq - m0b * t2sq + 4 * m0 * t2 * d2
    return (j11, j12), (j21, j22)


def edge_condition1_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the first edge condition along alpha1."""
    return edge_jacobian_raw(alpha1, beta1, a, b)[0][0]


def edge_condition2_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the second edge condition along beta1."""
    return edge_jacobian_raw(alpha1, beta1, a, b)[1][1]


def edge_condition1_cross_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the first edge condition along beta1."""
    return edge_jacobian_raw(alpha1, beta1, a, b)[0][1]


def edge_condition2_cross_deriv_raw(alpha1, beta1, a: int, b: int):
    """Constrained derivative of the second edge condition along alpha1."""
    return edge_jacobian_raw(alpha1, beta1, a, b)[1][0]


def vertex_minor0(s: AngleSlice) -> float:
    """The vertex minor shared by vertices 0 and 2 (m0 of gram_raw)."""
    return float(_minor(np.cos(s.alpha1), np.cos(s.alpha2), np.cos(s.beta1)))


def vertex_minor1(s: AngleSlice) -> float:
    """The vertex minor shared by vertices 1 and 3 (m1 of gram_raw)."""
    return float(_minor(np.cos(s.alpha1), np.cos(s.beta1), np.cos(s.beta2)))


def edge_condition1(s: AngleSlice) -> float:
    """First edge condition: zero when the first pair of identified edges
    has equal length."""
    return float(edge_condition1_raw(s.alpha1, s.beta1, s.params.a, s.params.b))


def edge_condition2(s: AngleSlice) -> float:
    """Second edge condition: zero when the second pair of identified edges
    has equal length."""
    return float(edge_condition2_raw(s.alpha1, s.beta1, s.params.a, s.params.b))


def edge_condition1_deriv(s: AngleSlice) -> float:
    return float(edge_condition1_deriv_raw(s.alpha1, s.beta1, s.params.a, s.params.b))


def edge_condition2_deriv(s: AngleSlice) -> float:
    return float(edge_condition2_deriv_raw(s.alpha1, s.beta1, s.params.a, s.params.b))


def realizability_inequality(params: SimplexParams) -> tuple[float, float, bool]:
    """Both sides of the strict realizability inequality, as floats, and its
    truth, decided exactly by the b_max lemma (see classify_realization).

    Raises InvalidParams unless b > a >= 2.
    """
    a, b = params.a, params.b
    if a < 2 or b <= a:
        raise InvalidParams(f"inequality requires b > a >= 2, got ({a}, {b})")
    lhs = (1.0 + cos(pi / a)) * sin(2.0 * pi / b)
    rhs = (cos(pi / a) + cos(2.0 * pi / b)) * sin(pi / a)
    return lhs, rhs, b <= _b_max(a)


def compute_bmax(a: int) -> int:
    """Largest b satisfying the strict inequality.

    That is 7, 8, 9, 11 for a = 2..5 and 2a from a = 6 on (model._b_max
    proves it); every b in (a, b_max] is admissible and no larger one is.
    Raises InvalidParams for a < 2.
    """
    if a < 2:
        raise InvalidParams(f"need a >= 2, got {a}")
    return _b_max(a)


def corner_value(params: SimplexParams) -> float:
    """Second edge condition evaluated at the corner (pi/a, 0).

    It equals (lhs - rhs)(lhs + rhs) for the two sides of the realizability
    inequality, so its sign repeats the class; it is printed as data, and
    solve() does not read it.  Zero is an exact trigonometric identity at
    (2, 8), the one pair on the boundary.
    """
    a, b = params.a, params.b
    if a < 2 or b <= a:
        raise InvalidParams(f"corner value requires b > a >= 2, got ({a}, {b})")
    return float(edge_condition2_raw(pi / a, 0.0, a, b))
