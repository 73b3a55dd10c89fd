"""Edge-condition functions on the reduced (alpha1, beta1) coordinates.

With the linear constraints substituted, the whole system lives on two
coordinates: alpha1 in [0, pi/a] and beta1 in [0, pi/b].  This module keeps
that reduced box (``DomainBox``; ``domain_for`` is a pair's search box) and
the scalar machinery on it: the two vertex minors m0, m1 as closed trig
polynomials, the edge conditions m0 sin^2 beta1 - m1 sin^2 alpha2 and
m1 sin^2 alpha1 - m0 sin^2 beta2 whose common zero is the solved simplex
(singly, and as the pair ``edge_conditions_raw`` that shares one evaluation
of the minors), the fused ``edge_system_raw`` that adds their constrained
Jacobian from the same trig and minors (the product rule on the minors and
the squared sines, the constraints moving alpha2 and beta2 by -2 times
alpha1 and beta1; ``edge_jacobian_raw`` is its Jacobian alone), the
determinant and Gram cofactors of the angle matrix (``gram_raw``), the
realizability inequality, and the derived largest admissible second
parameter.  Newton and ``hypsimplex grid`` call the fused kernel; the
oracle's sign-change grid comes from ``edge_conditions_factors``, which
splits each condition into per-axis factors whose product is the grid.

The ``*_raw`` kernels take floats, numpy arrays (broadcasting) and
``Interval`` boxes alike, and take the sine and cosine of each argument
together, testing its type once: ``math`` for Python floats and ints
(``np.float64`` is a float), the ``Interval``'s own ``sincos`` for boxes,
and numpy for anything else, numpy being imported only then.  So scalar
calls return Python floats and never load numpy.  The public operations
wrap the kernels for scalar slices: ``AngleSlice``, an immutable named tuple
whose ``_replace`` validates as its constructor does, as does ``DomainBox``.
"""

from __future__ import annotations

from math import cos, pi, sin
from typing import NamedTuple

from .errors import InvalidParams
from .interval import PI, Interval
from .model import SimplexParams, _b_max, _require_integers, _validated_make

_BOX_TOL = 1e-12
# On intervals, 2*pi/a must enclose the true value, not math.pi's.
_TWO_PI = 2 * PI


def _angle_caps(params: SimplexParams) -> tuple[float, float]:
    """pi/a and pi/b; InvalidParams when either is not a float, from about 2**1024."""
    try:
        return pi / params.a, pi / params.b
    except OverflowError:
        raise InvalidParams(
            f"pi/a or pi/b is not a float: parameters must be below about 2**1024, "
            f"got a {params.b.bit_length()}-bit b"
        ) from None


class AngleSlice(NamedTuple("AngleSlice", [("alpha1", float), ("beta1", float),
                                           ("params", SimplexParams)])):
    """A point of the reduced coordinate box for fixed parameters.

    alpha2 and beta2 are always derived from the constraints, never stored.
    Raises ValueError outside the box, and InvalidParams as _angle_caps does.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, alpha1: float, beta1: float, params: SimplexParams):
        alpha_hi, beta_hi = _angle_caps(params)
        if not (-_BOX_TOL <= alpha1 <= alpha_hi + _BOX_TOL):
            raise ValueError(f"alpha1 = {alpha1!r} outside [0, pi/{params.a}]")
        if not (-_BOX_TOL <= beta1 <= beta_hi + _BOX_TOL):
            raise ValueError(f"beta1 = {beta1!r} outside [0, pi/{params.b}]")
        return super().__new__(cls, alpha1, beta1, params)

    @property
    def alpha2(self) -> float:
        return 2 * pi / self.params.a - 2 * self.alpha1

    @property
    def beta2(self) -> float:
        return 2 * pi / self.params.b - 2 * self.beta1


class DomainBox(NamedTuple("DomainBox", [("alpha1_lo", float), ("alpha1_hi", float),
                                         ("beta1_lo", float), ("beta1_hi", float)])):
    """Closed box in (alpha1, beta1), lower end below upper end on each axis."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, alpha1_lo: float, alpha1_hi: float, beta1_lo: float, beta1_hi: float):
        if not (alpha1_lo < alpha1_hi and beta1_lo < beta1_hi):
            raise ValueError("degenerate domain box")
        return super().__new__(cls, alpha1_lo, alpha1_hi, beta1_lo, beta1_hi)

    @property
    def center(self) -> tuple[float, float]:
        alpha1_lo, alpha1_hi, beta1_lo, beta1_hi = self
        return 0.5 * (alpha1_lo + alpha1_hi), 0.5 * (beta1_lo + beta1_hi)

    def clamp(self, alpha1: float, beta1: float) -> tuple[float, float]:
        alpha1_lo, alpha1_hi, beta1_lo, beta1_hi = self
        return min(max(alpha1, alpha1_lo), alpha1_hi), min(max(beta1, beta1_lo), beta1_hi)

    def contains(self, alpha1: float, beta1: float) -> bool:
        alpha1_lo, alpha1_hi, beta1_lo, beta1_hi = self
        return alpha1_lo <= alpha1 <= alpha1_hi and beta1_lo <= beta1 <= beta1_hi


def domain_for(params: SimplexParams) -> DomainBox:
    """Search box of the proper root: the reduced box, cut to alpha1 >= pi/3
    at a = 2.

    At a = 2 every root with a nonzero vertex minor lies on the curve
    cos alpha1 = sin beta1/(2 sin beta2), which passes alpha1 = pi/3 at
    beta1 = 2 pi/(3b).  That point separates the proper root from the
    second, improper root, and solver._second_root's path starts there.
    For a >= 3 the full box holds one root: the full-box grid_oracle at
    resolution 400 finds exactly one on every admissible pair, a = 3..20.
    Raises InvalidParams when pi/a or pi/b is not a float (_angle_caps).
    """
    alpha_hi, beta_hi = _angle_caps(params)
    alpha_lo = pi / 3 if params.a == 2 else 0.0
    return DomainBox(alpha_lo, alpha_hi, 0.0, beta_hi)


def _derived(alpha1, beta1, a: int, b: int):
    two_pi = _TWO_PI if isinstance(alpha1, Interval) or isinstance(beta1, Interval) else 2 * pi
    return two_pi / a - 2 * alpha1, two_pi / b - 2 * beta1


def _sincos(x):
    """(sin x, cos x) by the type of x, tested once: math's on Python
    numbers, the Interval enclosures on a box, numpy's on anything else."""
    if isinstance(x, (float, int)):
        return sin(x), cos(x)
    if isinstance(x, Interval):
        return x.sincos()
    import numpy as np

    return np.sin(x), np.cos(x)


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
    c1, c2, d1, d2 = (_sincos(x)[1] for x in (alpha1, alpha2, beta1, beta2))
    det = ((c1 - d1) ** 2 - (1 + c2) * (1 + d2)) * ((c1 + d1) ** 2 - (1 - c2) * (1 - d2))
    c1sq, d1sq, c2d2, cd = c1**2, d1**2, c2 * d2, 2 * c1 * d1
    return det, _minor(c1, c2, d1), _minor(c1, d1, d2), (
        d1 * (1 + c1sq - d1sq) + c1 * (c2 + d2) + c2d2 * d1,
        c2 * (c1sq + d1sq - c2d2) + cd + d2,
        c1 * (1 + c2d2 + d1sq - c1sq) + d1 * (c2 + d2),
        d2 * (c1sq + d1sq - c2d2) + cd + c2,
    )


def _terms(alpha1, beta1, a: int, b: int):
    """The trig, minors and squared sines of both conditions and their Jacobian."""
    alpha2, beta2 = _derived(alpha1, beta1, a, b)
    s1, c1 = _sincos(alpha1)
    s2, c2 = _sincos(alpha2)
    t1, d1 = _sincos(beta1)
    t2, d2 = _sincos(beta2)
    # Squares first: on broadcast axes they are small vectors, and made after
    # the grid-sized minors they kept one more grid's memory resident.
    s1sq, s2sq, t1sq, t2sq = s1**2, s2**2, t1**2, t2**2
    m0, m1 = _minor(c1, c2, d1), _minor(c1, d1, d2)
    return s1, c1, s2, c2, t1, d1, t2, d2, m0, m1, s1sq, s2sq, t1sq, t2sq


def _conditions(terms):
    m0, m1, s1sq, s2sq, t1sq, t2sq = terms[8:]
    return m0 * t1sq - m1 * s2sq, m1 * s1sq - m0 * t2sq


def _jacobian(terms):
    """The constrained Jacobian from _terms; edge_system_raw has the formulas."""
    s1, c1, s2, c2, t1, d1, t2, d2, m0, m1, s1sq, s2sq, t1sq, t2sq = terms
    m0a = 2 * s1 * (c1 + c2 * d1) - 4 * s2 * (c2 + c1 * d1)
    m0b = 2 * t1 * (d1 + c1 * c2)
    m1a = 2 * s1 * (c1 + d1 * d2)
    m1b = 2 * t1 * (d1 + c1 * d2) - 4 * t2 * (d2 + c1 * d1)
    j11 = m0a * t1sq - m1a * s2sq + 4 * m1 * s2 * c2
    j12 = m0b * t1sq + 2 * m0 * t1 * d1 - m1b * s2sq
    j21 = m1a * s1sq + 2 * m1 * s1 * c1 - m0a * t2sq
    j22 = m1b * s1sq - m0b * t2sq + 4 * m0 * t2 * d2
    return (j11, j12), (j21, j22)


def edge_conditions_raw(alpha1, beta1, a: int, b: int):
    """Both edge conditions (c1, c2) from one evaluation of the minors."""
    return _conditions(_terms(alpha1, beta1, a, b))


def edge_conditions_factors(alpha1_nodes, beta1_nodes, a: int, b: int):
    """The per-axis factors ((U1, V1), (U2, V2)) of both edge conditions on
    the grid of two 1-D node arrays: U of shape (len(alpha1_nodes), 6), V of
    shape (6, len(beta1_nodes)), and condition k on the grid is Uk @ Vk, or
    rows i0..i1 of it Uk[i0:i1] @ Vk.

    With s, c the sines and cosines of alpha1, alpha2 (s1, c1, s2, c2) and
    t, d those of beta1, beta2 (t1, d1, t2, d2), the minors split into
    per-axis parts: m0 = P - d1^2 + Q d1 with P = 1 - c1^2 - c2^2 and
    Q = -2 c1 c2, and m1 = R + S + c1 T with R = 1 - c1^2,
    S = -(d1^2 + d2^2) and T = -2 d1 d2.  So each condition is U V,
    U with one row per alpha1 node and V one column per beta1 node:

        c1 = [P, 1, Q, -R s2^2, -s2^2, -c1 s2^2] . [t1^2, -d1^2 t1^2, d1 t1^2, 1, S, T],
        c2 = [R s1^2, s1^2, c1 s1^2, -P, -1, -Q] . [1, S, T, t2^2, -d1^2 t2^2, d1 t2^2].

    The trig runs once per node.  Each product agrees with
    edge_conditions_raw on broadcast axes to rounding, not bit for bit.
    """
    import numpy as np

    alpha2, beta2 = _derived(alpha1_nodes, beta1_nodes, a, b)
    s1, c1 = _sincos(alpha1_nodes)
    s2, c2 = _sincos(alpha2)
    t1, d1 = _sincos(beta1_nodes)
    t2, d2 = _sincos(beta2)
    ones_a, ones_b = np.ones_like(s1), np.ones_like(t1)
    P, Q, R = 1.0 - c1 * c1 - c2 * c2, -2.0 * c1 * c2, 1.0 - c1 * c1
    s1sq, s2sq, t1sq, t2sq, d1sq = s1 * s1, s2 * s2, t1 * t1, t2 * t2, d1 * d1
    S, T = -(d1sq + d2 * d2), -2.0 * d1 * d2
    u1 = np.stack([P, ones_a, Q, -R * s2sq, -s2sq, -c1 * s2sq], axis=1)
    v1 = np.stack([t1sq, -d1sq * t1sq, d1 * t1sq, ones_b, S, T])
    u2 = np.stack([R * s1sq, s1sq, c1 * s1sq, -P, -ones_a, -Q], axis=1)
    v2 = np.stack([ones_b, S, T, t2sq, -d1sq * t2sq, d1 * t2sq])
    return (u1, v1), (u2, v2)


def edge_condition1_raw(alpha1, beta1, a: int, b: int):
    """The first edge condition alone, as edge_conditions_raw computes it."""
    return edge_conditions_raw(alpha1, beta1, a, b)[0]


def edge_condition2_raw(alpha1, beta1, a: int, b: int):
    """The second edge condition alone, as edge_conditions_raw computes it."""
    return edge_conditions_raw(alpha1, beta1, a, b)[1]


def edge_system_raw(alpha1, beta1, a: int, b: int):
    """The edge conditions and their constrained Jacobian from one set of
    sines, cosines and minors: ((c1, c2), ((dc1/dalpha1, dc1/dbeta1),
    (dc2/dalpha1, dc2/dbeta1))).  The conditions are those of
    edge_conditions_raw, bit for bit.

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
    terms = _terms(alpha1, beta1, a, b)
    return _conditions(terms), _jacobian(terms)


def edge_jacobian_raw(alpha1, beta1, a: int, b: int):
    """The constrained Jacobian of edge_system_raw alone, without the conditions."""
    return _jacobian(_terms(alpha1, beta1, a, b))


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
    return float(gram_raw(s.alpha1, s.alpha2, s.beta1, s.beta2)[1])


def vertex_minor1(s: AngleSlice) -> float:
    """The vertex minor shared by vertices 1 and 3 (m1 of gram_raw)."""
    return float(gram_raw(s.alpha1, s.alpha2, s.beta1, s.beta2)[2])


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

    Raises InvalidParams unless b > a >= 2 and pi/a, pi/b are floats.
    """
    a, b = params.a, params.b
    if a < 2 or b <= a:
        raise InvalidParams(f"inequality requires b > a >= 2, got ({a}, {b})")
    t = _angle_caps(params)[0]
    lhs = (1.0 + cos(t)) * sin(2.0 * pi / b)
    rhs = (cos(t) + cos(2.0 * pi / b)) * sin(t)
    return lhs, rhs, b <= _b_max(a)


def compute_bmax(a: int) -> int:
    """Largest b satisfying the strict inequality.

    That is 7, 8, 9, 11 for a = 2..5 and 2a from a = 6 on (model._b_max
    proves it); every b in (a, b_max] is admissible and no larger one is.
    Raises InvalidParams for a < 2 or an ``a`` that is not an integer.
    """
    _require_integers(a)
    if a < 2:
        raise InvalidParams(f"need a >= 2, got {a}")
    return _b_max(int(a))


def corner_value(params: SimplexParams) -> float:
    """Second edge condition evaluated at the corner (pi/a, 0).

    It equals (lhs - rhs)(lhs + rhs) for the two sides of the realizability
    inequality, so its sign repeats the class; it is printed as data, and
    solve() does not read it.  Zero is an exact trigonometric identity at
    (2, 8), the one pair on the boundary.  Raises InvalidParams unless
    b > a >= 2 and pi/a, pi/b are floats.
    """
    a, b = params.a, params.b
    if a < 2 or b <= a:
        raise InvalidParams(f"corner value requires b > a >= 2, got ({a}, {b})")
    return float(edge_condition2_raw(_angle_caps(params)[0], 0.0, a, b))
