"""Domain model: integer parameters, dihedral angles, and classification.

The simplex family is indexed by a pair of natural numbers (a, b).  Swapping
a and b is a duality of the family, so parameters are normalized to b >= a.
Four dihedral-angle classes (alpha1 doubled, alpha2, beta1 doubled, beta2)
are tied to the parameters by the linear constraints

    2*alpha1 + alpha2 = 2*pi/a,      2*beta1 + beta2 = 2*pi/b.

Its value types (``Signature``, ``SimplexParams``, ``DihedralAngles``), like
those of the other modules, are immutable named tuples, read by name (all but
``SymMatrix4`` by position too), whose ``_replace`` and ``_make`` validate.
The module needs no numpy: ``build_coxeter_schlafli`` and ``classify_vertex``,
which build and read a ``SymMatrix4``, load numpy and ``matrices`` when called.
"""

from __future__ import annotations

from enum import Enum
from math import cos, pi
from numbers import Integral
from typing import TYPE_CHECKING, NamedTuple

from .errors import AmbiguousSignature, InvalidParams

if TYPE_CHECKING:
    from .matrices import SymMatrix4

_ANGLE_TOL = 1e-12

#: |det| below SINGULARITY_FACTOR * (max absolute entry)**4 counts as singular.
SINGULARITY_FACTOR = 1e-12


class RealizationClass(Enum):
    SPHERICAL = "Spherical"
    HYPERBOLIC_IDEAL = "HyperbolicIdeal"
    HYPERBOLIC_OUTER = "HyperbolicOuter"
    NO_PROPER_SOLUTION = "NoProperSolution"
    EXCLUDED_SYMMETRIC = "ExcludedSymmetric"


# The realization classes solve() and `hypsimplex grid` accept, with a root or not.
_SOLVABLE = (RealizationClass.HYPERBOLIC_OUTER, RealizationClass.NO_PROPER_SOLUTION)


class VertexClass(Enum):
    PROPER = "Proper"
    IDEAL = "Ideal"
    OUTER = "Outer"


class Signature(NamedTuple):
    """Inertia of a symmetric matrix: eigenvalue sign counts."""

    positive: int
    negative: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


# Builds through __new__, so that _make and _replace validate like the constructor.
_validated_make = classmethod(lambda cls, iterable: cls(*iterable))


def _require_integers(*values) -> None:
    """Raise InvalidParams unless every value is an integer other than a bool."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise InvalidParams(f"parameters must be integers, got {value!r}")


class SimplexParams(NamedTuple("SimplexParams", [("a", int), ("b", int), ("swapped", bool)])):
    """Normalized integer parameters, stored as int, with the swap recorded."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, a: int, b: int, swapped: bool = False):
        _require_integers(a, b)
        a, b = int(a), int(b)
        if a < 1 or b < 1:
            raise InvalidParams(f"parameters must be >= 1, got ({a}, {b})")
        if b < a:
            raise InvalidParams("SimplexParams requires b >= a; use normalize_params")
        return super().__new__(cls, a, b, swapped)


def normalize_params(a: int, b: int) -> SimplexParams:
    """Order the pair so b >= a, recording whether a swap happened."""
    _require_integers(a, b)
    if a < 1 or b < 1:
        raise InvalidParams(f"parameters must be >= 1, got ({a}, {b})")
    if b < a:
        return SimplexParams(a=b, b=a, swapped=True)
    return SimplexParams(a=a, b=b, swapped=False)


class DihedralAngles(NamedTuple("DihedralAngles", [("alpha1", float), ("alpha2", float),
                                                   ("beta1", float), ("beta2", float)])):
    """The four dihedral angles in radians, each within [0, pi]."""

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, alpha1: float, alpha2: float, beta1: float, beta2: float):
        self = super().__new__(cls, alpha1, alpha2, beta1, beta2)
        for name, v in zip(self._fields, self):
            if not (-_ANGLE_TOL <= v <= pi + _ANGLE_TOL):
                raise ValueError(f"{name} = {v!r} outside [0, pi]")
        return self

    @classmethod
    def from_reduced(
        cls, params: SimplexParams, alpha1: float, beta1: float
    ) -> "DihedralAngles":
        """Complete (alpha1, beta1) to all four angles via the constraints."""
        return cls(
            alpha1=alpha1,
            alpha2=2 * pi / params.a - 2 * alpha1,
            beta1=beta1,
            beta2=2 * pi / params.b - 2 * beta1,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return tuple(self)


def build_coxeter_schlafli(angles: DihedralAngles) -> SymMatrix4:
    """The Coxeter-Schlafli matrix: unit diagonal, negative-cosine couplings.

    Off-diagonal pattern (symmetric): entry (0,1) = -cos beta1,
    (0,2) = -cos beta2, (0,3) = -cos alpha1, (1,2) = -cos alpha1,
    (1,3) = -cos alpha2, (2,3) = -cos beta1.
    """
    import numpy as np

    from .matrices import SymMatrix4

    ca1, ca2 = cos(angles.alpha1), cos(angles.alpha2)
    cb1, cb2 = cos(angles.beta1), cos(angles.beta2)
    return SymMatrix4(
        np.array(
            [
                [1.0, -cb1, -cb2, -ca1],
                [-cb1, 1.0, -ca1, -ca2],
                [-cb2, -ca1, 1.0, -cb1],
                [-ca1, -ca2, -cb1, 1.0],
            ]
        )
    )


_VERTEX_BY_INERTIA = {
    (3, 0, 0): VertexClass.PROPER,
    (2, 0, 1): VertexClass.IDEAL,
    (2, 1, 0): VertexClass.OUTER,
}


def classify_vertex(B: SymMatrix4, i: int) -> VertexClass:
    """Vertex type from the inertia of the 3x3 submatrix deleting row/col i.

    (3,0,0) is a proper vertex, (2,0,1) lies on the absolute, (2,1,0) lies
    beyond it.  Any other inertia raises AmbiguousSignature; an i that is
    not an int in 0..3 raises ValueError (MinorSpec.without_vertex).
    """
    import numpy as np

    from .matrices import MinorSpec, _inertia

    sig = _inertia(B.entries[np.ix_(*MinorSpec.without_vertex(i))])
    try:
        return _VERTEX_BY_INERTIA[sig]
    except KeyError:
        raise AmbiguousSignature(
            f"vertex {i} submatrix has inertia {sig}, not a recognized vertex type"
        ) from None


def _b_max(a: int) -> int:
    """Largest b > a >= 2 with (1 + cos x) sin y > (cos x + cos y) sin x,
    for x = pi/a and y = 2 pi/b: 7, 8, 9, 11 for a = 2..5, else 2a.

    Write g(y) for lhs - rhs at fixed x.  g'(y) = (1 + cos x) cos y +
    sin x sin y > 0 on (0, pi/2], so g falls as b >= 4 grows, and
    g(x) = sin x (1 - cos x) > 0 admits every b in (a, 2a] for a >= 3.
    With delta = x - 2 pi/(2a+1) = x^2/(2 pi + x),
    g(2 pi/(2a+1)) <= x^3/2 - delta (1 + cos x) cos x < 0 for a >= 7,
    because x (2 pi + x) <= 3.03 < 2 (1 + cos x) cos x for x <= pi/7.
    a = 2..6 is a finite check.  The inequality is strict: at a = 2,
    g = sin y - cos y vanishes at b = 8, the only integer zero of g.
    """
    return {2: 7, 3: 8, 4: 9, 5: 11}.get(a, 2 * a)


def classify_realization(params: SimplexParams) -> RealizationClass:
    """Realization class of the normalized parameter pair.

    a = 1 is spherical; (2,2) is hyperbolic with ideal vertices; a = b >= 3
    has extra symmetries and is excluded from this family's analysis; for
    b > a >= 2 the strict realizability inequality, decided exactly by
    b <= _b_max(a), separates a hyperbolic simplex with all vertices beyond
    the absolute from no proper solution at all (equality counts as
    failure: the only root in the domain box is a degenerate corner).
    """
    a, b = params.a, params.b
    if a == 1:
        return RealizationClass.SPHERICAL
    if a == 2 and b == 2:
        return RealizationClass.HYPERBOLIC_IDEAL
    if a == b:
        return RealizationClass.EXCLUDED_SYMMETRIC
    if b <= _b_max(a):
        return RealizationClass.HYPERBOLIC_OUTER
    return RealizationClass.NO_PROPER_SOLUTION


def gram_sign_check(A: SymMatrix4) -> bool:
    """True iff the Gram entries a01, a02, a03, a13 are all negative."""
    g = A.entries
    return bool(g[0, 1] < 0 and g[0, 2] < 0 and g[0, 3] < 0 and g[1, 3] < 0)
