"""Domain model: integer parameters, dihedral angles, and classification.

The simplex family is indexed by a pair of natural numbers (a, b).  Swapping
a and b is a duality of the family, so parameters are normalized to b >= a.
Four dihedral-angle classes (alpha1 doubled, alpha2, beta1 doubled, beta2)
are tied to the parameters by the linear constraints

    2*alpha1 + alpha2 = 2*pi/a,      2*beta1 + beta2 = 2*pi/b.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import cos, pi, sin

import numpy as np

from .errors import AmbiguousSignature, InvalidParams
from .matrices import SymMatrix4, _inertia

_ANGLE_TOL = 1e-12


class RealizationClass(Enum):
    SPHERICAL = "Spherical"
    HYPERBOLIC_IDEAL = "HyperbolicIdeal"
    HYPERBOLIC_OUTER = "HyperbolicOuter"
    NO_PROPER_SOLUTION = "NoProperSolution"
    EXCLUDED_SYMMETRIC = "ExcludedSymmetric"


class VertexClass(Enum):
    PROPER = "Proper"
    IDEAL = "Ideal"
    OUTER = "Outer"


@dataclass(frozen=True)
class SimplexParams:
    """Normalized integer parameters with the duality swap recorded."""

    a: int
    b: int
    swapped: bool = False

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise InvalidParams(f"parameters must be >= 1, got ({self.a}, {self.b})")
        if self.b < self.a:
            raise InvalidParams("SimplexParams requires b >= a; use normalize_params")


def normalize_params(a: int, b: int) -> SimplexParams:
    """Order the pair so b >= a, recording whether a swap happened."""
    if a < 1 or b < 1:
        raise InvalidParams(f"parameters must be >= 1, got ({a}, {b})")
    if b < a:
        return SimplexParams(a=b, b=a, swapped=True)
    return SimplexParams(a=a, b=b, swapped=False)


@dataclass(frozen=True)
class DihedralAngles:
    """The four dihedral angles in radians, each within [0, pi]."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            v = getattr(self, name)
            if not (-_ANGLE_TOL <= v <= pi + _ANGLE_TOL):
                raise ValueError(f"{name} = {v!r} outside [0, pi]")

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

    def constraint_residuals(self, params: SimplexParams) -> tuple[float, float]:
        """Deviation of both linear constraints from zero."""
        return (
            2 * self.alpha1 + self.alpha2 - 2 * pi / params.a,
            2 * self.beta1 + self.beta2 - 2 * pi / params.b,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.alpha1, self.alpha2, self.beta1, self.beta2)


def build_coxeter_schlafli(angles: DihedralAngles) -> SymMatrix4:
    """The Coxeter-Schlafli matrix: unit diagonal, negative-cosine couplings.

    Off-diagonal pattern (symmetric): entry (0,1) = -cos beta1,
    (0,2) = -cos beta2, (0,3) = -cos alpha1, (1,2) = -cos alpha1,
    (1,3) = -cos alpha2, (2,3) = -cos beta1.
    """
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
    beyond it.  Any other inertia raises AmbiguousSignature.
    """
    keep = [j for j in range(4) if j != i]
    sig = _inertia(B.entries[np.ix_(keep, keep)])
    try:
        return _VERTEX_BY_INERTIA[sig]
    except KeyError:
        raise AmbiguousSignature(
            f"vertex {i} submatrix has inertia {sig}, not a recognized vertex type"
        ) from None


def _inequality_sides(a: int, b: int) -> tuple[float, float]:
    """lhs and rhs of the strict realizability inequality for b > a >= 2."""
    lhs = (1.0 + cos(pi / a)) * sin(2.0 * pi / b)
    rhs = (cos(pi / a) + cos(2.0 * pi / b)) * sin(pi / a)
    return lhs, rhs


def classify_realization(params: SimplexParams) -> RealizationClass:
    """Realization class of the normalized parameter pair.

    a = 1 is spherical; (2,2) is hyperbolic with ideal vertices; a = b >= 3
    has extra symmetries and is excluded from this family's analysis; for
    b > a >= 2 the strict inequality decides between a hyperbolic simplex
    with all vertices beyond the absolute and no proper solution at all
    (equality counts as failure: the only root is a degenerate corner).
    """
    a, b = params.a, params.b
    if a == 1:
        return RealizationClass.SPHERICAL
    if a == 2 and b == 2:
        return RealizationClass.HYPERBOLIC_IDEAL
    if a == b:
        return RealizationClass.EXCLUDED_SYMMETRIC
    lhs, rhs = _inequality_sides(a, b)
    if lhs > rhs:
        return RealizationClass.HYPERBOLIC_OUTER
    return RealizationClass.NO_PROPER_SOLUTION


def gram_sign_check(A: SymMatrix4) -> bool:
    """True iff the Gram entries a01, a02, a03, a13 are all negative."""
    g = A.entries
    return bool(g[0, 1] < 0 and g[0, 2] < 0 and g[0, 3] < 0 and g[1, 3] < 0)
