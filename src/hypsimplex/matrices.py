"""Symmetric 4x4 matrix algebra for projective-metric computations.

Everything here is exact-shape: determinants and minors come from cofactor
expansion rather than a general LU path, the inverse is the adjugate divided
by the determinant, and the classical Jacobi identity relating a minor of a
regular matrix to the complementary minor of its inverse is exposed as a
checkable pair of numbers.  Distances between points of projective space are
evaluated from a Gram matrix in either the elliptic or the hyperbolic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import acos, acosh, sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, SingularMatrix

#: |det| below SINGULARITY_FACTOR * (max absolute entry)**4 counts as singular.
SINGULARITY_FACTOR = 1e-12

#: eigenvalues with |lam| <= ZERO_EIG_FACTOR * (max absolute entry) count as zero.
ZERO_EIG_FACTOR = 1e-9

#: arccosh arguments in [1 - ARC_CLAMP_TOL, 1) are clamped to 1 (distance 0);
#: arccos arguments within ARC_CLAMP_TOL outside [-1, 1] are clamped likewise.
ARC_CLAMP_TOL = 1e-9

_SYMMETRY_TOL = 1e-12
_ALL = (0, 1, 2, 3)


class Geometry(Enum):
    """Which distance formula applies along a projective line."""

    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class SymMatrix4:
    """An immutable symmetric 4x4 real matrix.

    Parameters
    ----------
    entries : array-like, shape (4, 4)
        Matrix entries; must be symmetric to within an absolute tolerance of
        1e-12 relative to the largest entry.  The stored array is the exact
        symmetrization (M + M^T)/2 and is read-only.

    Raises
    ------
    ValueError
        If the input is not 4x4 or not symmetric within tolerance.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(np.abs(arr - arr.T))) > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        arr = (arr + arr.T) / 2.0
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def identity(cls) -> "SymMatrix4":
        return cls(np.eye(4))

    @classmethod
    def diagonal(cls, d: Sequence[float]) -> "SymMatrix4":
        return cls(np.diag(np.asarray(d, dtype=float)))

    def __getitem__(self, idx: tuple[int, int]) -> float:
        return float(self.entries[idx])

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.entries)))


@dataclass(frozen=True)
class Signature:
    """Inertia of a symmetric matrix: eigenvalue sign counts."""

    positive: int
    negative: int
    zero: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


@dataclass(frozen=True)
class MinorSpec:
    """Row/column index selection for a minor determinant.

    Both index tuples must be strictly increasing, non-empty, of equal
    length, and drawn from {0, 1, 2, 3}.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        cols = tuple(self.cols)
        for name, idx in (("rows", rows), ("cols", cols)):
            if not idx:
                raise ValueError(f"{name} selection must be non-empty")
            if any(i not in _ALL for i in idx):
                raise ValueError(f"{name} indices must lie in 0..3")
            if any(x >= y for x, y in zip(idx, idx[1:])):
                raise ValueError(f"{name} indices must be strictly increasing")
        if len(rows) != len(cols):
            raise ValueError("rows and cols must select the same number of indices")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def principal(cls, keep: Iterable[int]) -> "MinorSpec":
        idx = tuple(sorted(keep))
        return cls(idx, idx)

    @classmethod
    def without_vertex(cls, i: int) -> "MinorSpec":
        """The principal 3x3 selection deleting row and column ``i``."""
        return cls.principal(j for j in _ALL if j != i)


def _det2(m: np.ndarray) -> float:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _det3(m: np.ndarray) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _det4(m: np.ndarray) -> float:
    total = 0.0
    sign = 1.0
    rows = (1, 2, 3)
    for c in range(4):
        cols = tuple(j for j in range(4) if j != c)
        total += sign * m[0, c] * _det3(m[np.ix_(rows, cols)])
        sign = -sign
    return total


def _subdet(m: np.ndarray, rows: Sequence[int], cols: Sequence[int]) -> float:
    k = len(rows)
    sub = m[np.ix_(rows, cols)]
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return _det2(sub)
    if k == 3:
        return _det3(sub)
    return _det4(sub)


def determinant(m: SymMatrix4) -> float:
    """Determinant by cofactor expansion along the first row."""
    return float(_det4(m.entries))


def minor(m: SymMatrix4, spec: MinorSpec) -> float:
    """Determinant of the submatrix selected by ``spec``.

    The principal selection ``rows=cols={0,1,2,3}\\{i}`` is the vertex minor
    for vertex ``i``.
    """
    return float(_subdet(m.entries, spec.rows, spec.cols))


def _singularity_threshold(m: SymMatrix4) -> float:
    return SINGULARITY_FACTOR * m.max_abs_entry() ** 4


def inverse(m: SymMatrix4) -> SymMatrix4:
    """Inverse via the adjugate; raises SingularMatrix near singularity.

    Raises
    ------
    SingularMatrix
        When |det(m)| <= 1e-12 * (max absolute entry)**4.
    """
    det = _det4(m.entries)
    if abs(det) <= _singularity_threshold(m):
        raise SingularMatrix(f"determinant {det:.3e} below singularity threshold")
    arr = m.entries
    cof = np.empty((4, 4))
    for i in range(4):
        rows = tuple(r for r in range(4) if r != i)
        for j in range(4):
            cols = tuple(c for c in range(4) if c != j)
            cof[i, j] = (-1.0) ** (i + j) * _det3(arr[np.ix_(rows, cols)])
    # adjugate is cof^T; for symmetric input the cofactor matrix is symmetric
    inv = cof.T / det
    inv = (inv + inv.T) / 2.0
    return SymMatrix4(inv)


def _inertia(arr: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric array,
    with the zero tolerance ZERO_EIG_FACTOR * (max absolute entry)."""
    eig = np.linalg.eigvalsh(arr)
    tol = ZERO_EIG_FACTOR * float(np.max(np.abs(arr)))
    return (
        int(np.sum(eig > tol)),
        int(np.sum(eig < -tol)),
        int(np.sum(np.abs(eig) <= tol)),
    )


def signature(m: SymMatrix4) -> Signature:
    """Eigenvalue inertia with a scale-relative zero tolerance."""
    return Signature(*_inertia(m.entries))


def _complement(idx: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i in _ALL if i not in idx)


def jacobi_minor_identity(m: SymMatrix4, spec: MinorSpec) -> tuple[float, float]:
    """Both sides of Jacobi's minor identity for a regular matrix.

    For row selection I and column selection J of equal size, the minor of
    ``m`` on (I, J) equals

        det(m) * minor(inverse(m), rows = J^c, cols = I^c) * (-1)**(sum I + sum J)

    where the complements are taken in {0,1,2,3} and an empty minor counts
    as 1.  Note the complements swap sides: column complement indexes the
    rows of the inverse.  Returns (lhs, rhs) for the caller to compare.

    Raises
    ------
    SingularMatrix
        Propagated from ``inverse``.
    """
    lhs = minor(m, spec)
    inv = inverse(m)
    rows_c = _complement(spec.cols)
    cols_c = _complement(spec.rows)
    comp = _subdet(inv.entries, rows_c, cols_c) if rows_c else 1.0
    sign = (-1.0) ** (sum(spec.rows) + sum(spec.cols))
    rhs = float(_det4(m.entries) * comp * sign)
    return lhs, rhs


def projective_distance(
    gram: SymMatrix4, i: int, j: int, geometry: Geometry = Geometry.HYPERBOLIC
) -> float:
    """Distance between points ``i`` and ``j`` read off a Gram matrix.

    Parameters
    ----------
    gram : SymMatrix4
        Gram matrix of the points (typically the inverse of an angle matrix).
    i, j : int
        Point indices in 0..3.  ``i == j`` returns 0 exactly.
    geometry : Geometry
        ELLIPTIC evaluates arccos(g_ij / sqrt(g_ii g_jj)); HYPERBOLIC
        evaluates arccosh(-g_ij / sqrt(g_ii g_jj)).  For points beyond the
        absolute the hyperbolic form is evaluated formally as written.

    Raises
    ------
    DomainError
        If g_ii * g_jj <= 0, or the arc argument is outside its valid range
        by more than ARC_CLAMP_TOL.
    """
    if not (0 <= i <= 3 and 0 <= j <= 3):
        raise DomainError(f"point indices must lie in 0..3, got ({i}, {j})")
    if i == j:
        return 0.0
    g = gram.entries
    prod = g[i, i] * g[j, j]
    if prod <= 0.0:
        raise DomainError(
            f"diagonal product g[{i},{i}]*g[{j},{j}] = {prod:.3e} is not positive"
        )
    ratio = g[i, j] / sqrt(prod)
    if geometry is Geometry.ELLIPTIC:
        if abs(ratio) > 1.0 + ARC_CLAMP_TOL:
            raise DomainError(f"arccos argument {ratio!r} outside [-1, 1]")
        return acos(min(1.0, max(-1.0, ratio)))
    arg = -ratio
    if arg < 1.0 - ARC_CLAMP_TOL:
        raise DomainError(f"arccosh argument {arg!r} below 1")
    return acosh(max(1.0, arg))
