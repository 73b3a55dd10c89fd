"""Symmetric 4x4 matrix algebra for projective-metric computations.

Everything here is exact-shape: determinants and minors come from cofactor
expansion rather than a general LU path, the inverse is the adjugate divided
by the determinant, and the classical Jacobi identity relating a minor of a
regular matrix to the complementary minor of its inverse is exposed as a
checkable pair of numbers.  Hyperbolic distances between points of
projective space are evaluated from a Gram matrix.
This general path is the reference for the closed forms of
``conditions.gram_raw``: ``hypsimplex check`` recomputes each solved
verdict on it.  solve() does not use it.
"""

from __future__ import annotations

from math import acosh, sqrt
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, SingularMatrix
from .model import SINGULARITY_FACTOR, Signature, _validated_make

#: eigenvalues with |lam| <= ZERO_EIG_FACTOR * (max absolute entry) count as zero.
ZERO_EIG_FACTOR = 1e-9

#: arccosh arguments in [1 - ARC_CLAMP_TOL, 1) are clamped to 1 (distance 0).
ARC_CLAMP_TOL = 1e-9

_SYMMETRY_TOL = 1e-12
_ALL = (0, 1, 2, 3)


class SymMatrix4(NamedTuple("SymMatrix4", [("entries", np.ndarray)])):
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

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(np.abs(arr - arr.T))) > _SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        arr = (arr + arr.T) / 2.0
        arr.flags.writeable = False
        return super().__new__(cls, arr)

    def __getitem__(self, idx: tuple[int, int]) -> float:
        return float(self.entries[idx])

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.entries)))


class MinorSpec(NamedTuple("MinorSpec", [("rows", tuple[int, ...]), ("cols", tuple[int, ...])])):
    """Row/column index selection for a minor determinant.

    Both index tuples must be strictly increasing, non-empty, of equal
    length, and drawn from {0, 1, 2, 3}.
    """

    __slots__ = ()
    _make = _validated_make

    def __new__(cls, rows: tuple[int, ...], cols: tuple[int, ...]):
        rows = tuple(rows)
        cols = tuple(cols)
        for name, idx in (("rows", rows), ("cols", cols)):
            if not idx:
                raise ValueError(f"{name} selection must be non-empty")
            if any(i not in _ALL for i in idx):
                raise ValueError(f"{name} indices must lie in 0..3")
            if any(x >= y for x, y in zip(idx, idx[1:])):
                raise ValueError(f"{name} indices must be strictly increasing")
        if len(rows) != len(cols):
            raise ValueError("rows and cols must select the same number of indices")
        return super().__new__(cls, rows, cols)

    @classmethod
    def without_vertex(cls, i: int) -> "MinorSpec":
        """The principal 3x3 selection deleting row and column ``i``, an int
        in 0..3; anything else raises ValueError."""
        if not isinstance(i, int) or i not in _ALL:
            raise ValueError(f"vertex index must be an int in 0..3, got {i!r}")
        keep = tuple(j for j in _ALL if j != i)
        return cls(keep, keep)


def _without(m: list[list[float]], i: int, j: int) -> list[list[float]]:
    """The nested-list matrix ``m`` with row ``i`` and column ``j`` deleted."""
    return [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]


def _det(m: list[list[float]]) -> float:
    """Determinant of a square nested-list matrix by cofactor expansion
    along row 0."""
    if len(m) == 1:
        return m[0][0]
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0.0
    sign = 1.0
    for c, head in enumerate(m[0]):
        total += sign * head * _det(_without(m, 0, c))
        sign = -sign
    return total


def determinant(m: SymMatrix4) -> float:
    """Determinant by cofactor expansion along the first row."""
    return float(_det(m.entries.tolist()))


def minor(m: SymMatrix4, spec: MinorSpec) -> float:
    """Determinant of the submatrix selected by ``spec``.

    The principal selection ``rows=cols={0,1,2,3}\\{i}`` is the vertex minor
    for vertex ``i``.
    """
    return float(_det(m.entries[np.ix_(spec.rows, spec.cols)].tolist()))


def _singularity_threshold(m: SymMatrix4) -> float:
    return SINGULARITY_FACTOR * m.max_abs_entry() ** 4


def inverse(m: SymMatrix4) -> SymMatrix4:
    """Inverse via the adjugate; raises SingularMatrix near singularity.

    Raises
    ------
    SingularMatrix
        When |det(m)| <= 1e-12 * (max absolute entry)**4.
    """
    return _inverse_and_det(m)[0]


def _inverse_and_det(m: SymMatrix4) -> tuple[SymMatrix4, float]:
    """``inverse(m)`` and the determinant it divides by, from one expansion."""
    arr = m.entries.tolist()
    det = _det(arr)
    if abs(det) <= _singularity_threshold(m):
        raise SingularMatrix(f"determinant {det:.3e} below singularity threshold")
    cof = np.array(
        [[(-1.0) ** (i + j) * _det(_without(arr, i, j)) for j in _ALL] for i in _ALL]
    )
    # adjugate is cof^T; for symmetric input the cofactor matrix is symmetric
    inv = cof.T / det
    inv = (inv + inv.T) / 2.0
    return SymMatrix4(inv), det


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
    inv, det = _inverse_and_det(m)
    rows_c = _complement(spec.cols)
    cols_c = _complement(spec.rows)
    comp = _det(inv.entries[np.ix_(rows_c, cols_c)].tolist()) if rows_c else 1.0
    sign = (-1.0) ** (sum(spec.rows) + sum(spec.cols))
    rhs = float(det * comp * sign)
    return lhs, rhs


def projective_distance(gram: SymMatrix4, i: int, j: int) -> float:
    """Hyperbolic distance between points ``i`` and ``j`` of a Gram matrix.

    Parameters
    ----------
    gram : SymMatrix4
        Gram matrix of the points (typically the inverse of an angle matrix).
    i, j : int
        Point indices in 0..3.  ``i == j`` returns 0 exactly.

    Returns arccosh(-g_ij / sqrt(g_ii g_jj)); for points beyond the absolute
    it is evaluated formally as written.

    Raises
    ------
    DomainError
        If g_ii * g_jj <= 0, or the arccosh argument is below 1 by more
        than ARC_CLAMP_TOL.
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
    arg = -g[i, j] / sqrt(prod)
    if arg < 1.0 - ARC_CLAMP_TOL:
        raise DomainError(f"arccosh argument {arg!r} below 1")
    return acosh(max(1.0, arg))
