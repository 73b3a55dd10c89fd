"""Tests for the 4x4 symmetric matrix core."""

import numpy as np
import pytest

from hypsimplex import (
    DomainError,
    MinorSpec,
    Signature,
    SingularMatrix,
    SymMatrix4,
    determinant,
    inverse,
    jacobi_minor_identity,
    minor,
    projective_distance,
    signature,
)


def random_symmetric(rng, scale=1.0):
    raw = rng.uniform(-scale, scale, size=(4, 4))
    return SymMatrix4(0.5 * (raw + raw.T) + 2.0 * np.eye(4))


def random_regular_symmetric(rng):
    while True:
        m = random_symmetric(rng)
        if abs(np.linalg.det(m.entries)) > 1e-6:
            return m


class TestSymMatrix4:
    def test_identity(self):
        m = SymMatrix4(np.eye(4))
        assert m[0, 0] == 1.0 and m[1, 2] == 0.0

    def test_diagonal(self):
        m = SymMatrix4(np.diag((1.0, 2.0, 3.0, -4.0)))
        assert m[2, 2] == 3.0 and m[3, 3] == -4.0 and m[0, 3] == 0.0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            SymMatrix4(np.eye(3))

    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            SymMatrix4(bad)

    def test_entries_read_only(self):
        m = SymMatrix4(np.eye(4))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 7.0


class TestMinorSpec:
    def test_principal(self):
        for i in range(4):
            spec = MinorSpec.without_vertex(i)
            assert spec.rows == spec.cols == tuple(j for j in range(4) if j != i)

    def test_without_vertex(self):
        spec = MinorSpec.without_vertex(1)
        assert spec.rows == (0, 2, 3) and spec.cols == (0, 2, 3)

    @pytest.mark.parametrize("i", [4, 7, -1, 1.5, 1.0, "1", None])
    def test_without_vertex_rejects_anything_but_an_int_in_0_to_3(self, i):
        with pytest.raises(ValueError, match="vertex index"):
            MinorSpec.without_vertex(i)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            MinorSpec((2, 0), (0, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            MinorSpec((0, 4), (0, 1))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            MinorSpec((0,), (0, 1))


class TestDeterminantAndMinor:
    def test_determinant_matches_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = random_symmetric(rng)
            expected = float(np.linalg.det(m.entries))
            assert determinant(m) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_minor_matches_numpy_slices(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = random_symmetric(rng)
            size = int(rng.integers(1, 5))
            rows = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
            cols = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
            sub = m.entries[np.ix_(rows, cols)]
            expected = float(np.linalg.det(sub))
            got = minor(m, MinorSpec(rows, cols))
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_returns_python_float(self):
        m = SymMatrix4(np.eye(4))
        assert type(determinant(m)) is float
        assert type(minor(m, MinorSpec.without_vertex(0))) is float


class TestInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = random_regular_symmetric(rng)
            inv = inverse(m)
            assert np.allclose(m.entries @ inv.entries, np.eye(4), atol=1e-9)

    def test_inverse_is_symmetric_matrix(self):
        m = SymMatrix4(np.diag((2.0, 4.0, 5.0, -1.0)))
        inv = inverse(m)
        assert isinstance(inv, SymMatrix4)
        assert inv[1, 1] == pytest.approx(0.25)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            inverse(SymMatrix4(np.diag((1.0, 1.0, 1.0, 0.0))))


class TestSignature:
    def test_known_signatures(self):
        assert signature(SymMatrix4(np.eye(4))).as_tuple() == (4, 0, 0)
        assert signature(SymMatrix4(np.diag((1, 1, 1, -1)))).as_tuple() == (3, 1, 0)
        assert signature(SymMatrix4(np.diag((1, 1, 0, 0)))).as_tuple() == (2, 0, 2)
        assert signature(SymMatrix4(np.diag((-1, -2, 3, 0)))).as_tuple() == (1, 2, 1)

    def test_signature_fields(self):
        sig = signature(SymMatrix4(np.diag((1, 1, -1, 0))))
        assert sig == Signature(positive=2, negative=1, zero=1)

    def test_congruence_invariance(self):
        # Sylvester: signature survives M -> S^T M S for regular S.
        rng = np.random.default_rng(14)
        base = SymMatrix4(np.diag((1.0, 2.0, -3.0, -0.5)))
        for _ in range(50):
            s = rng.uniform(-1, 1, size=(4, 4)) + 2.0 * np.eye(4)
            if abs(np.linalg.det(s)) < 1e-3:
                continue
            transformed = SymMatrix4(s.T @ base.entries @ s)
            assert signature(transformed).as_tuple() == (2, 2, 0)


class TestJacobiMinorIdentity:
    def test_property_suite(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            m = random_regular_symmetric(rng)
            size = int(rng.integers(1, 4))
            rows = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
            cols = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
            lhs, rhs = jacobi_minor_identity(m, MinorSpec(rows, cols))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (rows, cols)

    def test_full_selection_reduces_to_determinant(self):
        m = SymMatrix4(np.diag((2.0, 3.0, -1.0, 5.0)))
        spec = MinorSpec((0, 1, 2, 3), (0, 1, 2, 3))
        lhs, rhs = jacobi_minor_identity(m, spec)
        assert lhs == pytest.approx(determinant(m))
        assert rhs == pytest.approx(determinant(m))

    def test_singular_matrix_propagates(self):
        with pytest.raises(SingularMatrix):
            jacobi_minor_identity(
                SymMatrix4(np.diag((1.0, 1.0, 0.0, 1.0))), MinorSpec((0,), (0,))
            )

    def test_suite_expands_each_determinant_once(self, monkeypatch):
        # The inverse and the right-hand side share one expansion of each
        # matrix's 4x4 determinant.
        import hypsimplex.matrices as matrices_module

        expand = matrices_module._det
        sizes = []
        monkeypatch.setattr(
            matrices_module, "_det", lambda m: sizes.append(len(m)) or expand(m)
        )
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = random_regular_symmetric(rng)
            size = int(rng.integers(1, 4))
            rows = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
            cols = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
            lhs, rhs = jacobi_minor_identity(m, MinorSpec(rows, cols))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (rows, cols)
        assert sizes.count(4) == 50


class TestProjectiveDistance:
    def test_same_point_is_zero(self):
        assert projective_distance(SymMatrix4(np.eye(4)), 2, 2) == 0.0

    def test_hyperbolic_known_distance(self):
        arr = np.eye(4)
        arr[0, 1] = arr[1, 0] = -np.cosh(1.0)
        d = projective_distance(SymMatrix4(arr), 0, 1)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_hyperbolic_clamps_near_one(self):
        arr = np.eye(4)
        arr[0, 1] = arr[1, 0] = -(1.0 - 1e-12)
        d = projective_distance(SymMatrix4(arr), 0, 1)
        assert d == 0.0

    def test_hyperbolic_argument_below_one_raises(self):
        arr = np.eye(4)
        arr[0, 1] = arr[1, 0] = -0.5
        with pytest.raises(DomainError):
            projective_distance(SymMatrix4(arr), 0, 1)

    def test_nonpositive_diagonal_product_raises(self):
        with pytest.raises(DomainError):
            projective_distance(SymMatrix4(np.diag((1.0, -1.0, 1.0, 1.0))), 0, 1)

    def test_bad_index_raises(self):
        with pytest.raises(DomainError):
            projective_distance(SymMatrix4(np.eye(4)), 0, 4)
