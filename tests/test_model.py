"""Tests for parameter handling, angle assembly, and classification."""

import copy
import dataclasses
import pickle
import re
from math import cos, pi

import numpy as np
import pytest

from hypsimplex import (
    AmbiguousSignature,
    DihedralAngles,
    ContractionEstimate,
    DomainBox,
    GridRoot,
    InvalidParams,
    MinorSpec,
    RealizationClass,
    Signature,
    SimplexParams,
    SolverConfig,
    SymMatrix4,
    VertexClass,
    build_coxeter_schlafli,
    classify_realization,
    classify_vertex,
    gram_sign_check,
    inverse,
    normalize_params,
    solve,
)

from oracles import TRUE_ROOTS


class TestParams:
    def test_normalize_keeps_order(self):
        p = normalize_params(2, 5)
        assert (p.a, p.b, p.swapped) == (2, 5, False)

    def test_normalize_swaps(self):
        p = normalize_params(5, 2)
        assert (p.a, p.b, p.swapped) == (2, 5, True)

    def test_normalize_rejects_nonpositive(self):
        with pytest.raises(InvalidParams):
            normalize_params(0, 3)
        with pytest.raises(InvalidParams):
            normalize_params(4, -1)

    def test_direct_construction_requires_order(self):
        with pytest.raises(InvalidParams):
            SimplexParams(5, 3)

    @pytest.mark.parametrize("a, b", [(2.5, 4), (3, 7.5), (3.0, 7), (True, 3), (2, np.float64(5))])
    def test_rejects_non_integers(self, a, b):
        with pytest.raises(InvalidParams, match="integers"):
            SimplexParams(a, b)
        with pytest.raises(InvalidParams, match="integers"):
            normalize_params(a, b)
        with pytest.raises(InvalidParams, match="integers"):
            normalize_params(b, a)

    def test_accepts_numpy_integers_as_python_ints(self):
        # Stored as int, so solve() reports Python floats as for int input.
        p = normalize_params(np.int64(7), np.int32(3))
        assert (p.a, p.b, p.swapped) == (3, 7, True)
        assert type(p.a) is int and type(p.b) is int
        assert classify_realization(p) is RealizationClass.HYPERBOLIC_OUTER
        angles = solve(p).angles.as_tuple()
        assert all(type(v) is float for v in angles)


class TestDihedralAngles:
    def test_from_reduced_satisfies_constraints(self):
        p = SimplexParams(3, 7)
        angles = DihedralAngles.from_reduced(p, 0.9, 0.05)
        r1 = 2 * angles.alpha1 + angles.alpha2 - 2 * pi / p.a
        r2 = 2 * angles.beta1 + angles.beta2 - 2 * pi / p.b
        assert abs(r1) < 1e-15 and abs(r2) < 1e-15
        assert angles.alpha2 == pytest.approx(2 * pi / 3 - 1.8)
        assert angles.beta2 == pytest.approx(2 * pi / 7 - 0.1)

    def test_rejects_angle_outside_range(self):
        with pytest.raises(ValueError):
            DihedralAngles(-0.1, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            DihedralAngles(0.5, 0.5, 3.2, 0.5)

    def test_as_tuple_order(self):
        angles = DihedralAngles(0.1, 0.2, 0.3, 0.4)
        assert angles.as_tuple() == (0.1, 0.2, 0.3, 0.4)


# type -> (fields by position, the repr the frozen dataclass printed)
VALUES = {
    Signature: ((3, 1, 0), "Signature(positive=3, negative=1, zero=0)"),
    SimplexParams: ((3, 7, False), "SimplexParams(a=3, b=7, swapped=False)"),
    DihedralAngles: (
        (0.5, 0.25, 0.125, 1.5),
        "DihedralAngles(alpha1=0.5, alpha2=0.25, beta1=0.125, beta2=1.5)",
    ),
    DomainBox: (
        (0.0, 1.0, 0.0, 0.5),
        "DomainBox(alpha1_lo=0.0, alpha1_hi=1.0, beta1_lo=0.0, beta1_hi=0.5)",
    ),
    SolverConfig: ((5,), "SolverConfig(max_iterations=5)"),
    MinorSpec: (((0, 2), (1, 3)), "MinorSpec(rows=(0, 2), cols=(1, 3))"),
    GridRoot: (
        (0.5, 0.25, 1e-17, -2e-17),
        "GridRoot(alpha1=0.5, beta1=0.25, residual1=1e-17, residual2=-2e-17)",
    ),
    ContractionEstimate: (
        (2.0, 4.0, 0.5, DomainBox(0.0, 1.0, 0.0, 0.5)),
        "ContractionEstimate(k1=2.0, k2=4.0, norm_bound=0.5, box=DomainBox("
        "alpha1_lo=0.0, alpha1_hi=1.0, beta1_lo=0.0, beta1_hi=0.5))",
    ),
}


class TestValueTypes:
    """The value types are immutable named tuples that print, hash, pickle and
    copy as the frozen dataclasses they replace did."""

    @pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
    def test_named_tuple_contract(self, cls):
        args, text = VALUES[cls]
        value = cls(*args)
        assert repr(value) == text
        assert cls(**dict(zip(cls._fields, args))) == value == args
        assert hash(value) == hash(cls(*args))
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and type(copied) is cls
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[0], args[0])
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_swapped_defaults_to_false(self):
        assert SimplexParams(3, 7) == SimplexParams(a=3, b=7, swapped=False)

    @pytest.mark.parametrize("value, field, bad", [
        (SimplexParams(3, 7), "b", 2),
        (SimplexParams(3, 7), "a", 2.5),
        (SimplexParams(3, 7), "a", 0),
        (DihedralAngles(0.5, 0.25, 0.125, 1.5), "beta1", 3.5),
        (DihedralAngles(0.5, 0.25, 0.125, 1.5), "alpha2", -0.1),
        (DomainBox(0.0, 1.0, 0.0, 0.5), "alpha1_hi", 0.0),
        (DomainBox(0.0, 1.0, 0.0, 0.5), "beta1_lo", 0.75),
        (SolverConfig(5), "max_iterations", 0),
        (MinorSpec((0, 1), (0, 1)), "rows", (1, 0)),
    ])
    def test_replace_and_make_validate_as_the_constructor(self, value, field, bad):
        cls = type(value)
        fields = {**value._asdict(), field: bad}
        with pytest.raises((InvalidParams, ValueError)) as built:
            cls(**fields)
        message = re.escape(str(built.value))
        with pytest.raises(built.type, match=message):
            value._replace(**{field: bad})
        with pytest.raises(built.type, match=message):
            cls._make(fields.values())

    def test_dataclass_replace_and_asdict_still_take_a_solve_report(self):
        report = solve(SimplexParams(3, 7))
        assert dataclasses.replace(report, iterations=3) == report._replace(iterations=3)
        assert dataclasses.asdict(report) == report._asdict()
        with pytest.raises(TypeError):
            dataclasses.replace(report, bogus=1)

    def test_replace_stores_numpy_integers_as_int(self):
        p = SimplexParams(3, 7)._replace(b=np.int64(8))
        assert p == SimplexParams(3, 8) and type(p.b) is int


class TestCoxeterSchlafliMatrix:
    def test_layout(self):
        angles = DihedralAngles(0.3, 0.5, 0.7, 1.1)
        m = build_coxeter_schlafli(angles)
        c_a1, c_a2 = cos(0.3), cos(0.5)
        c_b1, c_b2 = cos(0.7), cos(1.1)
        expected = np.array(
            [
                [1.0, -c_b1, -c_b2, -c_a1],
                [-c_b1, 1.0, -c_a1, -c_a2],
                [-c_b2, -c_a1, 1.0, -c_b1],
                [-c_a1, -c_a2, -c_b1, 1.0],
            ]
        )
        assert np.allclose(m.entries, expected, atol=1e-15)

    def test_unit_diagonal(self):
        angles = DihedralAngles(1.0, 1.2, 0.4, 0.8)
        m = build_coxeter_schlafli(angles)
        assert all(m[i, i] == 1.0 for i in range(4))


class TestVertexClassification:
    def _embed(self, block3):
        arr = np.eye(4)
        arr[:3, :3] = block3
        return SymMatrix4(arr)

    def test_proper_vertex(self):
        m = self._embed(np.eye(3))
        assert classify_vertex(m, 3) is VertexClass.PROPER

    def test_ideal_vertex(self):
        # Flat triangle group: positive semidefinite with one null direction.
        block = np.full((3, 3), -0.5) + 1.5 * np.eye(3)
        m = self._embed(block)
        assert classify_vertex(m, 3) is VertexClass.IDEAL

    def test_outer_vertex(self):
        m = self._embed(np.diag([1.0, 1.0, -1.0]))
        assert classify_vertex(m, 3) is VertexClass.OUTER

    def test_ambiguous_raises(self):
        m = SymMatrix4(np.diag((1.0, 0.0, 0.0, 1.0)))
        with pytest.raises(AmbiguousSignature):
            classify_vertex(m, 3)

    @pytest.mark.parametrize("i", [4, -1, 1.5])
    def test_vertex_index_outside_0_to_3_raises_value_error(self, i):
        # Not AmbiguousSignature about a "vertex 4 submatrix": the index
        # selects no vertex at all.
        with pytest.raises(ValueError, match="vertex index"):
            classify_vertex(SymMatrix4(np.eye(4)), i)

    def test_all_outer_at_solved_root(self):
        (a, b), (x, y) = next(iter(TRUE_ROOTS.items()))
        p = SimplexParams(a, b)
        m = build_coxeter_schlafli(DihedralAngles.from_reduced(p, x, y))
        for vertex in range(4):
            assert classify_vertex(m, vertex) is VertexClass.OUTER


class TestRealizationClass:
    def test_spherical_for_smallest_parameter(self):
        assert classify_realization(SimplexParams(1, 1)) is RealizationClass.SPHERICAL
        assert classify_realization(SimplexParams(1, 9)) is RealizationClass.SPHERICAL

    def test_ideal_pair(self):
        assert classify_realization(SimplexParams(2, 2)) is RealizationClass.HYPERBOLIC_IDEAL

    def test_excluded_symmetric(self):
        assert classify_realization(SimplexParams(3, 3)) is RealizationClass.EXCLUDED_SYMMETRIC
        assert classify_realization(SimplexParams(7, 7)) is RealizationClass.EXCLUDED_SYMMETRIC

    def test_outer_pairs(self):
        for (a, b) in ((2, 3), (2, 7), (4, 9), (6, 12)):
            assert classify_realization(SimplexParams(a, b)) is RealizationClass.HYPERBOLIC_OUTER

    def test_no_solution_pairs(self):
        for (a, b) in ((2, 8), (2, 9), (3, 9), (6, 13)):
            assert classify_realization(SimplexParams(a, b)) is RealizationClass.NO_PROPER_SOLUTION

    def test_swap_invariance(self):
        for (a, b) in ((2, 5), (3, 8), (2, 9), (1, 4)):
            direct = classify_realization(normalize_params(a, b))
            swapped = classify_realization(normalize_params(b, a))
            assert direct is swapped


class TestGramSignCheck:
    def test_signs_at_solved_root(self):
        p = SimplexParams(2, 4)
        x, y = TRUE_ROOTS[(2, 4)]
        gram = inverse(build_coxeter_schlafli(DihedralAngles.from_reduced(p, x, y)))
        assert gram_sign_check(gram) is True

    def test_false_for_identity(self):
        assert gram_sign_check(SymMatrix4(np.eye(4))) is False
