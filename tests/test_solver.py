"""Tests for the solve pipeline, grid oracle, and contraction estimates."""

import json
from math import pi
from pathlib import Path

import numpy as np
import pytest

from hypsimplex import (
    AmbiguousSignature,
    DihedralAngles,
    DomainBox,
    DomainError,
    InvalidClass,
    NoContraction,
    SimplexParams,
    SingularMatrix,
    SolveStatus,
    SolverConfig,
    VertexClass,
    build_coxeter_schlafli,
    check_properness,
    classify_vertex,
    compute_bmax,
    contraction_map,
    determinant,
    domain_for,
    estimate_contraction,
    gram_sign_check,
    grid_oracle,
    inverse,
    projective_distance,
    signature,
    solve,
)

from hypsimplex import conditions, solver
from hypsimplex.solver import _sign_change_cells

from oracles import IMPROPER_ROOT_23, LARGE_A_ROOTS, TRUE_ROOTS

ROOT_TOL = 1e-15
REFS_JSON = Path(__file__).resolve().parents[1] / "bench" / "refs.json"


@pytest.fixture(scope="module")
def solved_reports():
    return {pair: solve(SimplexParams(*pair)) for pair in TRUE_ROOTS}


class TestDomainBox:
    def test_small_a_boxes(self):
        box = domain_for(SimplexParams(2, 3))
        assert box.alpha1_lo == pytest.approx(pi / 3)
        assert box.alpha1_hi == pytest.approx(pi / 2)
        box = domain_for(SimplexParams(3, 8))
        assert box.alpha1_lo == pytest.approx(pi / 12)
        assert box.alpha1_hi == pytest.approx(pi / 3)

    def test_generic_boxes(self):
        for a, b in ((4, 7), (6, 12)):
            box = domain_for(SimplexParams(a, b))
            assert box.alpha1_lo == 0.0
            assert box.alpha1_hi == pytest.approx(pi / a)
            assert box.beta1_lo == 0.0
            assert box.beta1_hi == pytest.approx(pi / b)

    def test_roots_lie_inside(self):
        for (a, b), (x, y) in TRUE_ROOTS.items():
            assert domain_for(SimplexParams(a, b)).contains(x, y)

    def test_clamp_and_contains(self):
        box = DomainBox(0.0, 1.0, 0.0, 0.5)
        assert box.clamp(2.0, -1.0) == (1.0, 0.0)
        assert box.contains(0.5, 0.25)
        assert not box.contains(1.1, 0.25)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            DomainBox(1.0, 1.0, 0.0, 0.5)


class TestSolveRegression:
    def test_matches_frozen_roots(self, solved_reports):
        for (a, b), (x, y) in TRUE_ROOTS.items():
            report = solved_reports[(a, b)]
            assert report.status is SolveStatus.SOLVED, (a, b)
            assert report.angles.alpha1 == pytest.approx(x, abs=ROOT_TOL), (a, b)
            assert report.angles.beta1 == pytest.approx(y, abs=ROOT_TOL), (a, b)

    def test_residuals_below_tolerance(self, solved_reports):
        for pair, report in solved_reports.items():
            assert abs(report.residual_cond1) < 1e-11, pair
            assert abs(report.residual_cond2) < 1e-11, pair

    def test_properness_passes_everywhere(self, solved_reports):
        for pair, report in solved_reports.items():
            assert report.properness.all_pass, (pair, report.properness)

    def test_contraction_certificate_found_everywhere(self, solved_reports):
        for pair, report in solved_reports.items():
            assert report.contraction_norm_estimate is not None, pair
            assert report.contraction_norm_estimate < 1.0, pair
            assert report.certificate_box.contains(report.angles.alpha1, report.angles.beta1)

    def test_angles_satisfy_linear_constraints(self, solved_reports):
        for pair, report in solved_reports.items():
            r1, r2 = report.angles.constraint_residuals(SimplexParams(*pair))
            assert max(abs(r1), abs(r2)) < 1e-12


class TestSolveMethodsAgree:
    @pytest.mark.parametrize("pair", [(2, 4), (3, 6), (5, 9)])
    def test_all_methods_find_the_same_root(self, pair):
        """solve() and the independent grid oracle find the same root."""
        params = SimplexParams(*pair)
        report = solve(params)
        assert report.status is SolveStatus.SOLVED
        (root,) = grid_oracle(params)
        assert root.alpha1 == pytest.approx(report.angles.alpha1, abs=1e-9)
        assert root.beta1 == pytest.approx(report.angles.beta1, abs=1e-9)


class TestLargeA:
    @pytest.mark.parametrize("pair", sorted(LARGE_A_ROOTS))
    def test_matches_reference_roots(self, pair):
        report = solve(SimplexParams(*pair))
        assert report.status is SolveStatus.SOLVED
        assert report.properness.all_pass
        got = (report.angles.alpha1, report.angles.beta1)
        for value, want in zip(got, LARGE_A_ROOTS[pair]):
            assert abs(value - want) <= 1e-9, pair
            assert abs(value - want) <= 1e-6 * abs(want), pair

    @pytest.mark.parametrize("pair", sorted(LARGE_A_ROOTS))
    def test_carries_a_certificate(self, pair):
        report = solve(SimplexParams(*pair))
        assert 0.0 < report.contraction_norm_estimate < 1.0, pair
        assert report.certificate_box.contains(report.angles.alpha1, report.angles.beta1)


class TestOneCertificateBox:
    @pytest.mark.parametrize("pair", [(2, 7), (200, 400)])
    def test_one_estimate_per_solve(self, pair, monkeypatch):
        calls = []
        original = solver.estimate_contraction

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "estimate_contraction", counting)
        report = solve(SimplexParams(*pair))
        assert report.status is SolveStatus.SOLVED
        assert len(calls) == 1, pair

    def test_every_pair_up_to_a_20_is_certified(self):
        for a in range(2, 21):
            for b in range(a + 1, compute_bmax(a) + 1):
                report = solve(SimplexParams(a, b))
                assert report.status is SolveStatus.SOLVED, (a, b)
                assert report.contraction_norm_estimate < 1.0, (a, b)
                root = (report.angles.alpha1, report.angles.beta1)
                assert report.certificate_box.contains(*root), (a, b)


class TestSolveStatuses:
    def test_boundary_pair(self):
        report = solve(SimplexParams(2, 8))
        assert report.status is SolveStatus.BOUNDARY_SOLUTION
        assert report.angles.alpha1 == pytest.approx(pi / 2)
        assert report.angles.alpha2 == 0.0
        assert report.angles.beta1 == 0.0
        assert report.angles.beta2 == pytest.approx(pi / 4)
        assert not report.properness.all_pass

    def test_unsolvable_pairs(self):
        for pair in ((2, 9), (3, 9), (4, 12), (6, 17)):
            report = solve(SimplexParams(*pair))
            assert report.status is SolveStatus.NO_PROPER_SOLUTION, pair
            assert report.angles is None

    def test_invalid_classes_raise(self):
        for pair in ((1, 5), (2, 2), (4, 4)):
            with pytest.raises(InvalidClass):
                solve(SimplexParams(*pair))

    def test_unreachable_tolerance_diverges(self):
        report = solve(
            SimplexParams(2, 4),
            SolverConfig(tolerance=1e-40, max_iterations=50),
        )
        assert report.status is SolveStatus.DIVERGED
        assert report.angles is None

    def test_angles_are_python_floats(self):
        for pair in ((2, 4), (3, 8), (2, 8)):
            angles = solve(SimplexParams(*pair)).angles
            assert all(type(v) is float for v in angles.as_tuple()), pair


class TestDecidedByTheClass:
    """solve() takes solvability from the class, not from a corner value
    compared with an absolute tolerance."""

    @pytest.mark.parametrize(
        "pair", [(3737, 7474), (5000, 10000), (20000, 40000), (100000, 200000)]
    )
    def test_b_2a_is_solved_and_certified_at_large_a(self, pair):
        report = solve(SimplexParams(*pair))
        assert report.status is SolveStatus.SOLVED
        assert report.properness.all_pass
        assert report.contraction_norm_estimate < 1.0
        assert report.certificate_box.contains(report.angles.alpha1, report.angles.beta1)

    @pytest.mark.parametrize("pair", [(40000, 80001), (50000, 100001)])
    def test_b_2a_plus_1_has_no_proper_solution_at_large_a(self, pair):
        assert solve(SimplexParams(*pair)).status is SolveStatus.NO_PROPER_SOLUTION

    def test_boundary_status_only_at_2_8(self):
        for a in range(2, 13):
            for b in range(a + 1, 5 * a + 1):
                status = solve(SimplexParams(a, b)).status
                boundary = status is SolveStatus.BOUNDARY_SOLUTION
                assert boundary == ((a, b) == (2, 8)), (a, b, status)


def _matrix_path(angles):
    """(flags, determinant, vertex classes, edge lengths) from the public
    4x4 matrix functions: cofactor determinant, eigenvalue vertex classes
    (None if one is unrecognized), adjugate inverse and arccosh distances
    (None where the inverse or a distance is undefined)."""
    matrix = build_coxeter_schlafli(angles)
    det = determinant(matrix)
    try:
        classes = tuple(classify_vertex(matrix, i) for i in range(4))
    except AmbiguousSignature:
        classes = None
    gram = lengths = None
    try:
        gram = inverse(matrix)
        lengths = [projective_distance(gram, i, j) for i, j in ((0, 1), (0, 2), (0, 3), (1, 3))]
    except (SingularMatrix, DomainError):
        pass
    flags = (
        all(0.0 < v < pi for v in angles.as_tuple()),
        det < 0.0,
        classes is not None and all(c is VertexClass.OUTER for c in classes),
        det < 0.0 and gram is not None and gram_sign_check(gram),
    )
    return flags, det, classes, lengths


@pytest.fixture(scope="module")
def a2_second_roots():
    """The transversal second roots of every a = 2 pair with a proper root."""
    return {
        (2, b): solver._improper_scan(SimplexParams(2, b), TRUE_ROOTS[(2, b)], SolverConfig())
        for b in range(3, 8)
    }


def _closed_form_cases(a2_second_roots):
    """(params, angles) at the oracle roots, the a = 2 second roots, the
    (2, 8) corner, seeded random points of the full boxes for a = 2..20 and
    seeded free angle tuples."""
    cases = [
        (SimplexParams(*pair), DihedralAngles.from_reduced(SimplexParams(*pair), *root))
        for pair, root in [
            *TRUE_ROOTS.items(), *LARGE_A_ROOTS.items(), ((2, 3), IMPROPER_ROOT_23),
            ((2, 8), (pi / 2, 0.0)),
            *((pair, root) for pair, roots in a2_second_roots.items() for root in roots),
        ]
    ]
    rng = np.random.default_rng(12)
    for a in range(2, 21):
        for b in range(a + 1, compute_bmax(a) + 1):
            params = SimplexParams(a, b)
            for x, y in rng.uniform(0.0, 1.0, size=(4, 2)):
                cases.append((params, DihedralAngles.from_reduced(params, x * pi / a, y * pi / b)))
    cases += [
        (SimplexParams(3, 7), DihedralAngles(*angles))
        for angles in rng.uniform(0.0, pi, size=(500, 4))
    ]
    return cases


class TestCheckProperness:
    def test_near_singular_matrix_fails_the_gram_check(self):
        # A valley point of the (2, 3) full-box scan at resolution 400.  At
        # 50 digits the determinant of its matrix is +2.7147e-17; the 4x4
        # cofactor expansion reads -4.2e-17, rounding noise of the wrong
        # sign.  Both are too near zero for matrices.inverse, so the Gram
        # check fails.  m0 is -2.7137e-17 at 50 digits and rounds to 0.0,
        # so vertices 0 and 2 read IDEAL; only an interval evaluation could
        # call that sign undecided.
        mp = pytest.importorskip("mpmath").mp
        from regen_oracles import angle_matrix

        params = SimplexParams(2, 3)
        angles = DihedralAngles.from_reduced(
            params, 4.946449916383121e-13, 0.00010207191566560464
        )
        report = check_properness(params, angles)
        with mp.workdps(50):
            exact_det = mp.det(angle_matrix(*angles.as_tuple()))
        assert report.determinant_negative == (exact_det < 0)
        assert not report.gram_signs
        assert not report.all_pass

    def test_a2_second_roots_are_found(self, a2_second_roots):
        assert all(len(found) == 1 for found in a2_second_roots.values()), a2_second_roots
        assert a2_second_roots[(2, 3)][0] == pytest.approx(IMPROPER_ROOT_23, abs=1e-15)

    def test_closed_forms_match_the_matrix_path(self, a2_second_roots):
        """Flags, determinant, vertex classes and where the edge lengths
        exist, against the 4x4 matrix functions; points with a determinant
        or vertex minor below 1e-12 in magnitude are skipped, as their float
        signs are rounding noise."""
        compared = 0
        for params, angles in _closed_form_cases(a2_second_roots):
            det, m0, m1, _ = conditions.gram_raw(*angles.as_tuple())
            if min(abs(det), abs(m0), abs(m1)) < 1e-12:
                continue
            report = check_properness(params, angles)
            flags, ref_det, classes, lengths = _matrix_path(angles)
            where = (params, angles)
            assert (
                report.angles_positive, report.determinant_negative,
                report.vertices_outer, report.gram_signs,
            ) == flags, where
            assert report.determinant == pytest.approx(ref_det, rel=1e-12, abs=1e-13), where
            assert report.vertex_classes == classes, where
            assert (report.edge_lengths is None) == (lengths is None), where
            compared += 1
        assert compared > 1300

    def test_signature_matches_the_matrix_path(self, a2_second_roots):
        """The inertia from the signs of det and m1, against the eigenvalues
        of the 4x4 matrix, at every bench/refs.json root and at the cases
        above (seeded full-box points and free angle tuples among them)."""
        refs = json.loads(REFS_JSON.read_text())["roots"]
        cases = _closed_form_cases(a2_second_roots)
        for key, (x, y) in refs.items():
            params = SimplexParams(*map(int, key.split(",")))
            cases.append((params, DihedralAngles.from_reduced(params, float(x), float(y))))
        seen = set()
        for params, angles in cases:
            got = check_properness(params, angles).signature
            assert got == signature(build_coxeter_schlafli(angles)), (params, angles)
            seen.add(got.as_tuple())
        assert seen == {(3, 1, 0), (2, 2, 0), (4, 0, 0)}

    @pytest.mark.parametrize("pair", [
        *sorted(TRUE_ROOTS), *sorted(LARGE_A_ROOTS), (1000, 2000), (3737, 7474),
    ])
    def test_edge_lengths_match_50_digit_lengths(self, pair):
        """At the same float angles.  matrices.projective_distance, arccosh
        of the Gram ratio, is off by 310% at (1000, 2000) and gives 0 for
        d01 at (3737, 7474)."""
        pytest.importorskip("mpmath")
        import regen_oracles

        params = SimplexParams(*pair)
        root = {**TRUE_ROOTS, **LARGE_A_ROOTS}.get(pair)
        if root is None:
            angles = solve(params).angles
        else:
            angles = DihedralAngles.from_reduced(params, *root)
        (d01, d02), (d03, d13) = check_properness(params, angles).edge_lengths
        want = regen_oracles.edge_lengths(*angles.as_tuple())
        for got, exact in zip((d01, d02, d03, d13), want):
            assert abs(got - exact) <= 1e-14 * exact, (pair, got, exact)


class TestSolverConfig:
    @pytest.mark.parametrize("name", ["tolerance", "angle_tolerance"])
    @pytest.mark.parametrize(
        "value", [0.0, -1e-12, float("nan"), float("inf"), None, True, False]
    )
    def test_rejects_bad_tolerance(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, -5, 10.0, None, True, False])
    def test_rejects_bad_max_iterations(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=value)

    def test_accepts_valid_values(self):
        config = SolverConfig(tolerance=1e-9, angle_tolerance=1e-10, max_iterations=1)
        assert (config.tolerance, config.angle_tolerance, config.max_iterations) == (1e-9, 1e-10, 1)


class TestImproperRootScan:
    def test_special_pair_reports_one_improper_root(self, solved_reports):
        report = solved_reports[(2, 3)]
        assert len(report.improper_roots) == 1
        x, y = report.improper_roots[0]
        assert x == pytest.approx(IMPROPER_ROOT_23[0], abs=1e-15)
        assert y == pytest.approx(IMPROPER_ROOT_23[1], abs=1e-15)

    def test_improper_root_fails_properness(self):
        params = SimplexParams(2, 3)
        angles = DihedralAngles.from_reduced(params, *IMPROPER_ROOT_23)
        report = check_properness(params, angles)
        assert report.angles_positive
        assert not report.determinant_negative
        assert not report.all_pass

    def test_other_pairs_report_none(self, solved_reports):
        assert solved_reports[(2, 4)].improper_roots == ()
        assert solved_reports[(5, 9)].improper_roots == ()


class TestGridOracle:
    def test_unique_root_matches_solver(self, solved_reports):
        for pair in ((2, 4), (3, 8), (6, 12)):
            roots = grid_oracle(SimplexParams(*pair))
            assert len(roots) == 1, pair
            report = solved_reports[pair]
            assert roots[0].alpha1 == pytest.approx(report.angles.alpha1, abs=1e-8)
            assert roots[0].beta1 == pytest.approx(report.angles.beta1, abs=1e-8)

    def test_residuals_meet_oracle_tolerance(self):
        for root in grid_oracle(SimplexParams(4, 7)):
            assert abs(root.residual1) < 1e-9
            assert abs(root.residual2) < 1e-9

    def test_empty_for_unsolvable(self):
        assert grid_oracle(SimplexParams(2, 9)) == []

    def test_near_corner_root_survives_coarse_grid(self):
        roots = grid_oracle(SimplexParams(3, 8), resolution=100)
        assert len(roots) == 1
        assert roots[0].beta1 == pytest.approx(TRUE_ROOTS[(3, 8)][1], abs=1e-8)


    @pytest.mark.parametrize("resolution", [0, -3, 2.0, None, True, False])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            grid_oracle(SimplexParams(2, 4), resolution=resolution)

    # Second transversal roots of a = 2 pairs in the full box, as listed in
    # the ROADMAP findings; _improper_scan relies on the scan finding them.
    SECOND_ROOTS = {
        (2, 4): (0.0324050, 0.6347995),
        (2, 5): (0.016370, 0.505929),
        (2, 7): (0.0058828, 0.3602157),
    }

    @pytest.mark.parametrize("pair", sorted(SECOND_ROOTS))
    def test_full_box_scan_finds_the_second_root(self, pair):
        a, b = pair
        full = DomainBox(0.0, pi / a, 0.0, pi / b)
        roots = grid_oracle(SimplexParams(a, b), resolution=400, box=full)
        x, y = self.SECOND_ROOTS[pair]
        assert any(
            abs(r.alpha1 - x) <= 1e-6 and abs(r.beta1 - y) <= 1e-6 for r in roots
        ), (pair, roots)

    def test_kernel_calls_are_what_newton_per_flagged_cell_needs(self, monkeypatch):
        """One array evaluation for the grid, then at most two Newton runs
        of NEWTON_STEPS steps (residual and Jacobian per step, one final
        residual each) and one residual check per flagged cell.  Every
        kernel goes through conditions._derived, so a per-cell search
        through any kernel counts here."""
        NEWTON_STEPS = 10
        params = SimplexParams(3, 7)
        box = domain_for(params)
        al = np.linspace(box.alpha1_lo, box.alpha1_hi, 201)
        be = np.linspace(box.beta1_lo, box.beta1_hi, 201)
        g1, g2 = conditions.edge_conditions_raw(al[:, None], be[None, :], 3, 7)
        flagged = int((_reference_cells(g1) & _reference_cells(g2)).sum())
        assert flagged >= 1
        calls = []
        derived = conditions._derived

        def counting(*args):
            calls.append(args)
            return derived(*args)

        monkeypatch.setattr(conditions, "_derived", counting)
        (root,) = grid_oracle(params)
        assert root.alpha1 == pytest.approx(TRUE_ROOTS[(3, 7)][0], abs=1e-15)
        assert len(calls) <= 1 + flagged * (2 * (2 * NEWTON_STEPS + 1) + 1)


def _reference_cells(grid):
    """The four-corner test min <= 0 <= max over stacked corner copies."""
    corners = np.stack([grid[:-1, :-1], grid[1:, :-1], grid[:-1, 1:], grid[1:, 1:]])
    return (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)


class TestSignChangeCells:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_corner_min_max_test(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 40, size=2))
        grid = rng.standard_normal(shape)
        # Exact zeros of both signs, and regions of one sign only.
        picks = rng.random(shape)
        grid[picks < 0.15] = 0.0
        grid[picks > 0.85] = -0.0
        grid[: shape[0] // 3] = np.abs(grid[: shape[0] // 3]) + 1.0
        if seed % 2:
            grid[:, : shape[1] // 4] *= -1.0
        got = _sign_change_cells(grid)
        want = _reference_cells(grid)
        assert got.shape == want.shape == (shape[0] - 1, shape[1] - 1)
        assert np.array_equal(got, want), seed

    def test_signed_zero_corners(self):
        for grid in ([[0.0, 1.0], [1.0, 1.0]], [[-0.0, -1.0], [-1.0, -1.0]],
                     [[-0.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]],
                     [[-1.0, -2.0], [-3.0, -4.0]], [[-1.0, 2.0], [3.0, 4.0]]):
            g = np.array(grid)
            assert np.array_equal(_sign_change_cells(g), _reference_cells(g)), grid


class TestContraction:
    @pytest.mark.parametrize("resolution", [0, -1, 1.5, None, True, False])
    def test_rejects_bad_resolution(self, resolution):
        x, y = TRUE_ROOTS[(2, 4)]
        box = DomainBox(x - 0.02, x + 0.02, y - 0.02, y + 0.02)
        with pytest.raises(ValueError, match="resolution"):
            estimate_contraction(SimplexParams(2, 4), box, resolution=resolution)

    def test_full_domain_box_fails(self):
        # The first condition's derivative changes sign on the far alpha
        # edge, so no damping certifies the whole box.
        with pytest.raises(NoContraction):
            estimate_contraction(SimplexParams(2, 4))

    def test_local_box_certifies(self):
        x, y = TRUE_ROOTS[(2, 4)]
        box = DomainBox(x - 0.02, x + 0.02, y - 0.02, y + 0.02)
        est = estimate_contraction(SimplexParams(2, 4), box)
        assert est.norm_bound < 1.0
        assert est.k1 > 0 and est.k2 > 0

    def test_map_stays_inside_box_and_approaches_root(self):
        params = SimplexParams(2, 4)
        box = domain_for(params)
        step = contraction_map(params, box, 10.0, 10.0)
        x, y = box.center
        for _ in range(200):
            x, y = step(x, y)
            assert box.contains(x, y, slack=1e-15)
        tx, ty = TRUE_ROOTS[(2, 4)]
        assert abs(x - tx) < 1e-3 and abs(y - ty) < 1e-3
