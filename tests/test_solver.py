"""Tests for the solve pipeline, grid oracle, and contraction estimates."""

from math import pi

import pytest

from hypsimplex import (
    DihedralAngles,
    DomainBox,
    InvalidClass,
    NoContraction,
    SimplexParams,
    SolveStatus,
    SolverConfig,
    check_properness,
    contraction_map,
    domain_for,
    estimate_contraction,
    grid_oracle,
    solve,
)

from oracles import IMPROPER_ROOT_23, LARGE_A_ROOTS, TRUE_ROOTS

ROOT_TOL = 1e-15


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


class TestSolverConfig:
    @pytest.mark.parametrize("name", ["tolerance", "angle_tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1e-12, float("nan"), float("inf"), None])
    def test_rejects_bad_tolerance(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, -5, 10.0, None])
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
        assert x == pytest.approx(IMPROPER_ROOT_23[0], abs=1e-9)
        assert y == pytest.approx(IMPROPER_ROOT_23[1], abs=1e-9)

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


class TestContraction:
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
