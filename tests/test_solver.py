"""Tests for the solve pipeline, grid oracle, and contraction estimates."""

import json
from math import pi
from pathlib import Path
from sys import float_info

import numpy as np
import pytest

from hypsimplex import (
    AmbiguousSignature,
    DihedralAngles,
    DomainBox,
    DomainError,
    InvalidClass,
    InvalidParams,
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

from hypsimplex import conditions, interval, solver
from hypsimplex.interval import Interval
from hypsimplex.solver import _sign_change_cells

from oracles import IMPROPER_ROOT_23, IMPROPER_ROOTS, LARGE_A_ROOTS, TRUE_ROOTS

ROOT_TOL = 1e-15
REFS_JSON = Path(__file__).resolve().parents[1] / "bench" / "refs.json"
# (a, b) -> (contraction_norm_estimate, certificate_box as alpha1_lo,
# alpha1_hi, beta1_lo, beta1_hi) of solve(), as the four-product interval
# rule computed them.  The (12, 24) and (200, 381) boxes sit on the roots
# Newton reaches from the pair's asymptotic start, whose beta1 lies 3.8e-15
# and 2.1e-16 relative from the one it reached from the box centre.
PINNED_CERTIFICATES = {
    (2, 4): (0.6404937587844729, (
        1.3323370066493712, 1.3323370066493738,
        0.3618511293880834, 0.36185112938808484,
    )),
    (3, 7): (0.7806613122167669, (
        1.0068184520374415, 1.0068184520374432,
        0.06617048283447222, 0.06617048283447302,
    )),
    (12, 24): (0.754010475099928, (
        0.2602971100527687, 0.2602971100527691,
        0.0029548075298777583, 0.0029548075298779907,
    )),
    (200, 381): (0.7500128413981596, (
        0.015446523480215878, 0.015446523480215905,
        0.0005228484245520448, 0.0005228484245520595,
    )),
    (10**12, 15 * 10**11): (0.7500000000000137, (
        2.792526803190924e-12, 2.7925268031909298e-12,
        6.981317007977301e-13, 6.981317007977338e-13,
    )),
}


@pytest.fixture(scope="module")
def solved_reports():
    return {pair: solve(SimplexParams(*pair)) for pair in TRUE_ROOTS}


class TestDomainBox:
    def test_small_a_boxes(self):
        box = domain_for(SimplexParams(2, 3))
        assert box.alpha1_lo == pytest.approx(pi / 3)
        assert box.alpha1_hi == pytest.approx(pi / 2)

    def test_generic_boxes(self):
        for a, b in ((3, 8), (4, 7), (6, 12)):
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

    @pytest.mark.parametrize("a, b", [(2**1024, 2**1024 + 1), (2**1023, 2**1024)])
    def test_refuses_parameters_whose_angles_are_not_floats(self, a, b):
        # pi/a overflows in the first pair and only pi/b in the second; both
        # pairs are admissible, so solve() reaches domain_for.
        with pytest.raises(InvalidParams, match="not a float"):
            domain_for(SimplexParams(a, b))
        with pytest.raises(InvalidParams, match="not a float"):
            solve(SimplexParams(a, b))


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
            a, b = pair
            angles = report.angles
            r1 = 2 * angles.alpha1 + angles.alpha2 - 2 * pi / a
            r2 = 2 * angles.beta1 + angles.beta2 - 2 * pi / b
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


class TestNewtonStart:
    """solve() starts Newton at the pair's asymptotic root: the large-a limit
    for b < 2a, the corner expansion on b = 2a, the box centre elsewhere."""

    @pytest.mark.parametrize("exponent", range(3, 10))
    def test_b_2a_takes_at_most_two_steps(self, exponent):
        """From the box centre these took 24 to 50 steps."""
        a = 10**exponent
        report = solve(SimplexParams(a, 2 * a))
        assert report.status is SolveStatus.SOLVED
        assert report.iterations <= 2, a

    @pytest.mark.parametrize("exponent", (3, 6, 9, 12))
    def test_b_one_and_a_half_a_takes_at_most_three_steps(self, exponent):
        a = 10**exponent
        report = solve(SimplexParams(a, 3 * a // 2))
        assert report.status is SolveStatus.SOLVED
        assert report.iterations <= 3, a

    @pytest.mark.parametrize("pair", sorted({**TRUE_ROOTS, **LARGE_A_ROOTS}), ids=str)
    def test_no_more_steps_than_from_the_box_centre(self, pair):
        params = SimplexParams(*pair)
        _, centre_steps, converged = solver._newton(
            params, domain_for(params).center, SolverConfig()
        )
        assert converged
        assert solve(params).iterations <= centre_steps, pair

    @pytest.mark.parametrize("pair", sorted(LARGE_A_ROOTS), ids=str)
    def test_start_is_near_the_50_digit_root(self, pair):
        """Every start lies within 2% relative of its root.  On b = 2a,
        a^3 beta1 = pi^3/6 - 8.5005/a^2 + ..., so the start pi^3/(6 a^3)
        is 8.5005/(pi^3/6) = 1.645 over a^2 relative above the root."""
        mp = pytest.importorskip("mpmath").mp
        a, b = pair
        params = SimplexParams(a, b)
        start = solver._start(params, domain_for(params))
        with mp.workdps(50):
            rel = [(mp.mpf(s) - mp.mpf(r)) / mp.mpf(r) for s, r in zip(start, LARGE_A_ROOTS[pair])]
            assert all(abs(e) <= 0.02 for e in rel), (pair, rel)
            if b == 2 * a:
                assert 1.64 <= a * a * rel[1] <= 1.66, (pair, rel)

    def test_b_2a_is_refused_once_12_a_cubed_is_not_a_float(self):
        """The corner expansion divides by 12 a^3, a float up to about
        a = 2.465e102; at a = 2465e99, below that, the status stays DIVERGED."""
        limit = r"12 a\^3 as a float: a must be below about 2\.465e\+102"
        with pytest.raises(InvalidParams, match=limit):
            solve(SimplexParams(10**103, 2 * 10**103))
        assert solve(SimplexParams(2465 * 10**99, 4930 * 10**99)).status is SolveStatus.DIVERGED


class TestNewtonStop:
    def test_one_unit_step_leaves_a_residual_far_below_1e_11(self):
        """On the full box [0, pi/a] x [0, pi/b] of every admissible pair
        with a = 2..40, the interval bound max_i sum_j mag(J_ij) unit_j of
        the edge Jacobian stays below 1e-11 (5.4e-14, at (2, 3)).  A Newton
        step dx solves J dx = f, so a step of at most one unit per axis
        starts from a residual within that bound, and by the mean value
        theorem ends within twice it: the stop alone makes the residual
        small, and a residual test at 1e-11 cannot refuse a one-unit stop."""
        worst = 0.0
        for a in range(2, 41):
            for b in range(a + 1, compute_bmax(a) + 1):
                x_unit, y_unit = solver._units(SimplexParams(a, b))
                (j11, j12), (j21, j22) = conditions.edge_jacobian_raw(
                    Interval(0.0, pi / a), Interval(0.0, pi / b), a, b
                )
                bound = max(j11.mag() * x_unit + j12.mag() * y_unit,
                            j21.mag() * x_unit + j22.mag() * y_unit)
                worst = max(worst, bound)
        assert 0.0 < 2.0 * worst < 1e-11


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

    def test_one_kernel_evaluation_per_newton_step(self, monkeypatch):
        """Each Newton step takes the conditions and the Jacobian from one
        fused call; the certificate makes the one Interval evaluation, and
        the report evaluates the residuals once, at the root."""
        calls = {"edge_system_raw": [], "edge_jacobian_raw": [], "edge_conditions_raw": []}

        def counting(name):
            kernel = getattr(solver, name)

            def wrapped(*args):
                calls[name].append(args)
                return kernel(*args)

            return wrapped

        for name in calls:
            monkeypatch.setattr(solver, name, counting(name))
        report = solve(SimplexParams(3, 7))
        assert report.status is SolveStatus.SOLVED
        fused, jacobian, conds = (calls[name] for name in calls)
        assert len(fused) == report.iterations >= 3
        assert all(type(x) is float and type(y) is float for x, y, _, _ in fused)
        ((x, y, _, _),) = jacobian
        assert isinstance(x, Interval) and isinstance(y, Interval)
        # The report's residuals, once; Newton evaluates none.
        ((x, y, _, _),) = conds
        assert (x, y) == (report.angles.alpha1, report.angles.beta1)
        assert (report.residual_cond1, report.residual_cond2) == (
            conditions.edge_conditions_raw(x, y, 3, 7)
        )

    def test_every_pair_up_to_a_20_is_certified(self):
        for a in range(2, 21):
            for b in range(a + 1, compute_bmax(a) + 1):
                report = solve(SimplexParams(a, b))
                assert report.status is SolveStatus.SOLVED, (a, b)
                assert report.contraction_norm_estimate < 1.0, (a, b)
                root = (report.angles.alpha1, report.angles.beta1)
                assert report.certificate_box.contains(*root), (a, b)

    @pytest.mark.parametrize(
        "pair, root", sorted({**TRUE_ROOTS, **LARGE_A_ROOTS}.items()), ids=str
    )
    def test_box_holds_the_reference_root(self, pair, root):
        """The 50-digit root, not only the float one, lies in the box; a box
        of 2**-40 times each coordinate missed it at (200, 400)."""
        assert solve(SimplexParams(*pair)).certificate_box.contains(*root), pair

    @pytest.mark.parametrize("pair", [(2, 4), (3, 7), (200, 381)], ids=str)
    def test_box_is_one_newton_unit_around_the_root(self, pair):
        """One unit of Newton's stop per axis, 4 eps pi/a in alpha1 and
        4 eps pi/b in beta1, on each side of the root."""
        a, b = pair
        report = solve(SimplexParams(a, b))
        x, y = report.angles.alpha1, report.angles.beta1
        ux, uy = (4.0 * float_info.epsilon * pi / n for n in (a, b))
        assert report.certificate_box == DomainBox(x - ux, x + ux, y - uy, y + uy)

    @pytest.mark.parametrize("pair", sorted(PINNED_CERTIFICATES), ids=str)
    def test_certificate_is_pinned_bit_for_bit(self, pair):
        """A faster interval path must not widen or shift an enclosure: the
        bound and the box stay these floats exactly."""
        bound, box = PINNED_CERTIFICATES[pair]
        report = solve(SimplexParams(*pair))
        assert report.contraction_norm_estimate == bound, pair
        assert report.certificate_box == DomainBox(*box), pair

    def test_certificate_cost_is_counted(self, monkeypatch):
        """One certificate at (7, 12) builds at most 98 Interval results, and
        every product in it has operands of one strict sign each, so none
        takes the four endpoint products."""
        params = SimplexParams(7, 12)
        box = solve(params).certificate_box
        made, mixed = [], []
        make, mul = interval._make, Interval.__mul__

        def counting_make(lo, hi):
            made.append((lo, hi))
            return make(lo, hi)

        def checking_mul(x, y):
            if isinstance(y, Interval) and not all(v.lo > 0.0 or v.hi < 0.0 for v in (x, y)):
                mixed.append((x, y))
            return mul(x, y)

        monkeypatch.setattr(interval, "_make", counting_make)
        monkeypatch.setattr(Interval, "__mul__", checking_mul)
        monkeypatch.setattr(Interval, "__rmul__", checking_mul)
        assert estimate_contraction(params, box).norm_bound < 1.0
        assert len(made) <= 98
        assert not mixed


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
        """A step budget one short of what Newton needs to reach its stop."""
        params = SimplexParams(2, 4)
        steps = solve(params).iterations
        assert steps > 1
        report = solve(params, SolverConfig(max_iterations=steps - 1))
        assert report.status is SolveStatus.DIVERGED
        assert report.iterations == steps - 1
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

    @pytest.mark.parametrize("pair", [(3737, 7474), (20000, 40000)])
    def test_b_2a_angles_match_the_50_digit_root(self, pair):
        """Within 1e-6 relative of bench/regen_refs.reference_root.  A
        Newton stop on an absolute step once left beta1 1.3e-6 off at
        (3737, 7474) and 28% off at (20000, 40000)."""
        pytest.importorskip("mpmath")
        from regen_oracles import reference_root

        report = solve(SimplexParams(*pair))
        got = (report.angles.alpha1, report.angles.beta1)
        for value, want in zip(got, map(float, reference_root(*pair))):
            assert abs(value - want) <= 1e-6 * abs(want), pair

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
    return {(2, b): solve(SimplexParams(2, b)).improper_roots for b in range(3, 8)}


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
        # A point of the (2, 3) alpha1 ~ 0 valley, where Newton converges
        # from some cells of the full-box scan; it lies within _NEAR units
        # of the alpha1 = 0 edge, so grid_oracle counts it as on the edge,
        # not as a root.  At 50 digits the determinant of its matrix is
        # +2.7147e-17; the 4x4 cofactor expansion reads -4.2e-17, rounding
        # noise of the wrong sign.  Both are too near zero for
        # matrices.inverse, so the Gram check fails.  m0 is -2.7137e-17 at
        # 50 digits and rounds to 0.0, so vertices 0 and 2 read IDEAL; only
        # an interval evaluation could call that sign undecided.
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
        """Newton's stop is not a setting, so every tolerance is rejected,
        whatever its value."""
        with pytest.raises(TypeError, match=name):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, -5, 10.0, None, True, False])
    def test_rejects_bad_max_iterations(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=value)

    def test_accepts_valid_values(self):
        assert SolverConfig(max_iterations=1).max_iterations == 1
        assert SolverConfig(1) == SolverConfig(max_iterations=1)


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
        """Pairs with a >= 3 report no improper root; every other a = 2 pair
        reports its second root."""
        assert solved_reports[(5, 9)].improper_roots == ()
        for b in range(4, 8):
            (root,) = solved_reports[(2, b)].improper_roots
            assert root == pytest.approx(IMPROPER_ROOTS[(2, b)], abs=2e-15), b

    @pytest.mark.parametrize("b", range(3, 8))
    def test_the_budget_that_solves_a_pair_finds_its_second_root(self, solved_reports, b):
        steps = solved_reports[(2, b)].iterations
        report = solve(SimplexParams(2, b), SolverConfig(max_iterations=steps))
        assert report.improper_roots == solved_reports[(2, b)].improper_roots

    @pytest.mark.parametrize("b", range(3, 8))
    def test_matches_the_full_box_oracle(self, solved_reports, b):
        """At resolutions 100 to 800 the full-box grid_oracle returns exactly
        two roots: the second root, left of the cut alpha1 = pi/3 and failing
        properness, and the proper root.  No point of the alpha1 ~ 0 valley
        is among them."""
        params = SimplexParams(2, b)
        full = DomainBox(0.0, pi / 2, 0.0, pi / b)
        report = solved_reports[(2, b)]
        (root,) = report.improper_roots
        for resolution in (100, 200, 400, 800):
            roots = grid_oracle(params, resolution=resolution, box=full)
            assert len(roots) == 2, (resolution, roots)
            second, proper = roots
            assert second.alpha1 < pi / 3 < proper.alpha1
            assert (second.alpha1, second.beta1) == pytest.approx(root, abs=1e-12)
            assert proper.alpha1 == pytest.approx(report.angles.alpha1, abs=1e-12)
            assert proper.beta1 == pytest.approx(report.angles.beta1, abs=1e-12)
        report = check_properness(params, DihedralAngles.from_reduced(params, *root))
        assert not report.determinant_negative and not report.all_pass

    @pytest.mark.parametrize("b", range(3, 8))
    def test_bracket_is_halved_to_near_units(self, monkeypatch, b):
        """The bracket, pi/(3b) wide, is halved until it is at most _NEAR
        units of 4 eps pi/b: b cancels, so the first condition is evaluated
        23 times at every b before the one Newton run."""
        calls, before_newton = [], []
        derived, newton = conditions._derived, solver._newton

        def counting(*args):
            calls.append(args)
            return derived(*args)

        def recording(params, start, config, region=None):
            before_newton.append(len(calls))
            return newton(params, start, config, region)

        monkeypatch.setattr(conditions, "_derived", counting)
        monkeypatch.setattr(solver, "_newton", recording)
        (root,) = solver._second_root(SimplexParams(2, b), SolverConfig())
        assert before_newton == [23]
        assert root == pytest.approx(IMPROPER_ROOTS[(2, b)], abs=2e-15)

    @pytest.mark.parametrize("b", range(3, 8))
    def test_first_condition_changes_sign_once_on_the_curve(self, b):
        """The facts solver._second_root brackets by, on 200 000 nodes of
        its path in beta1 from 2 pi/(3b) to pi/b: alpha1 starts at pi/3 and
        the first condition positive; it changes sign once; and where the
        path is clamped to alpha1 = 0, it is -(1 - cos beta1)^2 sin^2 beta1."""
        beta1 = np.linspace(2 * pi / (3 * b), pi / b, 200_001)[:-1]
        ratio = np.sin(beta1) / (2 * np.sin(2 * pi / b - 2 * beta1))
        alpha1 = np.arccos(np.minimum(1.0, ratio))
        c1, _ = conditions.edge_conditions_raw(alpha1, beta1, 2, b)
        assert alpha1[0] == pytest.approx(pi / 3, abs=1e-15) and c1[0] > 0
        assert np.count_nonzero(np.diff(c1 > 0)) == 1
        clamped = ratio >= 1.0
        assert clamped.any()
        want = -((1 - np.cos(beta1[clamped])) ** 2) * np.sin(beta1[clamped]) ** 2
        np.testing.assert_allclose(c1[clamped], want, rtol=1e-12, atol=1e-15)
        assert (c1[clamped] < 0).all()


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
            assert abs(root.residual1) < 1e-11
            assert abs(root.residual2) < 1e-11

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
    # the ROADMAP findings; TestImproperRootScan compares them with solve().
    SECOND_ROOTS = {
        (2, 4): (0.0324050, 0.6347995),
        (2, 5): (0.016370, 0.505929),
        (2, 7): (0.0058828, 0.3602157),
    }

    @pytest.mark.parametrize("b", range(3, 10))
    def test_no_root_within_near_units_of_the_edge(self, b):
        """The (2, b) full box holds the alpha1 ~ 0 valley, where Newton
        converges to rounding artefacts with alpha1 up to 3.2e-8; every
        root kept lies more than 2**26 units, 9.4e-8 in alpha1, inside."""
        full = DomainBox(0.0, pi / 2, 0.0, pi / b)
        x_near, y_near = (2.0**26 * 4.0 * float_info.epsilon * pi / n for n in (2, b))
        roots = grid_oracle(SimplexParams(2, b), resolution=400, box=full)
        assert roots
        for r in roots:
            assert min(r.alpha1, pi / 2 - r.alpha1) > x_near, r
            assert min(r.beta1, pi / b - r.beta1) > y_near, r

    @pytest.mark.parametrize("pair", sorted(SECOND_ROOTS))
    def test_full_box_scan_finds_the_second_root(self, pair):
        a, b = pair
        full = DomainBox(0.0, pi / a, 0.0, pi / b)
        roots = grid_oracle(SimplexParams(a, b), resolution=400, box=full)
        x, y = self.SECOND_ROOTS[pair]
        assert any(
            abs(r.alpha1 - x) <= 1e-6 and abs(r.beta1 - y) <= 1e-6 for r in roots
        ), (pair, roots)

    def test_newton_stops_where_rounding_sets_the_step(self):
        """From this cell centre of the (2, 6) full-box scan Newton reaches
        the second root, where rounding holds the beta1 step between 1.5
        and 1.8 units of 4 eps pi/b in a two-cycle.  It stops there,
        converged, instead of using up its step budget; the point is within
        2e-15 of the 50-digit root (0.0093931459932947413,
        0.42075764967729805)."""
        center = (0.009817477042468103, 0.4129885342531582)
        (x, y), steps, converged = solver._newton(SimplexParams(2, 6), center, SolverConfig())
        assert converged and steps <= 20
        assert abs(x - 0.0093931459932947413) <= 2e-15
        assert abs(y - 0.42075764967729805) <= 2e-15

    def test_kernel_calls_are_what_newton_per_flagged_cell_needs(self, monkeypatch, newton_runs):
        """One array evaluation for the grid, one Newton run per flagged
        cell whose neighbourhood holds no root kept before it, from the
        cell's centre and kept to that neighbourhood, at one fused kernel
        call per step, and one evaluation of the conditions per kept root,
        for its residuals.  Every kernel goes through conditions._derived,
        so a per-cell search through any kernel, or a residual evaluated at
        a point that is not kept, counts here; the (2, 3) full box flags 33
        cells, skips 2 and keeps 2 of its 31 runs."""
        calls, runs = [], newton_runs
        derived = conditions._derived

        def counting(*args):
            calls.append(args)
            return derived(*args)

        monkeypatch.setattr(conditions, "_derived", counting)
        found = {}
        for (a, b), resolution, full, flagged, ran, kept in (
            ((3, 7), 200, False, 1, 1, 1), ((2, 3), 400, True, 33, 31, 2),
        ):
            params = SimplexParams(a, b)
            box = DomainBox(0.0, pi / a, 0.0, pi / b) if full else domain_for(params)
            al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution + 1)
            be = np.linspace(box.beta1_lo, box.beta1_hi, resolution + 1)
            g1, g2 = conditions.edge_conditions_raw(al[:, None], be[None, :], a, b)
            cells = np.argwhere(_reference_cells(g1) & _reference_cells(g2))
            assert len(cells) == flagged, (a, b)
            calls[:], runs[:] = [], []
            roots = found[a, b] = grid_oracle(params, resolution=resolution, box=box)
            assert len(roots) == kept and len(runs) == ran, (a, b)
            assert len(calls) == 1 + sum(steps for *_, (_, steps, _) in runs) + kept, (a, b)
            kept_points, pending = [], iter(runs)
            for i, j in cells:
                region = _neighbourhood(al, be, i, j)
                if any(region.contains(*point) for point in kept_points):
                    continue
                start, got_region, (point, _, _) = next(pending)
                assert start == (0.5 * (al[i] + al[i + 1]), 0.5 * (be[j] + be[j + 1]))
                assert got_region == region
                if any(point == (r.alpha1, r.beta1) for r in roots):
                    kept_points.append(point)
            assert next(pending, None) is None and len(kept_points) == kept, (a, b)
        assert found[3, 7][0].alpha1 == pytest.approx(TRUE_ROOTS[(3, 7)][0], abs=1e-15)
        _, proper = found[2, 3]
        assert (proper.alpha1, proper.beta1) == pytest.approx(TRUE_ROOTS[(2, 3)], abs=1e-15)

    def test_full_box_scan_of_2_3_keeps_its_roots_in_at_most_60_newton_steps(self, newton_runs):
        """Before Newton's runs were kept to their cells' neighbourhoods
        this scan took 33 runs and 628 steps, 29 of the runs ending on the
        stall rule.  Now a run that steps out of its cell's
        neighbourhood ends there, and every converged run ends inside it."""
        box = DomainBox(0.0, pi / 2, 0.0, pi / 3)
        roots = grid_oracle(SimplexParams(2, 3), resolution=400, box=box)
        assert len(roots) == 2
        assert sum(steps for *_, (_, steps, _) in newton_runs) <= 60
        converged = [(region, point) for _, region, (point, _, done) in newton_runs if done]
        assert len(converged) >= len(roots)
        assert all(region.contains(*point) for region, point in converged)

    @pytest.mark.parametrize("pair", [(2, 3), (2, 7), (12, 24)], ids=str)
    def test_a_step_out_of_the_neighbourhood_ends_the_run_there(
        self, monkeypatch, newton_runs, pair
    ):
        """Each Newton run of a full-box scan at resolution 400, run again
        without its region and its iterates recorded: with the region it
        ends unconverged at the first iterate outside the region, after as
        many steps, and is the same run when no iterate leaves."""
        a, b = pair
        params = SimplexParams(a, b)
        points = []
        system = solver.edge_system_raw

        def evaluating(x, y, a, b):
            points.append((x, y))
            return system(x, y, a, b)

        grid_oracle(params, resolution=400, box=DomainBox(0.0, pi / a, 0.0, pi / b))
        monkeypatch.setattr(solver, "edge_system_raw", evaluating)
        left = 0
        for start, region, result in list(newton_runs):
            points[:] = []
            free = solver._newton(params, start, SolverConfig())
            iterates = [*points[1:], free[0]]
            out = [k for k, point in enumerate(iterates, 1) if not region.contains(*point)]
            if out:
                left += 1
                assert result == (iterates[out[0] - 1], out[0], False)
            else:
                assert result == free
        assert left > 0

    def test_a_run_out_of_its_region_does_not_spend_its_budget(self):
        """From the point of the a = 2 curve path where alpha1 is clamped
        to 0 at (2, 3), Newton without a region runs to alpha1 ~ 1e14 and
        uses its whole step budget; with the full box as its region the
        first step leaves the box and ends the run."""
        params = SimplexParams(2, 3)
        start = (0.0, 5 * pi / 18)
        (x, _), steps, converged = solver._newton(params, start, SolverConfig())
        assert (steps, converged) == (2000, False) and x > 1e13
        full = DomainBox(0.0, pi / 2, 0.0, pi / 3)
        point, steps, converged = solver._newton(params, start, SolverConfig(), full)
        assert (steps, converged) == (1, False) and not full.contains(*point)

    def test_kept_roots_lie_more_than_near_units_apart(self):
        """A cell whose neighbourhood holds a kept root is skipped and a run
        ends inside its own neighbourhood, so a root is kept twice only if
        it lies within a few units of a grid line.  Over the domain and
        full-box scans of every pair with a = 2..20 and b <= b_max + 2, any
        two kept roots of a scan differ by more than _NEAR units on some
        axis; the closest two are 8e14 units apart."""
        for a in range(2, 21):
            for b in range(a + 1, compute_bmax(a) + 3):
                params = SimplexParams(a, b)
                x_near, y_near = (solver._NEAR * unit for unit in solver._units(params))
                for resolution, box in ((200, domain_for(params)),
                                        (400, DomainBox(0.0, pi / a, 0.0, pi / b))):
                    roots = grid_oracle(params, resolution=resolution, box=box)
                    for k, r in enumerate(roots):
                        for s in roots[k + 1:]:
                            assert (abs(r.alpha1 - s.alpha1) > x_near
                                    or abs(r.beta1 - s.beta1) > y_near), (a, b, r, s)

    @pytest.mark.parametrize("pair, resolution, full", [
        ((2, 3), 400, True), ((2, 5), 400, True), ((4, 7), 400, True),
        ((20, 38), 200, False), ((2, 5), 1000, True),
    ], ids=str)
    def test_scan_is_the_broadcast_scan(self, pair, resolution, full):
        """The rank-6 grid flags the cells the broadcast kernel flags, in the
        same order, so the scan keeps the same roots, bit for bit."""
        a, b = pair
        params = SimplexParams(a, b)
        box = DomainBox(0.0, pi / a, 0.0, pi / b) if full else domain_for(params)
        want = _reference_scan(params, resolution, box)
        assert want
        assert grid_oracle(params, resolution=resolution, box=box) == want

    def test_grid_does_not_use_the_broadcast_kernel(self, monkeypatch):
        def scalar_only(alpha1, beta1, a, b):
            if isinstance(alpha1, np.ndarray) or isinstance(beta1, np.ndarray):
                raise AssertionError("edge_conditions_raw called on a grid")
            return conditions.edge_conditions_raw(alpha1, beta1, a, b)

        monkeypatch.setattr(solver, "edge_conditions_raw", scalar_only)
        (root,) = grid_oracle(SimplexParams(3, 7))
        assert root.alpha1 == pytest.approx(TRUE_ROOTS[(3, 7)][0], abs=1e-15)
        assert root.beta1 == pytest.approx(TRUE_ROOTS[(3, 7)][1], abs=1e-15)

    @pytest.mark.parametrize("resolution, rows", [
        (1, 1), (2, 1), (2, 2), (3, 1), (7, 1), (7, 2), (9, 8), (25, 8), (24, 1), (24, 2),
        (24, 8), (24, 5), (24, 24),
    ], ids=str)
    @pytest.mark.parametrize(
        "pair, full", [((2, 3), True), ((2, 5), True), ((7, 12), False)], ids=str
    )
    def test_tiles_flag_the_cells_of_the_whole_grid(
        self, monkeypatch, newton_starts, pair, full, resolution, rows
    ):
        """Tiles of ``rows`` cell rows each, with the last tile one row, a
        full tile or a partial one: Newton starts from the same cells in the
        same order as over the whole grid, and the roots are the same.  A
        tile that drops its shared last node row, or a lost or short last
        tile, changes the starts.  On the (2, 3) full box both conditions
        have exact 0.0 nodes, and tiles of 1 and 2 rows put them at a tile's
        edge."""
        a, b = pair
        params = SimplexParams(a, b)
        box = DomainBox(0.0, pi / a, 0.0, pi / b) if full else domain_for(params)
        want = _reference_scan(params, resolution, box)
        want_starts, newton_starts[:] = newton_starts[:], []
        monkeypatch.setattr(solver, "_TILE_NODES", (rows + 1) * (resolution + 1))
        assert grid_oracle(params, resolution=resolution, box=box) == want
        assert newton_starts == want_starts

    def test_scan_holds_less_than_one_whole_grid(self):
        """The tracemalloc peak of a full-box scan at resolution 400 stays
        below one 401 x 401 float64 grid."""
        import tracemalloc

        params = SimplexParams(2, 3)
        box = DomainBox(0.0, pi / 2, 0.0, pi / 3)
        grid_oracle(params, resolution=400, box=box)
        tracemalloc.start()
        try:
            grid_oracle(params, resolution=400, box=box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 401 * 401 * 8

    def test_newton_starts_from_python_floats(self, newton_starts):
        grid_oracle(SimplexParams(3, 7))
        assert newton_starts
        assert all(type(x) is float and type(y) is float for x, y in newton_starts)

    def test_tiles_where_the_first_condition_has_one_sign_are_skipped(self, monkeypatch):
        """The (8, 16) full-box scan at resolution 400 runs no mask on a
        tile where the first condition has one strict sign: fewer mask
        calls than tiles, where testing every tile makes two per tile."""
        calls = []
        sign_change_cells = solver._sign_change_cells

        def counting(grid):
            calls.append(grid.shape)
            return sign_change_cells(grid)

        monkeypatch.setattr(solver, "_sign_change_cells", counting)
        params = SimplexParams(8, 16)
        box = DomainBox(0.0, pi / 8, 0.0, pi / 16)
        want = _reference_scan(params, 400, box)
        assert want
        assert grid_oracle(params, resolution=400, box=box) == want
        rows = solver._TILE_NODES // 401 - 1
        tiles = -(-400 // rows)
        assert tiles == 14
        assert 1 <= len(calls) < tiles

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_screen_flags_the_cells_of_the_whole_grid(self, monkeypatch, seed, rows):
        """Seeded integer factors, so that every product is exact: rows of
        one sign, zero rows (tiles whose extreme is 0.0), NaN rows and
        columns, and zeros of the second condition.  The scan starts Newton
        at exactly the cells that both whole-grid masks flag, in row-major
        order, whatever the tile height."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        u1, u2 = rng.integers(-2, 3, (2, n, 6)).astype(float)
        v1, v2 = rng.integers(-2, 3, (2, 6, n)).astype(float)
        v1[0], v2[0] = rng.integers(1, 3, (2, n))
        kind = rng.integers(0, 5, n)
        for k, row in ((1, 4.0), (2, -4.0), (3, 0.0)):
            u1[kind == k] = [row, 0.0, 0.0, 0.0, 0.0, 0.0]
        u2[rng.random(n) < 0.2] = 0.0
        if seed % 2:
            u1[rng.integers(n), 0] = np.nan
            v2[1, rng.integers(n)] = np.nan
        want = np.flatnonzero(_sign_change_cells(u1 @ v1) & _sign_change_cells(u2 @ v2))
        if seed < 4:
            assert want.size
        box = DomainBox(0.0, 1.0, 0.0, 1.0)
        al = np.linspace(0.0, 1.0, n).tolist()
        want_starts = [
            (0.5 * (al[i] + al[i + 1]), 0.5 * (al[j] + al[j + 1]))
            for i, j in (divmod(int(c), n - 1) for c in want)
        ]
        starts = []

        def recording(params, start, config, region=None):
            starts.append(start)
            return start, 0, False

        monkeypatch.setattr(solver, "edge_conditions_factors", lambda *_: ((u1, v1), (u2, v2)))
        monkeypatch.setattr(solver, "_newton", recording)
        monkeypatch.setattr(solver, "_TILE_NODES", (rows + 1) * n)
        assert grid_oracle(SimplexParams(3, 7), resolution=n - 1, box=box) == []
        assert starts == want_starts


@pytest.fixture
def newton_starts(monkeypatch):
    """The start point of every solver._newton run, in call order."""
    starts = []
    newton = solver._newton

    def recording(params, start, config, region=None):
        starts.append(start)
        return newton(params, start, config, region)

    monkeypatch.setattr(solver, "_newton", recording)
    return starts


@pytest.fixture
def newton_runs(monkeypatch):
    """(start, region, result) of every solver._newton run, in call order."""
    runs = []
    newton = solver._newton

    def recording(params, start, config, region=None):
        result = newton(params, start, config, region)
        runs.append((start, region, result))
        return result

    monkeypatch.setattr(solver, "_newton", recording)
    return runs


def _neighbourhood(al, be, i, j):
    """Cell (i, j) and its eight neighbours, clipped to the grid's box."""
    n = len(al) - 1
    return DomainBox(float(al[max(i - 1, 0)]), float(al[min(i + 2, n)]),
                     float(be[max(j - 1, 0)]), float(be[min(j + 2, n)]))


def _reference_scan(params, resolution, box):
    """grid_oracle with the grid from edge_conditions_raw on broadcast axes
    and the flagged cells in np.nonzero order: a cell whose neighbourhood
    holds a root kept before is skipped, Newton from every other cell's
    centre is kept to its neighbourhood, converged points more than 2**26
    Newton units inside the box on both axes are kept, and the residuals
    are evaluated at each point kept."""
    a, b = params.a, params.b
    cfg = SolverConfig()
    near = [2.0**26 * 4.0 * float_info.epsilon * pi / n for n in (a, b)]
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, resolution + 1)
    be = np.linspace(box.beta1_lo, box.beta1_hi, resolution + 1)
    g1, g2 = conditions.edge_conditions_raw(al[:, None], be[None, :], a, b)
    flagged = _sign_change_cells(g1) & _sign_change_cells(g2)
    roots = []
    for i, j in zip(*np.nonzero(flagged)):
        region = _neighbourhood(al, be, i, j)
        if any(region.contains(r.alpha1, r.beta1) for r in roots):
            continue
        center = (0.5 * (al[i] + al[i + 1]), 0.5 * (be[j] + be[j + 1]))
        (x, y), _, converged = solver._newton(params, center, cfg, region)
        if not converged:
            continue
        if not (box.alpha1_lo + near[0] < x < box.alpha1_hi - near[0]):
            continue
        if not (box.beta1_lo + near[1] < y < box.beta1_hi - near[1]):
            continue
        x, y = float(x), float(y)
        roots.append(solver.GridRoot(x, y, *conditions.edge_conditions_raw(x, y, a, b)))
    roots.sort(key=lambda r: (r.alpha1, r.beta1))
    return roots


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
    def test_full_domain_box_fails(self):
        # The first condition's derivative changes sign on the far alpha
        # edge, so no damping certifies the whole box.
        params = SimplexParams(2, 4)
        with pytest.raises(NoContraction):
            estimate_contraction(params, domain_for(params))

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
            assert box.contains(x, y)
        tx, ty = TRUE_ROOTS[(2, 4)]
        assert abs(x - tx) < 1e-3 and abs(y - ty) < 1e-3
