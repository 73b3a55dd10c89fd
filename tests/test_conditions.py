"""Tests for the edge conditions, their derivatives, and derived tables."""

import copy
import pickle
from math import cos, pi, sin

import numpy as np
import pytest

from hypsimplex import (
    AngleSlice,
    DihedralAngles,
    DomainBox,
    InvalidParams,
    MinorSpec,
    RealizationClass,
    SimplexParams,
    build_coxeter_schlafli,
    classify_realization,
    compute_bmax,
    corner_value,
    domain_for,
    edge_condition1,
    edge_condition1_deriv,
    edge_condition2,
    edge_condition2_deriv,
    minor,
    realizability_inequality,
    vertex_minor0,
    vertex_minor1,
)
from hypsimplex.conditions import (
    edge_condition1_cross_deriv_raw,
    edge_condition1_raw,
    edge_condition2_cross_deriv_raw,
    edge_condition2_raw,
    edge_condition1_deriv_raw,
    edge_condition2_deriv_raw,
    edge_conditions_factors,
    edge_conditions_raw,
    edge_jacobian_raw,
    edge_system_raw,
    gram_raw,
)
from hypsimplex.interval import PI, Interval

from oracles import BMAX_TABLE, LARGE_A_ROOTS, TRUE_ROOTS

SAMPLE_PAIRS = ((2, 4), (3, 5), (4, 7), (6, 10))


def random_slices(a, b, count, seed):
    rng = np.random.default_rng(seed)
    p = SimplexParams(a, b)
    out = []
    for _ in range(count):
        out.append(
            AngleSlice(
                float(rng.uniform(0.02, pi / a - 0.02)),
                float(rng.uniform(0.02, pi / b - 0.02)),
                p,
            )
        )
    return out


class TestAngleSlice:
    def test_derived_angles(self):
        s = AngleSlice(0.25, 0.1, SimplexParams(4, 9))
        assert s.alpha2 == pytest.approx(pi / 2 - 0.5)
        assert s.beta2 == pytest.approx(2 * pi / 9 - 0.2)

    def test_box_validation(self):
        p = SimplexParams(4, 9)
        with pytest.raises(ValueError):
            AngleSlice(pi / 4 + 0.01, 0.1, p)
        with pytest.raises(ValueError):
            AngleSlice(0.2, -0.01, p)

    def test_refuses_parameters_whose_angles_are_not_floats(self):
        with pytest.raises(InvalidParams, match=r"^pi/a or pi/b is not a float"):
            AngleSlice(0.0, 0.0, SimplexParams(2**1024, 2**1024 + 1))

    def test_closed_boundary_allowed(self):
        p = SimplexParams(4, 9)
        AngleSlice(0.0, 0.0, p)
        AngleSlice(pi / 4, pi / 9, p)

    def test_named_tuple_contract(self):
        # The repr, hash, pickling and copying of the frozen dataclass it replaced.
        p = SimplexParams(4, 9)
        s = AngleSlice(0.25, 0.1, p)
        assert repr(s) == (
            "AngleSlice(alpha1=0.25, beta1=0.1, params=SimplexParams(a=4, b=9, swapped=False))"
        )
        assert AngleSlice(alpha1=0.25, beta1=0.1, params=p) == s == (0.25, 0.1, p)
        assert hash(s) == hash(AngleSlice(0.25, 0.1, SimplexParams(4, 9)))
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert copied == s and type(copied) is AngleSlice
        for name in ("alpha1", "params", "alpha2", "extra"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0.2)

    def test_replace_and_make_validate_as_the_constructor(self):
        s = AngleSlice(0.25, 0.1, SimplexParams(4, 9))
        with pytest.raises(ValueError, match=r"beta1 = 1\.0 outside \[0, pi/9\]"):
            s._replace(beta1=1.0)
        with pytest.raises(ValueError, match=r"alpha1 = 0\.25 outside \[0, pi/20\]"):
            s._replace(params=SimplexParams(20, 30))
        with pytest.raises(ValueError, match=r"alpha1 = 1\.0 outside \[0, pi/4\]"):
            AngleSlice._make((1.0, 0.1, s.params))


class TestMinorCrossCheck:
    """The closed trig polynomials must match the cofactor route to 1e-12."""

    def test_vertex_minors_match_matrix_minors(self):
        for (a, b) in SAMPLE_PAIRS:
            for s in random_slices(a, b, 50, seed=a * 100 + b):
                angles = DihedralAngles.from_reduced(s.params, s.alpha1, s.beta1)
                m = build_coxeter_schlafli(angles)
                m0 = minor(m, MinorSpec.without_vertex(0))
                m1 = minor(m, MinorSpec.without_vertex(1))
                m2 = minor(m, MinorSpec.without_vertex(2))
                m3 = minor(m, MinorSpec.without_vertex(3))
                assert vertex_minor0(s) == pytest.approx(m0, abs=1e-12)
                assert vertex_minor0(s) == pytest.approx(m2, abs=1e-12)
                assert vertex_minor1(s) == pytest.approx(m1, abs=1e-12)
                assert vertex_minor1(s) == pytest.approx(m3, abs=1e-12)

    def test_edge_conditions_match_minor_form(self):
        for (a, b) in SAMPLE_PAIRS:
            for s in random_slices(a, b, 50, seed=a * 200 + b):
                angles = DihedralAngles.from_reduced(s.params, s.alpha1, s.beta1)
                m = build_coxeter_schlafli(angles)
                m0 = minor(m, MinorSpec.without_vertex(0))
                m1 = minor(m, MinorSpec.without_vertex(1))
                want1 = m0 * sin(s.beta1) ** 2 - m1 * sin(s.alpha2) ** 2
                want2 = m1 * sin(s.alpha1) ** 2 - m0 * sin(s.beta2) ** 2
                assert edge_condition1(s) == pytest.approx(want1, abs=1e-12)
                assert edge_condition2(s) == pytest.approx(want2, abs=1e-12)


class TestBoundaryIdentities:
    def test_first_condition_on_zero_beta_edge(self):
        # cond1(alpha1, 0) = (cos(alpha1) + cos(beta2))^2 sin(alpha2)^2
        for (a, b) in ((2, 5), (3, 7), (5, 9)):
            for alpha1 in np.linspace(0.0, pi / a, 17):
                alpha2 = 2 * pi / a - 2 * alpha1
                beta2 = 2 * pi / b
                want = (cos(alpha1) + cos(beta2)) ** 2 * sin(alpha2) ** 2
                got = float(edge_condition1_raw(alpha1, 0.0, a, b))
                assert got == pytest.approx(want, abs=1e-12)

    def test_first_condition_on_max_alpha_edge(self):
        # cond1(pi/a, beta1) = -(cos(pi/a) + cos(beta1))^2 sin(beta1)^2
        for (a, b) in ((2, 4), (4, 9), (6, 11)):
            for beta1 in np.linspace(0.0, pi / b, 17):
                want = -((cos(pi / a) + cos(beta1)) ** 2) * sin(beta1) ** 2
                got = float(edge_condition1_raw(pi / a, beta1, a, b))
                assert got == pytest.approx(want, abs=1e-12)

    def test_first_condition_on_zero_alpha_edge_a2(self):
        for beta1 in np.linspace(0.0, pi / 5, 17):
            want = -((1.0 - cos(beta1)) ** 2) * sin(beta1) ** 2
            got = float(edge_condition1_raw(0.0, beta1, 2, 5))
            assert got == pytest.approx(want, abs=1e-12)

    def test_first_condition_on_zero_alpha_edge_general(self):
        for (a, b) in ((3, 6), (5, 8)):
            for beta1 in np.linspace(0.0, pi / b, 17):
                want = (
                    -((cos(2 * pi / a) + cos(beta1)) ** 2) * sin(beta1) ** 2
                    + (cos(beta1) + cos(2 * pi / b - 2 * beta1)) ** 2 * sin(2 * pi / a) ** 2
                )
                got = float(edge_condition1_raw(0.0, beta1, a, b))
                assert got == pytest.approx(want, abs=1e-12)

    def test_second_condition_on_zero_alpha_edge(self):
        # cond2(0, beta1) = (cos(2 pi/a) + cos(beta1))^2 sin(beta2)^2
        for (a, b) in ((3, 6), (4, 7), (6, 9)):
            for beta1 in np.linspace(0.0, pi / b, 17):
                beta2 = 2 * pi / b - 2 * beta1
                want = (cos(2 * pi / a) + cos(beta1)) ** 2 * sin(beta2) ** 2
                got = float(edge_condition2_raw(0.0, beta1, a, b))
                assert got == pytest.approx(want, abs=1e-12)

    def test_second_condition_on_max_beta_edge(self):
        # cond2(alpha1, pi/b) = -(cos(alpha1) + cos(pi/b))^2 sin(alpha1)^2
        for (a, b) in ((2, 6), (4, 8), (6, 12)):
            for alpha1 in np.linspace(0.0, pi / a, 17):
                want = -((cos(alpha1) + cos(pi / b)) ** 2) * sin(alpha1) ** 2
                got = float(edge_condition2_raw(alpha1, pi / b, a, b))
                assert got == pytest.approx(want, abs=1e-12)


class TestDuality:
    def test_condition_swap_symmetry(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            a = int(rng.integers(2, 9))
            b = int(rng.integers(a + 1, a + 9))
            x = float(rng.uniform(0.0, pi / a))
            y = float(rng.uniform(0.0, pi / b))
            lhs = float(edge_condition1_raw(x, y, a, b))
            rhs = float(edge_condition2_raw(y, x, b, a))
            assert abs(lhs - rhs) < 1e-12, (a, b, x, y)


class TestDerivatives:
    def _fd(self, func, x, y, a, b, axis, h=1e-6):
        if axis == 0:
            return (float(func(x + h, y, a, b)) - float(func(x - h, y, a, b))) / (2 * h)
        return (float(func(x, y + h, a, b)) - float(func(x, y - h, a, b))) / (2 * h)

    def test_own_direction_derivatives(self):
        for (a, b) in SAMPLE_PAIRS:
            for s in random_slices(a, b, 125, seed=a * 300 + b):
                x, y = s.alpha1, s.beta1
                fd1 = self._fd(edge_condition1_raw, x, y, a, b, axis=0)
                fd2 = self._fd(edge_condition2_raw, x, y, a, b, axis=1)
                assert edge_condition1_deriv(s) == pytest.approx(fd1, abs=1e-5)
                assert edge_condition2_deriv(s) == pytest.approx(fd2, abs=1e-5)

    def test_cross_direction_derivatives(self):
        for (a, b) in SAMPLE_PAIRS:
            slices = random_slices(a, b, 60, seed=a * 400 + b)
            for s in slices:
                x, y = s.alpha1, s.beta1
                fd1 = self._fd(edge_condition1_raw, x, y, a, b, axis=1)
                fd2 = self._fd(edge_condition2_raw, x, y, a, b, axis=0)
                got1 = float(edge_condition1_cross_deriv_raw(x, y, a, b))
                got2 = float(edge_condition2_cross_deriv_raw(x, y, a, b))
                assert got1 == pytest.approx(fd1, abs=1e-5)
                assert got2 == pytest.approx(fd2, abs=1e-5)
            # The Jacobian kernel on an array gives its scalar values.
            xs = np.array([s.alpha1 for s in slices])
            ys = np.array([s.beta1 for s in slices])
            (j11, j12), (j21, j22) = edge_jacobian_raw(xs, ys, a, b)
            for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
                (s11, s12), (s21, s22) = edge_jacobian_raw(x, y, a, b)
                assert (j11[k], j12[k], j21[k], j22[k]) == pytest.approx(
                    (s11, s12, s21, s22), rel=1e-14, abs=1e-15
                ), (a, b, k)

    def test_jacobian_matches_50_digit_derivatives(self):
        """All four entries against mpmath's derivatives of the conditions as
        bench/regen_refs.py states them, at 50 digits and at the same float
        point, within 1e-11 of the row's largest entry.  The points are every
        frozen root and seeded interior points for a = 2..20; the worst is
        about 2.4e-12, at (200, 400), from the float rounding of alpha2 and
        beta2 near the b = 2a corner."""
        mp = pytest.importorskip("mpmath").mp
        from regen_oracles import conditions  # stated without hypsimplex

        points = [(*pair, *root) for pair, root in {**TRUE_ROOTS, **LARGE_A_ROOTS}.items()]
        for a in range(2, 21):
            for b in range(a + 1, compute_bmax(a) + 1):
                (s,) = random_slices(a, b, 1, seed=a * 700 + b)
                points.append((a, b, s.alpha1, s.beta1))
        with mp.workdps(50):
            for a, b, x, y in points:
                at = (mp.mpf(x), mp.mpf(y))
                for k, row in enumerate(edge_jacobian_raw(x, y, a, b)):
                    def cond(u, v):
                        return conditions(u, v, a, b, lib=mp)[k]

                    want = [mp.diff(cond, at, order) for order in ((1, 0), (0, 1))]
                    err = max(abs(float(g) - w) for g, w in zip(row, want)) / max(map(abs, want))
                    assert err <= 1e-11, (a, b, x, y, k, float(err))

    def test_derivatives_negative_at_roots(self):
        # The damped iteration relies on decreasing conditions at the root.
        for (a, b), (x, y) in TRUE_ROOTS.items():
            assert float(edge_condition1_deriv_raw(x, y, a, b)) < 0.0
            assert float(edge_condition2_deriv_raw(x, y, a, b)) < 0.0

    def test_vectorized_evaluation_matches_scalar(self):
        # The array path (numpy's trig) is the reference for the float path
        # (math's): both conditions, the four Jacobian entries and every
        # output of gram_raw agree bit for bit, and floats give floats.
        def outputs(x, y, a, b):
            (j11, j12), (j21, j22) = edge_jacobian_raw(x, y, a, b)
            det, m0, m1, cofactors = gram_raw(x, 2 * pi / a - 2 * x, y, 2 * pi / b - 2 * y)
            return (*edge_conditions_raw(x, y, a, b), j11, j12, j21, j22,
                    det, m0, m1, *cofactors)

        for (a, b) in SAMPLE_PAIRS:
            xs = np.linspace(0.02, pi / a - 0.02, 7)
            ys = np.linspace(0.02, pi / b - 0.02, 7)
            grids = [np.broadcast_to(g, (7, 7)) for g in outputs(xs[:, None], ys[None, :], a, b)]
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    scalars = outputs(float(x), float(y), a, b)
                    assert all(type(v) is float for v in scalars), (a, b, x, y)
                    assert [g[i, j] for g in grids] == list(scalars), (a, b, x, y)


class TestPairKernel:
    """edge_conditions_raw is the two single kernels, bit for bit."""

    def test_floats(self):
        for (a, b) in SAMPLE_PAIRS:
            for s in random_slices(a, b, 50, seed=a * 500 + b):
                x, y = s.alpha1, s.beta1
                c1, c2 = edge_conditions_raw(x, y, a, b)
                assert c1 == edge_condition1_raw(x, y, a, b), (a, b, x, y)
                assert c2 == edge_condition2_raw(x, y, a, b), (a, b, x, y)

    def test_broadcast_axes_match_meshgrid(self):
        # Also checks that numpy's sin/cos give the same bits whatever the
        # array shape, which the grid oracle's broadcasting relies on.
        for (a, b) in SAMPLE_PAIRS:
            al = np.linspace(0.0, pi / a, 201)
            be = np.linspace(0.0, pi / b, 201)
            aa, bb = np.meshgrid(al, be, indexing="ij")
            c1, c2 = edge_conditions_raw(al[:, None], be[None, :], a, b)
            assert np.array_equal(c1, edge_condition1_raw(aa, bb, a, b)), (a, b)
            assert np.array_equal(c2, edge_condition2_raw(aa, bb, a, b)), (a, b)

    def test_interval_boxes(self):
        for (a, b) in SAMPLE_PAIRS:
            for s in random_slices(a, b, 20, seed=a * 600 + b):
                for r in (1e-9, 1e-4, 1e-2):
                    x = Interval(s.alpha1 - r, s.alpha1 + r)
                    y = Interval(s.beta1 - r, s.beta1 + r)
                    c1, c2 = edge_conditions_raw(x, y, a, b)
                    e1 = edge_condition1_raw(x, y, a, b)
                    e2 = edge_condition2_raw(x, y, a, b)
                    assert (c1.lo, c1.hi) == (e1.lo, e1.hi), (a, b, r)
                    assert (c2.lo, c2.hi) == (e2.lo, e2.hi), (a, b, r)

    def test_fused_kernel_is_both_kernels_bit_for_bit(self):
        """edge_system_raw returns edge_conditions_raw and edge_jacobian_raw
        at once, on floats, broadcast arrays and Interval boxes."""
        def flat(values):
            conds, ((j11, j12), (j21, j22)) = values
            return [*conds, j11, j12, j21, j22]

        def ends(v):
            return (v.lo, v.hi) if isinstance(v, Interval) else v

        for (a, b) in SAMPLE_PAIRS:
            al = np.linspace(0.0, pi / a, 31)
            be = np.linspace(0.0, pi / b, 31)
            points = [(al[:, None], be[None, :])]
            for s in random_slices(a, b, 20, seed=a * 700 + b):
                x, y = s.alpha1, s.beta1
                points += [(x, y), (Interval(x - 1e-6, x + 1e-6), Interval(y, y + 1e-4))]
            for x, y in points:
                fused = flat(edge_system_raw(x, y, a, b))
                apart = flat((edge_conditions_raw(x, y, a, b), edge_jacobian_raw(x, y, a, b)))
                for f, g in zip(fused, apart):
                    if isinstance(f, np.ndarray):
                        assert np.array_equal(f, g), (a, b)
                    else:
                        assert type(f) is type(g) and ends(f) == ends(g), (a, b, x, y)


def _rank1_magnitudes(al, be, a, b):
    """Sum over the six rank-1 terms of each condition of |term|, per node,
    from the per-axis factors written out afresh."""
    s1, c1 = np.sin(al), np.cos(al)
    s2, c2 = np.sin(2 * pi / a - 2 * al), np.cos(2 * pi / a - 2 * al)
    t1, d1 = np.sin(be), np.cos(be)
    t2, d2 = np.sin(2 * pi / b - 2 * be), np.cos(2 * pi / b - 2 * be)
    p, q, r = 1 - c1**2 - c2**2, -2 * c1 * c2, 1 - c1**2
    s, t = -(d1**2 + d2**2), -2 * d1 * d2
    one_a, one_b = np.ones_like(al), np.ones_like(be)
    u1 = [p, one_a, q, r * s2**2, s2**2, c1 * s2**2]
    v1 = [t1**2, d1**2 * t1**2, d1 * t1**2, one_b, s, t]
    u2 = [r * s1**2, s1**2, c1 * s1**2, p, one_a, q]
    v2 = [one_b, s, t, t2**2, d1**2 * t2**2, d1 * t2**2]
    return tuple(
        sum(np.abs(x)[:, None] * np.abs(y)[None, :] for x, y in zip(u, v))
        for u, v in ((u1, v1), (u2, v2))
    )


_GRID_PAIRS = sorted(
    {(a, b) for a in range(2, 21) for b in (a + 1, compute_bmax(a))}
    | {(200, 400), (3737, 7474)}
)


def _grid(al, be, a, b):
    """Both conditions on the whole grid: the products of their factors."""
    (u1, v1), (u2, v2) = edge_conditions_factors(al, be, a, b)
    return u1 @ v1, u2 @ v2


class TestGridKernel:
    """The products of edge_conditions_factors are edge_conditions_raw on
    broadcast axes, up to the rounding of a six-term sum."""

    @pytest.mark.parametrize("pair", _GRID_PAIRS, ids=str)
    def test_agrees_with_broadcast_kernel(self, pair):
        a, b = pair
        domain = domain_for(SimplexParams(a, b))
        full = DomainBox(0.0, pi / a, 0.0, pi / b)
        eps = np.finfo(float).eps
        for box in (domain, full):
            al = np.linspace(box.alpha1_lo, box.alpha1_hi, 401)
            be = np.linspace(box.beta1_lo, box.beta1_hi, 401)
            grids = _grid(al, be, a, b)
            wants = edge_conditions_raw(al[:, None], be[None, :], a, b)
            for got, want, scale in zip(grids, wants, _rank1_magnitudes(al, be, a, b)):
                assert got.shape == (401, 401)
                assert np.all(np.abs(got - want) <= 8 * eps * scale), (pair, box)

    def test_shape_follows_the_axes(self):
        al = np.linspace(0.0, pi / 4, 7)
        be = np.linspace(0.0, pi / 7, 11)
        for grid in _grid(al, be, 4, 7):
            assert grid.shape == (7, 11)


class TestRealizabilityInequality:
    def test_strict_for_admissible_pairs(self):
        for (a, b) in TRUE_ROOTS:
            lhs, rhs, strict = realizability_inequality(SimplexParams(a, b))
            assert strict and lhs > rhs

    def test_equality_at_the_boundary_pair(self):
        lhs, rhs, strict = realizability_inequality(SimplexParams(2, 8))
        assert not strict
        assert abs(lhs - rhs) < 1e-12

    def test_fails_beyond_the_boundary(self):
        lhs, rhs, strict = realizability_inequality(SimplexParams(2, 9))
        assert not strict and lhs < rhs

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParams):
            realizability_inequality(SimplexParams(3, 3))
        with pytest.raises(InvalidParams):
            realizability_inequality(SimplexParams(1, 5))


class TestComputeBmax:
    def test_reference_table(self):
        for a, want in BMAX_TABLE.items():
            assert compute_bmax(a) == want

    def test_default_ceiling_is_never_reached(self):
        # b_max stays below the 4a ceiling of _scanned_bmax: b_max <= 3.5a,
        # reached only at a = 2, and b_max = 2a from a = 6 on.
        for a in range(2, 401):
            b_max = compute_bmax(a)
            assert b_max <= 3.5 * a, (a, b_max)
            assert (b_max == 3.5 * a) == (a == 2), (a, b_max)
            if a >= 6:
                assert b_max == 2 * a, (a, b_max)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParams):
            compute_bmax(1)

    @pytest.mark.parametrize("a", [2.5, 5.0, True, np.float64(6)])
    def test_rejects_non_integers(self, a):
        with pytest.raises(InvalidParams, match="integers"):
            compute_bmax(a)

    def test_accepts_numpy_integers(self):
        assert compute_bmax(np.int64(5)) == 11
        assert type(compute_bmax(np.int32(7))) is int and compute_bmax(np.int32(7)) == 14


class TestCornerValue:
    def test_positive_for_admissible(self):
        assert corner_value(SimplexParams(2, 4)) > 0.0
        assert corner_value(SimplexParams(6, 12)) > 0.0

    def test_zero_at_boundary_pair(self):
        assert abs(corner_value(SimplexParams(2, 8))) < 1e-12

    def test_negative_beyond(self):
        assert corner_value(SimplexParams(2, 9)) < 0.0
        assert corner_value(SimplexParams(3, 9)) < 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParams):
            corner_value(SimplexParams(2, 2))


@pytest.mark.parametrize("a, b", [(2**1024, 2**1024 + 1), (2**1023, 2**1024)],
                         ids=["pi-over-a", "pi-over-b"])
@pytest.mark.parametrize("func", [realizability_inequality, corner_value, domain_for],
                         ids=lambda func: func.__name__)
def test_refuses_pairs_whose_angles_are_not_floats_with_one_message(func, a, b):
    # pi/a overflows in the first pair and only pi/b in the second; all three
    # functions refuse both with domain_for's message.
    with pytest.raises(InvalidParams, match=r"^pi/a or pi/b is not a float: .* got a 1025-bit b$"):
        func(SimplexParams(a, b))


def _float_sides(a, b):
    """lhs and rhs of the realizability inequality in floats."""
    lhs = (1.0 + cos(pi / a)) * sin(2.0 * pi / b)
    rhs = (cos(pi / a) + cos(2.0 * pi / b)) * sin(pi / a)
    return lhs, rhs


def _interval_g(a, b):
    """An Interval enclosure of lhs - rhs; 0 outside it decides the sign."""
    (sx, cx), (sy, cy) = (PI / a).sincos(), (2 * PI / b).sincos()
    return (1 + cx) * sy - (cx + cy) * sx


def _scanned_bmax(a):
    """compute_bmax as a scan of the float inequality over (a, 4a]."""
    b_limit = 4 * a
    best = None
    for b in range(a + 1, b_limit + 1):
        lhs, rhs = _float_sides(a, b)
        if lhs > rhs:
            best = b
    if best == b_limit:
        return None
    if best is None:
        raise InvalidParams(f"no admissible b in ({a}, {b_limit}]")
    return best


class TestBmaxLemma:
    """The closed-form b_max against the inequality evaluated directly."""

    def test_interval_enclosure_decides_a_up_to_6(self):
        for a in range(2, 7):
            for b in range(a + 1, 5 * a + 1):
                g = _interval_g(a, b)
                if (a, b) == (2, 8):
                    assert g.lo <= 0.0 <= g.hi
                    continue
                assert not g.lo <= 0.0 <= g.hi, (a, b, g)
                assert (g.lo > 0.0) == (b <= compute_bmax(a)), (a, b, g)

    def test_b_max_is_2a_from_a_7_on(self):
        for a in [*range(7, 401), 10**3, 10**4, 10**5, 10**6, 10**7]:
            assert _interval_g(a, 2 * a).lo > 0.0 > _interval_g(a, 2 * a + 1).hi, a
            assert compute_bmax(a) == 2 * a, a

    def test_compute_bmax_equals_the_scan(self):
        for a in range(2, 401):
            assert compute_bmax(a) == _scanned_bmax(a), a

    def test_class_and_strict_equal_the_float_inequality(self):
        for a in range(2, 401):
            for b in range(a + 1, 5 * a + 1):
                params = SimplexParams(a, b)
                lhs, rhs = _float_sides(a, b)
                outer = classify_realization(params) is RealizationClass.HYPERBOLIC_OUTER
                assert outer == (lhs > rhs), (a, b)
                assert realizability_inequality(params) == (lhs, rhs, outer), (a, b)

    def test_corner_value_is_the_product_of_the_sides_at_50_digits(self):
        mp = pytest.importorskip("mpmath")
        from regen_oracles import conditions  # stated without hypsimplex

        with mp.workdps(50):
            for a in range(2, 31):
                for b in range(a + 1, 5 * a + 1):
                    x, y = mp.pi / a, 2 * mp.pi / b
                    lhs = (1 + mp.cos(x)) * mp.sin(y)
                    rhs = (mp.cos(x) + mp.cos(y)) * mp.sin(x)
                    corner = conditions(x, mp.mpf(0), a, b, lib=mp)[1]
                    assert abs(corner - (lhs - rhs) * (lhs + rhs)) < mp.mpf(10) ** -45
                    if (a, b) == (2, 8):
                        assert abs(corner) < mp.mpf(10) ** -45
                    else:
                        assert (corner > 0) == (b <= compute_bmax(a)), (a, b)


class TestSineProductCurve:
    """Finding F8, at 50 digits: with s_i = sin alpha_i and t_i = sin beta_i,

        t2^2 c1 + t1^2 c2 = m1 (s1 t1 - s2 t2)(s1 t1 + s2 t2),
        s1^2 c1 + s2^2 c2 = m0 (s1 t1 - s2 t2)(s1 t1 + s2 t2),

    so every root with m0 or m1 nonzero lies on s1 t1 = s2 t2.  The
    conditions are those of bench/regen_refs.py and the minors are
    determinants of the 50-digit angle matrix, both stated without
    hypsimplex."""

    @staticmethod
    def _terms(mp, alpha1, beta1, a, b):
        from regen_oracles import angle_matrix, conditions

        alpha1, beta1 = mp.mpf(alpha1), mp.mpf(beta1)
        alpha2, beta2 = 2 * mp.pi / a - 2 * alpha1, 2 * mp.pi / b - 2 * beta1
        m = angle_matrix(alpha1, alpha2, beta1, beta2)
        m0, m1 = (mp.det(mp.matrix([[m[i, j] for j in keep] for i in keep]))
                  for keep in ((1, 2, 3), (0, 2, 3)))
        s1, s2, t1, t2 = (mp.sin(v) for v in (alpha1, alpha2, beta1, beta2))
        return conditions(alpha1, beta1, a, b, lib=mp), m0, m1, (s1, s2, t1, t2)

    def test_identities_at_seeded_points(self):
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(50):
            for a, b in ((2, 3), (2, 7), (3, 8), (5, 11), (10, 20), (12, 20)):
                for s in random_slices(a, b, 20, seed=a * 800 + b):
                    (c1, c2), m0, m1, (s1, s2, t1, t2) = self._terms(mp, s.alpha1, s.beta1, a, b)
                    curve = (s1 * t1 - s2 * t2) * (s1 * t1 + s2 * t2)
                    assert abs(t2**2 * c1 + t1**2 * c2 - m1 * curve) < mp.mpf(10) ** -45
                    assert abs(s1**2 * c1 + s2**2 * c2 - m0 * curve) < mp.mpf(10) ** -45

    def test_a_equals_2_factorization(self):
        # alpha2 = pi - 2 alpha1, so s2 = 2 s1 cos alpha1: the double zero
        # sin^2 alpha1 of the a = 2 valley along alpha1 = 0.
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(50):
            for b in range(3, 8):
                for s in random_slices(2, b, 20, seed=900 + b):
                    (c1, c2), _, m1, (s1, _, t1, t2) = self._terms(mp, s.alpha1, s.beta1, 2, b)
                    valley = m1 * s1**2 * (t1**2 - 4 * mp.cos(mp.mpf(s.alpha1)) ** 2 * t2**2)
                    assert abs(t2**2 * c1 + t1**2 * c2 - valley) < mp.mpf(10) ** -45

    def test_roots_lie_on_the_curve(self):
        mp = pytest.importorskip("mpmath").mp
        from regen_oracles import improper_root_23, reference_root

        with mp.workdps(50):
            roots = [(a, b, *reference_root(a, b)) for a, b in ((2, 4), (3, 7), (6, 12), (200, 400))]
            roots.append((2, 3, *improper_root_23()))
            for a, b, x, y in roots:
                _, m0, m1, (s1, s2, t1, t2) = self._terms(mp, x, y, a, b)
                assert m0 != 0 and m1 != 0, (a, b)
                assert abs(s1 * t1 - s2 * t2) < mp.mpf(10) ** -40 * s1 * t1, (a, b)
