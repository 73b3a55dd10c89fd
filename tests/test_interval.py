"""The interval type encloses exact results, and so does the certificate."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypsimplex import SimplexParams, conditions, estimate_contraction, solve
from hypsimplex.interval import _LIBM_ULPS, PI, Interval

from oracles import LARGE_A_ROOTS, TRUE_ROOTS

KERNELS = (
    conditions.edge_condition1_deriv_raw,
    conditions.edge_condition2_deriv_raw,
    conditions.edge_condition1_cross_deriv_raw,
    conditions.edge_condition2_cross_deriv_raw,
)
# The entry of edge_jacobian_raw that each of KERNELS returns.
ENTRIES = ((0, 0), (1, 1), (0, 1), (1, 0))


def _random_interval(rng: random.Random, scale: float) -> Interval:
    lo = rng.uniform(-scale, scale)
    return Interval(lo, lo + rng.uniform(0.0, scale) * rng.choice((1e-9, 1e-3, 1.0)))


def _points(rng: random.Random, x: Interval) -> list[float]:
    return [x.lo, x.hi, rng.uniform(x.lo, x.hi)]


def _contains(x: Interval, value) -> bool:
    return x.lo <= value <= x.hi


def test_arithmetic_contains_the_exact_result():
    rng = random.Random(7)
    for _ in range(2000):
        x, y = _random_interval(rng, 3.0), _random_interval(rng, 3.0)
        c = rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 1e3)
        for p in _points(rng, x):
            fp = Fraction(p)
            assert _contains(-x, -fp)
            assert _contains(x**2, fp * fp)
            assert _contains(x / c, fp / Fraction(c))
            assert _contains(x + c, fp + Fraction(c)) and _contains(c + x, fp + Fraction(c))
            assert _contains(x - c, fp - Fraction(c)) and _contains(c - x, Fraction(c) - fp)
            assert _contains(x * c, fp * Fraction(c)) and _contains(c * x, fp * Fraction(c))
            for q in _points(rng, y):
                fq = Fraction(q)
                assert _contains(x + y, fp + fq)
                assert _contains(x - y, fp - fq)
                assert _contains(x * y, fp * fq)


def _down(x):
    return math.nextafter(x, -math.inf)


def _up(x):
    return math.nextafter(x, math.inf)


def _textbook(op, xs, ys):
    """The textbook enclosure of op over endpoint tuples xs and ys: the
    extreme results of all endpoint pairs, each moved one float outward."""
    values = [op(p, q) for p in xs for q in ys]
    return Interval(_down(min(values)), _up(max(values)))


def _textbook_square(x):
    squares = (x.lo * x.lo, x.hi * x.hi)
    if x.lo <= 0.0 <= x.hi:
        return Interval(0.0, _up(max(squares)))
    return Interval(_down(min(squares)), _up(max(squares)))


def _edge_interval(rng: random.Random) -> Interval:
    """Mixed signs, a 0.0 or -0.0 endpoint, widths from 1e-9 to 1."""
    width = rng.choice((1e-9, 1e-6, 1e-3, 1.0)) * rng.uniform(0.0, 1.0)
    kind = rng.randrange(4)
    if kind == 0:
        return Interval(rng.choice((0.0, -0.0)), width)
    if kind == 1:
        return Interval(-width, rng.choice((0.0, -0.0)))
    lo = rng.uniform(-3.0, 3.0)
    return Interval(lo, lo + width)


def _same(x: Interval, y: Interval) -> bool:
    return x.lo == y.lo and x.hi == y.hi


def test_lean_operations_have_the_textbook_endpoints():
    rng = random.Random(17)
    add, sub, mul = (lambda p, q: p + q), (lambda p, q: p - q), (lambda p, q: p * q)
    for _ in range(2000):
        x, y = _edge_interval(rng), _edge_interval(rng)
        xs, ys = (x.lo, x.hi), (y.lo, y.hi)
        assert _same(x + y, _textbook(add, xs, ys)), (x, y)
        assert _same(x - y, _textbook(sub, xs, ys)), (x, y)
        assert _same(x * y, _textbook(mul, xs, ys)), (x, y)
        assert _same(x**2, _textbook_square(x)), x
        assert _same(-x, Interval(-x.hi, -x.lo)), x
        for c in (rng.uniform(-1e3, 1e3), rng.choice((-4, -1, 0, 1, 2, 3)), -0.0):
            assert _same(x + c, _textbook(add, xs, (c,))), (x, c)
            assert _same(c + x, _textbook(add, (c,), xs)), (x, c)
            assert _same(x - c, _textbook(sub, xs, (c,))), (x, c)
            assert _same(c - x, _textbook(sub, (c,), xs)), (x, c)
            assert _same(x * c, _textbook(mul, xs, (c,))), (x, c)
            assert _same(c * x, _textbook(mul, (c,), xs)), (x, c)
            if c != 0:
                assert _same(x / c, _textbook(lambda p, q: p / q, xs, (c,))), (x, c)


def _textbook_trig(x: Interval, func, max_phase: float, min_phase: float) -> Interval:
    """One range of Interval.sincos, with the turns and every extremum
    test built from Interval endpoints by the textbook rule."""
    inv_two_pi = Interval(_down(1.0 / (2.0 * PI.hi)), _up(1.0 / (2.0 * PI.lo)))
    turns = _textbook(lambda p, q: p * q, (x.lo, x.hi), (inv_two_pi.lo, inv_two_pi.hi))

    def has_integer(phase):
        shifted = _textbook(lambda p, q: p - q, (turns.lo, turns.hi), (phase,))
        return math.floor(shifted.hi) >= math.ceil(shifted.lo)

    ends = (func(x.lo), func(x.hi))
    lo, hi = min(ends), max(ends)
    lo = -1.0 if has_integer(min_phase) else max(-1.0, lo - _LIBM_ULPS * math.ulp(lo))
    hi = 1.0 if has_integer(max_phase) else min(1.0, hi + _LIBM_ULPS * math.ulp(hi))
    return Interval(lo, hi)


def _steps(x: float, n: int) -> list[float]:
    """x and the n floats on each side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(_down(below[-1]))
        above.append(_up(above[-1]))
    return below[:0:-1] + above


def test_sin_and_cos_match_the_textbook_turns():
    """sincos skips the extremum tests only for turns well inside one
    quarter turn.  Boxes that end up to 3 ulps from k pi/2, or about as far
    from it as that margin, and points far out, where an ulp of the turns is
    a sizeable part of a quarter turn, get the textbook ranges all the same."""
    rng = random.Random(19)
    half = math.pi / 2
    boxes = [_edge_interval(rng) for _ in range(1000)]
    boxes += [_random_interval(rng, 7.0) for _ in range(500)]
    # Boxes straddling, starting at or ending at a multiple of pi/2.
    for k in range(-8, 9):
        for w in (1e-12, 1e-6, 0.1):
            m = k * half
            boxes += [Interval(m - w, m + w), Interval(m, m + w), Interval(m - w, m)]
        boxes += [Interval(_down(k * half)), Interval(_up(k * half)), Interval(k * half)]
        near = _steps(m, 3)
        boxes += [Interval(p, q) for p in near for q in near if p <= q]
        for p in near + [m + d for d in (-1e-12, -1e-13, -3e-14, 3e-14, 1e-13, 1e-12)]:
            for w in (1e-15, 1e-9, 0.5):
                boxes += [Interval(p, p + w), Interval(p - w, p)]
    for scale in (1e6, 1e12, 1e15, 1e17):
        for _ in range(1000):
            x = rng.uniform(-scale, scale)
            boxes += [Interval(x), Interval(x, _up(_up(x)))]
    for x in boxes:
        s, c = x.sincos()
        assert _same(s, _textbook_trig(x, math.sin, 0.25, -0.25)), x
        assert _same(c, _textbook_trig(x, math.cos, 0.0, 0.5)), x


def _outcome(make):
    """The endpoints of make(), or ValueError if it raises one."""
    try:
        x = make()
    except ValueError:
        return ValueError
    return x.lo, x.hi


def test_sign_definite_paths_have_the_textbook_endpoints():
    """*, / by a float and **2 form two endpoint products where the signs
    allow it.  With 0.0, -0.0 and infinite endpoints they give the textbook
    interval still; where inf meets 0, a product of boxes takes the four
    textbook products in the textbook order, and raises where it does."""
    ends = (-math.inf, -2.5, -1e-300, -0.0, 0.0, 1e-300, 0.75, math.inf)
    boxes = [Interval(p, q) for p in ends for q in ends if p <= q]
    mul, div = (lambda p, q: p * q), (lambda p, q: p / q)
    for x in boxes:
        xs = (x.lo, x.hi)
        assert _same(x**2, _textbook_square(x)), x
        for y in boxes:
            ys = (y.lo, y.hi)
            assert _outcome(lambda: x * y) == _outcome(lambda: _textbook(mul, xs, ys)), (x, y)
        for c in (-3.0, -1e-300, 1e-300, 2.0):
            assert _same(x * c, _textbook(mul, xs, (c,))), (x, c)
            assert _same(c * x, _textbook(mul, (c,), xs)), (x, c)
            assert _same(x / c, _textbook(div, xs, (c,))), (x, c)


@pytest.mark.parametrize("make", [
    lambda: Interval(math.inf) + Interval(-math.inf),
    lambda: Interval(math.inf) - Interval(math.inf),
    lambda: Interval(math.inf) + (-math.inf),
    lambda: math.inf - Interval(math.inf),
    lambda: Interval(0.0) * Interval(math.inf),
    lambda: Interval(math.inf) * 0.0,
    lambda: Interval(math.inf) / math.inf,
], ids=["add", "sub", "add-float", "rsub-float", "mul", "mul-float", "div"])
def test_nan_results_raise(make):
    with pytest.raises(ValueError, match="not an interval"):
        make()


def test_mag_is_the_largest_absolute_value():
    assert Interval(-3.0, 2.0).mag() == 3.0
    assert Interval(-1.0, 2.5).mag() == 2.5
    assert Interval(0.5).mag() == 0.5


def test_rejects_reversed_and_nan_endpoints():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_pi_is_enclosed():
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        assert PI.lo < mp.pi < PI.hi


def test_sin_and_cos_contain_50_digit_values():
    mp = pytest.importorskip("mpmath").mp
    rng = random.Random(11)
    half = math.pi / 2
    boxes = [_random_interval(rng, 7.0) for _ in range(500)]
    # Intervals spanning the extrema, and points next to them.
    boxes += [
        Interval(half - 0.1, half + 0.1),
        Interval(math.pi - 0.1, math.pi + 0.1),
        Interval(-half - 1e-9, -half + 1e-9),
        Interval(-0.1, 0.1),
        Interval(math.pi),
        Interval(half),
        Interval(0.0, 2 * math.pi),
    ]
    with mp.workdps(50):
        for x in boxes:
            s, c = x.sincos()
            assert -1.0 <= s.lo and s.hi <= 1.0 and -1.0 <= c.lo and c.hi <= 1.0
            for p in _points(rng, x):
                assert _contains(s, mp.sin(mp.mpf(p))), (x, p)
                assert _contains(c, mp.cos(mp.mpf(p))), (x, p)
    assert Interval(half - 0.1, half + 0.1).sincos()[0].hi == 1.0
    assert Interval(math.pi - 0.1, math.pi + 0.1).sincos()[1].lo == -1.0
    assert Interval(-0.1, 0.1).sincos()[1].hi == 1.0


def test_kernels_contain_50_digit_values_on_random_boxes(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    from regen_oracles import angle_matrix

    class Mpf(mpmath.mpf):
        """A 50-digit number that numpy's sin and cos accept."""

        def sin(self):
            return mp.sin(self)

        def cos(self):
            return mp.cos(self)

    def derived(alpha1, beta1, a, b):
        if isinstance(alpha1, Interval):
            return interval_derived(alpha1, beta1, a, b)
        return Mpf(2 * mp.pi / a - 2 * alpha1), Mpf(2 * mp.pi / b - 2 * beta1)

    interval_derived = conditions._derived
    monkeypatch.setattr(conditions, "_derived", derived)
    rng = random.Random(5)
    with mp.workdps(50):
        for _ in range(150):
            a = rng.choice((2, 3, 5, 12, 40, 200))
            b = rng.randint(a + 1, 2 * a + 1)
            x0, y0 = rng.uniform(0, math.pi / a), rng.uniform(0, math.pi / b)
            width = rng.choice((0.0, 1e-6, 1e-3, 0.1))
            x, y = Interval(x0, x0 + width / a), Interval(y0, y0 + width / b)
            jacobian = conditions.edge_jacobian_raw(x, y, a, b)
            for kernel, (i, j) in zip(KERNELS, ENTRIES):
                enclosure = kernel(x, y, a, b)
                for _ in range(3):
                    p, q = rng.uniform(x.lo, x.hi), rng.uniform(y.lo, y.hi)
                    exact = kernel(Mpf(p), Mpf(q), a, b)
                    assert _contains(enclosure, exact), (kernel.__name__, a, b, p, q)
                    exact = conditions.edge_jacobian_raw(Mpf(p), Mpf(q), a, b)[i][j]
                    assert _contains(jacobian[i][j], exact), ((i, j), a, b, p, q)
            alpha2, beta2 = derived(x, y, a, b)
            det, m0, m1, cofactors = conditions.gram_raw(x, alpha2, y, beta2)
            for _ in range(3):
                p, q = rng.uniform(x.lo, x.hi), rng.uniform(y.lo, y.hi)
                exact_alpha2, exact_beta2 = derived(Mpf(p), Mpf(q), a, b)
                matrix = angle_matrix(p, exact_alpha2, q, exact_beta2)
                exact = (
                    mp.det(matrix), _mp_cofactor(mp, matrix, 0, 0), _mp_cofactor(mp, matrix, 1, 1),
                    *(_mp_cofactor(mp, matrix, i, j) for i, j in ((0, 1), (0, 2), (0, 3), (1, 3))),
                )
                for box, value in zip((det, m0, m1, *cofactors), exact):
                    assert _contains(box, value), (a, b, p, q)


def _mp_cofactor(mp, matrix, i, j):
    keep_rows, keep_cols = [r for r in range(4) if r != i], [c for c in range(4) if c != j]
    sub = mp.matrix([[matrix[r, c] for c in keep_cols] for r in keep_rows])
    return (-1) ** (i + j) * mp.det(sub)


def test_gram_kernel_on_arrays_equals_its_scalar_values():
    rng = np.random.default_rng(3)
    angles = rng.uniform(0.0, math.pi, size=(4, 50))
    det, m0, m1, cofactors = conditions.gram_raw(*angles)
    for k, point in enumerate(angles.T):
        s_det, s_m0, s_m1, s_cofactors = conditions.gram_raw(*map(float, point))
        assert (det[k], m0[k], m1[k]) == (s_det, s_m0, s_m1)
        assert tuple(c[k] for c in cofactors) == s_cofactors


def test_float_and_array_kernels_ignore_the_interval_path():
    # _derived keeps math.pi for floats and arrays, so their values are
    # those of the plain expression.
    alpha1, beta1 = np.array([0.3, 0.5]), np.array([0.1, 0.2])
    alpha2, beta2 = conditions._derived(alpha1, beta1, 3, 7)
    assert alpha2.tolist() == (2 * math.pi / 3 - 2 * alpha1).tolist()
    assert beta2.tolist() == (2 * math.pi / 7 - 2 * beta1).tolist()
    alpha2, beta2 = conditions._derived(0.3, 0.1, 3, 7)
    assert (alpha2, beta2) == (2 * math.pi / 3 - 2 * 0.3, 2 * math.pi / 7 - 2 * 0.1)


@pytest.mark.parametrize("pair", [(2, 4), (5, 11), (200, 381)])
def test_certificate_bounds_the_sampled_row_sums(pair):
    params = SimplexParams(*pair)
    box = solve(params).certificate_box
    est = estimate_contraction(params, box)
    assert est.norm_bound < 1.0
    al = np.linspace(box.alpha1_lo, box.alpha1_hi, 200)
    be = np.linspace(box.beta1_lo, box.beta1_hi, 200)
    aa, bb = np.meshgrid(al, be, indexing="ij")
    d1, d2, e1, e2 = (kernel(aa, bb, *pair) for kernel in KERNELS)
    row1 = np.abs(1.0 + d1 / est.k1) + np.abs(e1) / est.k1
    row2 = np.abs(e2) / est.k2 + np.abs(1.0 + d2 / est.k2)
    assert est.norm_bound >= float(np.max(np.maximum(row1, row2)))


@pytest.mark.parametrize("pair", sorted({**TRUE_ROOTS, **LARGE_A_ROOTS}))
def test_larger_damping_never_tightens_the_bound(pair):
    # Why estimate_contraction tries only its derived damping: scaling it
    # up moves every row sum below one toward one.
    params = SimplexParams(*pair)
    box = solve(params).certificate_box
    est = estimate_contraction(params, box)
    x = Interval(box.alpha1_lo, box.alpha1_hi)
    y = Interval(box.beta1_lo, box.beta1_hi)
    d1, d2, e1, e2 = (kernel(x, y, *pair) for kernel in KERNELS)
    for m in (1.5, 2.0, 3.0, 5.0):
        k1, k2 = est.k1 * m, est.k2 * m
        row_sum = max(
            (1 + d1 / k1).mag() + (e1 / k1).mag(), (e2 / k2).mag() + (1 + d2 / k2).mag()
        )
        assert math.nextafter(row_sum, math.inf) >= est.norm_bound, (pair, m)
