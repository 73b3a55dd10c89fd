"""The interval type encloses exact results, and so does the certificate."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hypsimplex import SimplexParams, conditions, estimate_contraction, solve
from hypsimplex.interval import PI, Interval

from oracles import LARGE_A_ROOTS, TRUE_ROOTS

KERNELS = (
    conditions.edge_condition1_deriv_raw,
    conditions.edge_condition2_deriv_raw,
    conditions.edge_condition1_cross_deriv_raw,
    conditions.edge_condition2_cross_deriv_raw,
)


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
            s, c = np.sin(x), np.cos(x)
            assert -1.0 <= s.lo and s.hi <= 1.0 and -1.0 <= c.lo and c.hi <= 1.0
            for p in _points(rng, x):
                assert _contains(s, mp.sin(mp.mpf(p))), (x, p)
                assert _contains(c, mp.cos(mp.mpf(p))), (x, p)
    assert np.sin(Interval(half - 0.1, half + 0.1)).hi == 1.0
    assert np.cos(Interval(math.pi - 0.1, math.pi + 0.1)).lo == -1.0
    assert np.cos(Interval(-0.1, 0.1)).hi == 1.0


def test_kernels_contain_50_digit_values_on_random_boxes(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp

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
            for kernel in KERNELS:
                enclosure = kernel(x, y, a, b)
                for _ in range(3):
                    p, q = rng.uniform(x.lo, x.hi), rng.uniform(y.lo, y.hi)
                    exact = kernel(Mpf(p), Mpf(q), a, b)
                    assert _contains(enclosure, exact), (kernel.__name__, a, b, p, q)


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
@pytest.mark.parametrize("resolution", [1, 8])
def test_certificate_bounds_the_sampled_row_sums(pair, resolution):
    params = SimplexParams(*pair)
    box = solve(params).certificate_box
    est = estimate_contraction(params, box, resolution)
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
    est = estimate_contraction(params, box, resolution=1)
    x = Interval(box.alpha1_lo, box.alpha1_hi)
    y = Interval(box.beta1_lo, box.beta1_hi)
    d1, d2, e1, e2 = (kernel(x, y, *pair) for kernel in KERNELS)
    for m in (1.5, 2.0, 3.0, 5.0):
        k1, k2 = est.k1 * m, est.k2 * m
        row_sum = max(
            (1 + d1 / k1).mag() + (e1 / k1).mag(), (e2 / k2).mag() + (1 + d2 / k2).mag()
        )
        assert math.nextafter(row_sum, math.inf) >= est.norm_bound, (pair, m)
