"""Closed float intervals with outward rounding.

Every operation returns an interval that contains the exact result for all
points of its operands: the float result is rounded to nearest, so moving
each endpoint one float outward (``math.nextafter``) covers the rounding.
``sincos`` widens the libm values at the endpoints by a few ulps and opens
a bound to +-1 where an extremum lies inside, which only a box that
reaches a quarter turn can hold.

The operations work on the raw endpoint floats: a float or int operand
enters them as it is, never wrapped in an interval, and ``_make`` builds
every result without the public constructor's ``float()`` coercion but
with its ``lo <= hi`` test, which rejects a NaN endpoint that reaches it
(``inf - inf``).  A product or quotient with a float orders its two
endpoint results by the float's sign, and a square of a box of one strict
sign, or a product of two, knows which endpoint products bound it: each
forms only those two.  A box that holds 0 (a 0.0 or -0.0 endpoint does)
is squared as [0, max] and multiplied by all four endpoint products, whose
``min`` and ``max`` may drop a NaN by its position.

The kernels of ``conditions`` call an ``Interval`` argument's own
``sincos``, so they evaluate on an ``Interval`` unchanged and return an
enclosure of the kernel over the box.
"""

from __future__ import annotations

from math import ceil, cos, floor, inf, nextafter, pi, sin, ulp

# glibc documents at most 1 ulp of error for sin and cos on its supported
# targets; widen by more to cover other libms.
_LIBM_ULPS = 4
# sincos's tests round turns - phase, below |turns| + 1, and step one float
# outward: less than 2**-48 (|k| + 1) quarter turns in quarter k.  Turns
# four times that inside the quarter pass no test.
_QUARTER_MARGIN = 2.0**-46


class Interval:
    """The closed interval [lo, hi] of real numbers, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float | None = None) -> None:
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not lo <= hi:
            raise ValueError(f"not an interval: [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def mag(self) -> float:
        """The largest absolute value in the interval."""
        return max(-self.lo, self.hi)

    def __add__(self, other) -> Interval:
        if isinstance(other, Interval):
            return _make(nextafter(self.lo + other.lo, -inf), nextafter(self.hi + other.hi, inf))
        return _make(nextafter(self.lo + other, -inf), nextafter(self.hi + other, inf))

    __radd__ = __add__

    def __sub__(self, other) -> Interval:
        if isinstance(other, Interval):
            return _make(nextafter(self.lo - other.hi, -inf), nextafter(self.hi - other.lo, inf))
        return _make(nextafter(self.lo - other, -inf), nextafter(self.hi - other, inf))

    def __rsub__(self, other) -> Interval:
        return _make(nextafter(other - self.hi, -inf), nextafter(other - self.lo, inf))

    def __neg__(self) -> Interval:
        return _make(-self.hi, -self.lo)

    def __mul__(self, other) -> Interval:
        lo, hi = self.lo, self.hi
        if not isinstance(other, Interval):
            p, q = (lo * other, hi * other) if other >= 0.0 else (hi * other, lo * other)
            return _make(nextafter(p, -inf), nextafter(q, inf))
        olo, ohi = other.lo, other.hi
        if lo > 0.0:
            if olo > 0.0:
                return _make(nextafter(lo * olo, -inf), nextafter(hi * ohi, inf))
            if ohi < 0.0:
                return _make(nextafter(hi * olo, -inf), nextafter(lo * ohi, inf))
        elif hi < 0.0:
            if olo > 0.0:
                return _make(nextafter(lo * ohi, -inf), nextafter(hi * olo, inf))
            if ohi < 0.0:
                return _make(nextafter(hi * ohi, -inf), nextafter(lo * olo, inf))
        products = (lo * olo, lo * ohi, hi * olo, hi * ohi)
        return _make(nextafter(min(products), -inf), nextafter(max(products), inf))

    __rmul__ = __mul__

    def __truediv__(self, other: float) -> Interval:
        lo, hi = self.lo, self.hi
        p, q = (lo / other, hi / other) if other > 0.0 else (hi / other, lo / other)
        return _make(nextafter(p, -inf), nextafter(q, inf))

    def __pow__(self, exponent: int) -> Interval:
        if exponent != 2:
            return NotImplemented
        lo, hi = self.lo, self.hi
        if lo <= 0.0 <= hi:
            return _make(0.0, nextafter(max(lo * lo, hi * hi), inf))
        p, q = (lo * lo, hi * hi) if lo > 0.0 else (hi * hi, lo * lo)
        return _make(nextafter(p, -inf), nextafter(q, inf))

    def sincos(self) -> tuple[Interval, Interval]:
        """The ranges of sin and cos over the box from one count of its turns
        x / (2 pi).  A bound opens to -1 or 1 where turns - phase holds an
        integer, phase -1/4 and 1/4 for sin's minima and maxima, 1/2 and 0
        for cos's: turns inside one quarter turn need no such test."""
        x_lo, x_hi = self.lo, self.hi
        s_lo, s_hi, c_lo, c_hi = sin(x_lo), sin(x_hi), cos(x_lo), cos(x_hi)
        # 1/(2 pi) lies in a positive interval, so the signs of x pick its end.
        t0 = nextafter(x_lo * (_INV_TWO_PI_LO if x_lo >= 0.0 else _INV_TWO_PI_HI), -inf)
        t1 = nextafter(x_hi * (_INV_TWO_PI_HI if x_hi >= 0.0 else _INV_TWO_PI_LO), inf)
        k = floor(4.0 * t0)
        margin = _QUARTER_MARGIN * (abs(k) + 1)
        if 4.0 * t0 - k > margin and k + 1 - 4.0 * t1 > margin:
            return _range(s_lo, s_hi), _range(c_lo, c_hi)
        extrema = [
            floor(nextafter(t1 - phase, inf)) >= ceil(nextafter(t0 - phase, -inf))
            for phase in (-0.25, 0.25, 0.5, 0.0)
        ]
        return _range(s_lo, s_hi, *extrema[:2]), _range(c_lo, c_hi, *extrema[2:])


def _range(lo_end: float, hi_end: float, minimum=False, maximum=False) -> Interval:
    """sin's or cos's range from its values at the ends: widened, or -1, 1."""
    lo, hi = (hi_end, lo_end) if hi_end < lo_end else (lo_end, hi_end)
    return _make(
        -1.0 if minimum else max(-1.0, lo - _LIBM_ULPS * ulp(lo)),
        1.0 if maximum else min(1.0, hi + _LIBM_ULPS * ulp(hi)),
    )


_new = object.__new__


def _make(lo: float, hi: float) -> Interval:
    """The interval [lo, hi] from two floats, without coercing them."""
    if not lo <= hi:
        raise ValueError(f"not an interval: [{lo!r}, {hi!r}]")
    x = _new(Interval)
    x.lo = lo
    x.hi = hi
    return x


# pi lies strictly between the double math.pi and the next double up.
PI = Interval(pi, nextafter(pi, inf))
_INV_TWO_PI_LO = nextafter(1.0 / (2.0 * PI.hi), -inf)
_INV_TWO_PI_HI = nextafter(1.0 / (2.0 * PI.lo), inf)
