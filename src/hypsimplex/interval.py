"""Closed float intervals with outward rounding.

Every operation returns an interval that contains the exact result for all
points of its operands: the float result is rounded to nearest, so moving
each endpoint one float outward (``math.nextafter``) covers the rounding.
``sin`` and ``cos`` widen the libm values at the endpoints by a few ulps and
open the bound to +-1 when an extremum of the function lies inside.

The operations work on the raw endpoint floats: a float or int operand
enters them as it is, never wrapped in an interval, and ``_make`` builds
every result without the public constructor's ``float()`` coercion but
with its ``lo <= hi`` test, which rejects a NaN endpoint that reaches it
(``inf - inf``).  A NaN product or quotient inside ``*`` or ``/`` may not
reach it: ``min`` and ``max`` keep or drop a NaN by its position.

The kernels of ``conditions`` call an ``Interval`` argument's own ``sin``
and ``cos``, so they evaluate on an ``Interval`` unchanged and return an
enclosure of the kernel over the box.
"""

from __future__ import annotations

from math import ceil, cos, floor, inf, nextafter, pi, sin, ulp

# glibc documents at most 1 ulp of error for sin and cos on its supported
# targets; widen by more to cover other libms.
_LIBM_ULPS = 4


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
            p, q = lo * other, hi * other
            return _make(nextafter(min(p, q), -inf), nextafter(max(p, q), inf))
        olo, ohi = other.lo, other.hi
        products = (lo * olo, lo * ohi, hi * olo, hi * ohi)
        return _make(nextafter(min(products), -inf), nextafter(max(products), inf))

    __rmul__ = __mul__

    def __truediv__(self, other: float) -> Interval:
        p, q = self.lo / other, self.hi / other
        return _make(nextafter(min(p, q), -inf), nextafter(max(p, q), inf))

    def __pow__(self, exponent: int) -> Interval:
        if exponent != 2:
            return NotImplemented
        lo2, hi2 = self.lo * self.lo, self.hi * self.hi
        if self.lo <= 0.0 <= self.hi:
            return _make(0.0, nextafter(max(lo2, hi2), inf))
        return _make(nextafter(min(lo2, hi2), -inf), nextafter(max(lo2, hi2), inf))

    def _trig(self, func, max_phase: float, min_phase: float) -> Interval:
        """func's range, with its maxima at 2*pi*(k + max_phase) and its
        minima at 2*pi*(k + min_phase) for integers k."""
        x_lo, x_hi = self.lo, self.hi
        # turns = x / (2 pi) over the box, rounded outward.  Both ends of the
        # interval of 1/(2 pi) are positive, so the signs of x pick the products.
        t0 = nextafter(x_lo * (_INV_TWO_PI_LO if x_lo >= 0.0 else _INV_TWO_PI_HI), -inf)
        t1 = nextafter(x_hi * (_INV_TWO_PI_HI if x_hi >= 0.0 else _INV_TWO_PI_LO), inf)
        ends = (func(x_lo), func(x_hi))
        lo, hi = min(ends), max(ends)
        # func has an extremum in the box where turns - phase holds an integer.
        if floor(nextafter(t1 - min_phase, inf)) >= ceil(nextafter(t0 - min_phase, -inf)):
            lo = -1.0
        else:
            lo = max(-1.0, lo - _LIBM_ULPS * ulp(lo))
        if floor(nextafter(t1 - max_phase, inf)) >= ceil(nextafter(t0 - max_phase, -inf)):
            hi = 1.0
        else:
            hi = min(1.0, hi + _LIBM_ULPS * ulp(hi))
        return _make(lo, hi)

    def sin(self) -> Interval:
        return self._trig(sin, 0.25, -0.25)

    def cos(self) -> Interval:
        return self._trig(cos, 0.0, 0.5)


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
