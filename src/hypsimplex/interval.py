"""Closed float intervals with outward rounding.

Every operation returns an interval that contains the exact result for all
points of its operands: the float result is rounded to nearest, so moving
each endpoint one float outward (``math.nextafter``) covers the rounding.
``sin`` and ``cos`` widen the libm values at the endpoints by a few ulps and
open the bound to +-1 when an extremum of the function lies inside.

The kernels of ``conditions`` call an ``Interval`` argument's own ``sin``
and ``cos``, so they evaluate on an ``Interval`` unchanged and return an
enclosure of the kernel over the box.
"""

from __future__ import annotations

from math import ceil, cos, floor, inf, nextafter, pi, sin, ulp

# glibc documents at most 1 ulp of error for sin and cos on its supported
# targets; widen by more to cover other libms.
_LIBM_ULPS = 4


def _down(x: float) -> float:
    return nextafter(x, -inf)


def _up(x: float) -> float:
    return nextafter(x, inf)


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
        other = _coerce(other)
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __sub__(self, other) -> Interval:
        other = _coerce(other)
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __rsub__(self, other) -> Interval:
        return _coerce(other) - self

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other) -> Interval:
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other: float) -> Interval:
        ends = (self.lo / other, self.hi / other)
        return Interval(_down(min(ends)), _up(max(ends)))

    def __pow__(self, exponent: int) -> Interval:
        if exponent != 2:
            return NotImplemented
        lo2, hi2 = self.lo * self.lo, self.hi * self.hi
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, _up(max(lo2, hi2)))
        return Interval(_down(min(lo2, hi2)), _up(max(lo2, hi2)))

    def _trig(self, func, max_phase: float, min_phase: float) -> Interval:
        """func's range, with its maxima at 2*pi*(k + max_phase) and its
        minima at 2*pi*(k + min_phase) for integers k."""
        turns = self * _INV_TWO_PI
        ends = (func(self.lo), func(self.hi))
        lo, hi = min(ends), max(ends)
        lo = -1.0 if _has_integer(turns - min_phase) else max(-1.0, lo - _LIBM_ULPS * ulp(lo))
        hi = 1.0 if _has_integer(turns - max_phase) else min(1.0, hi + _LIBM_ULPS * ulp(hi))
        return Interval(lo, hi)

    def sin(self) -> Interval:
        return self._trig(sin, 0.25, -0.25)

    def cos(self) -> Interval:
        return self._trig(cos, 0.0, 0.5)


def _has_integer(x: Interval) -> bool:
    return floor(x.hi) >= ceil(x.lo)


def _coerce(x) -> Interval:
    return x if isinstance(x, Interval) else Interval(x)


# pi lies strictly between the double math.pi and the next double up.
PI = Interval(pi, _up(pi))
_INV_TWO_PI = Interval(_down(1.0 / (2.0 * PI.hi)), _up(1.0 / (2.0 * PI.lo)))
