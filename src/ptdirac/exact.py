"""Exact complex rational arithmetic.

The analytic machinery in this package is polynomial: Hamiltonian blocks act
on monomial-times-Gaussian functions by shifting exponents and multiplying
coefficients.  Every residual that vanishes algebraically is therefore zero
in exact arithmetic, and the test suite checks several of them literally.
``ComplexRational`` supplies the coefficient type for that mode: a complex
number with ``fractions.Fraction`` parts.

Mixing in a float would silently degrade the whole computation back to
binary floating point (``Fraction + float`` returns ``float``), so arithmetic
here accepts only ``ComplexRational``, ``Fraction``, and ``int`` operands and
raises ``TypeError`` for anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union["ComplexRational", Fraction, int]


def _coerce(value: RationalLike) -> "ComplexRational":
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (Fraction, int)):
        return ComplexRational(Fraction(value), Fraction(0))
    raise TypeError(f"exact arithmetic does not accept {type(value).__name__!r}")


@dataclass(frozen=True)
class ComplexRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction) or not isinstance(self.im, Fraction):
            raise TypeError("ComplexRational parts must be Fraction")

    def __add__(self, other: RationalLike) -> "ComplexRational":
        if isinstance(other, (Fraction, int)):
            # a real operand leaves the imaginary part as it is
            return ComplexRational(self.re + other, self.im)
        o = _coerce(other)
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "ComplexRational":
        o = _coerce(other)
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: RationalLike) -> "ComplexRational":
        return _coerce(other) - self

    def __mul__(self, other: RationalLike) -> "ComplexRational":
        if isinstance(other, (Fraction, int)):
            # two rational products where the coerced form would take four
            return ComplexRational(self.re * other, self.im * other)
        o = _coerce(other)
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ComplexRational":
        o = _coerce(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by exact zero")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other: RationalLike) -> "ComplexRational":
        return _coerce(other) / self

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __abs__(self) -> float:
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (Fraction, int)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))


ZERO = ComplexRational(Fraction(0), Fraction(0))
ONE = ComplexRational(Fraction(1), Fraction(0))
I = ComplexRational(Fraction(0), Fraction(1))


def exact_sqrt(value: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational, or None when it is irrational."""
    if value < 0:
        raise ValueError("exact_sqrt expects a nonnegative rational")
    num = value.numerator
    den = value.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)
