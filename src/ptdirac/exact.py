"""Exact complex rational arithmetic.

The analytic machinery in this package is polynomial: Hamiltonian blocks act
on monomial-times-Gaussian functions by shifting exponents and multiplying
coefficients.  Every residual that vanishes algebraically is therefore zero
in exact arithmetic, and the test suite checks several of them literally.
``ComplexRational`` supplies the coefficient type for that mode: a complex
number with rational real and imaginary parts.

A value is stored as one Gaussian-integer numerator over one denominator,
``(a + b*i) / q``, held as three Python ints with the invariant ``q > 0``
and ``gcd(a, b, q) == 1``.  Each value has exactly one such triple (zero is
``(0, 0, 1)``), so equality is a compare of the triples.  Arithmetic works on
the common denominator with integer operations and reduces the result by one
``math.gcd`` (Knuth, TAOCP Vol. 2, 4.5.1), instead of normalizing the real
and imaginary parts as two separate ``Fraction`` objects.  Every operation
reads its other operand through one reader, ``_triple`` (an ``int`` or
``Fraction`` enters as ``(numerator, 0, denominator)``), and builds its one
result through ``_reduced``, which calls ``ComplexRational(a, b, q)``: the
constructor is the one place every value passes, so a wrapper on
``__init__`` (the benchmark tracer's ``exact.cr_built``) counts them all.
The parts are read back as ``Fraction`` through ``re`` and ``im``.

The exact operator algebra uses these values as coefficients of exact
states, their eigen-residuals and the zero modes; the exact ``jc_verify``
clears its denominators once and runs on ints, so no operation here runs
per coefficient there.

Mixing in a float would silently degrade the whole computation back to
binary floating point (``Fraction + float`` returns ``float``), so arithmetic
here accepts only ``ComplexRational``, ``Fraction``, and ``int`` operands and
raises ``TypeError`` for anything else.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

RationalLike = Union["ComplexRational", Fraction, int]


def _triple(value: RationalLike) -> Tuple[int, int, int]:
    """The canonical ``(a, b, q)`` of an exact operand."""
    if isinstance(value, ComplexRational):
        return value._a, value._b, value._q
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    raise TypeError(f"exact arithmetic does not accept {type(value).__name__!r}")


def _reduced(a: int, b: int, q: int) -> "ComplexRational":
    """``(a + b*i)/q`` for ``q > 0``, divided through by its gcd."""
    g = math.gcd(a, b, q)
    if g != 1:
        a //= g
        b //= g
        q //= g
    return ComplexRational(a, b, q)


class ComplexRational:
    """Complex number with exact rational real and imaginary parts.

    ``ComplexRational(re, im)`` takes two ``Fraction`` parts.  The package
    builds results from a canonical triple as ``ComplexRational(a, b, q)``;
    that form is internal and takes its ints as given.
    """

    __slots__ = ("_a", "_b", "_q")
    __match_args__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction, _q: int = 0) -> None:
        if _q:
            self._a = re
            self._b = im
            self._q = _q
            return
        if not isinstance(re, Fraction) or not isinstance(im, Fraction):
            raise TypeError("ComplexRational parts must be Fraction")
        # over lcm of two reduced denominators the triple is already coprime
        q = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (q // re.denominator)
        self._b = im.numerator * (q // im.denominator)
        self._q = q

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._q)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._q)

    def __add__(self, other: RationalLike) -> "ComplexRational":
        c, d, r = _triple(other)
        a, b, q = self._a, self._b, self._q
        return _reduced(a * r + c * q, b * r + d * q, q * r)

    __radd__ = __add__

    def __sub__(self, other: RationalLike) -> "ComplexRational":
        c, d, r = _triple(other)
        a, b, q = self._a, self._b, self._q
        return _reduced(a * r - c * q, b * r - d * q, q * r)

    def __rsub__(self, other: RationalLike) -> "ComplexRational":
        c, d, r = _triple(other)
        a, b, q = self._a, self._b, self._q
        return _reduced(c * q - a * r, d * q - b * r, q * r)

    def __mul__(self, other: RationalLike) -> "ComplexRational":
        c, d, r = _triple(other)
        a, b = self._a, self._b
        return _reduced(a * c - b * d, a * d + b * c, self._q * r)

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "ComplexRational":
        return _divide(self._a, self._b, self._q, *_triple(other))

    def __rtruediv__(self, other: RationalLike) -> "ComplexRational":
        return _divide(*_triple(other), self._a, self._b, self._q)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self._a, -self._b, self._q)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __abs__(self) -> float:
        # int / int is the correctly rounded quotient Fraction.__float__ gives
        return math.hypot(self._a / self._q, self._b / self._q)

    def __complex__(self) -> complex:
        return complex(self._a / self._q, self._b / self._q)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self._a, -self._b, self._q)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ComplexRational):
            return (self._a, self._b, self._q) == (other._a, other._b, other._q)
        if isinstance(other, (int, Fraction)):
            return (
                self._b == 0
                and self._a == other.numerator
                and self._q == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like its real part, so it finds int and
        # Fraction keys it equals
        if self._b == 0:
            return hash(self.re)
        return hash((self._a, self._b, self._q))

    def __repr__(self) -> str:
        return f"ComplexRational(re={self.re!r}, im={self.im!r})"

    def __reduce__(self):
        return ComplexRational, (self.re, self.im)


def _divide(a: int, b: int, q: int, c: int, d: int, r: int) -> ComplexRational:
    """``((a + b*i)/q) / ((c + d*i)/r)``."""
    norm = c * c + d * d
    if norm == 0:
        raise ZeroDivisionError("division by exact zero")
    return _reduced((a * c + b * d) * r, (b * c - a * d) * r, q * norm)


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
