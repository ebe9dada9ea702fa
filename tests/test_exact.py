"""ComplexRational: real operands take a short path with the same result."""

from fractions import Fraction

import numpy as np
import pytest

from ptdirac.exact import ComplexRational

Z = ComplexRational(Fraction(-7, 3), Fraction(5, 4))
REALS = [0, 3, -2, True, False, Fraction(0), Fraction(-9, 8), Fraction(22, 7)]


def _general(x):
    """x as the complex operand the general (four-product) path sees."""
    return ComplexRational(Fraction(x), Fraction(0))


def _check(result, expected):
    assert result == expected
    assert type(result) is ComplexRational
    assert type(result.re) is Fraction and type(result.im) is Fraction


@pytest.mark.parametrize("x", REALS, ids=repr)
def test_real_operand_products_equal_the_general_path(x):
    expected = Z * _general(x)
    _check(Z * x, expected)
    _check(x * Z, expected)


@pytest.mark.parametrize("x", REALS, ids=repr)
def test_real_operand_sums_equal_the_general_path(x):
    expected = Z + _general(x)
    _check(Z + x, expected)
    _check(x + Z, expected)


@pytest.mark.parametrize("x", [0.5, 1.0, 1j, complex(2, 0), np.float64(2.0)], ids=repr)
def test_inexact_operands_are_still_rejected(x):
    for op in (
        lambda: Z * x,
        lambda: x * Z,
        lambda: Z + x,
        lambda: x + Z,
    ):
        with pytest.raises(TypeError):
            op()


def test_parts_must_be_fractions():
    with pytest.raises(TypeError):
        ComplexRational(1, Fraction(0))
    with pytest.raises(TypeError):
        ComplexRational(Fraction(1), 0.0)
