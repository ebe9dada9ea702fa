"""ComplexRational: the Gaussian-integer triple against two-Fraction semantics.

Each value is ``(a + b*i)/q`` with ``q > 0`` and ``gcd(a, b, q) == 1``.  The
properties below check every operator against a reference that keeps the
real and imaginary parts as two ``Fraction`` objects, with ``int``,
``Fraction`` and ``bool`` operands mixed in, and that every result is
canonical.
"""

import copy
import functools
import importlib.util
import math
import operator
import pathlib
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ptdirac.exact import I, ONE, ZERO, ComplexRational, exact_sqrt
from ptdirac.opalg import WeightedPolynomial, _ladder_defects
from ptdirac.params import PhysParams, derive_coeffs

Z = ComplexRational(Fraction(-7, 3), Fraction(5, 4))
REALS = [0, 3, -2, True, False, Fraction(0), Fraction(-9, 8), Fraction(22, 7)]


def _general(x):
    """x as a ComplexRational with a zero imaginary part."""
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


@pytest.mark.parametrize("x", [0.5, 1j, np.float64(2.0), np.complex128(1j)], ids=repr)
def test_inexact_operands_are_rejected_by_every_operator(x):
    for op in (
        lambda: Z - x,
        lambda: x - Z,
        lambda: Z / x,
        lambda: x / Z,
    ):
        with pytest.raises(TypeError):
            op()
    assert Z != x


@pytest.mark.parametrize("zero", [ZERO, 0, False, Fraction(0)], ids=repr)
def test_division_by_exact_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        Z / zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 3) / ZERO


# -- hash contract ------------------------------------------------------------


@pytest.mark.parametrize(
    "key", [3, -2, 0, True, Fraction(3), Fraction(-9, 8), Fraction(0)], ids=repr
)
def test_real_values_find_the_int_and_fraction_keys_they_equal(key):
    value = ComplexRational(Fraction(key), Fraction(0))
    assert value == key
    assert hash(value) == hash(key)
    assert {key: "x"}.get(value) == "x"
    assert key in {value}
    assert value in {key}


def test_equality_needs_the_same_denominator_and_a_zero_imaginary_part():
    half = ComplexRational(Fraction(3, 2), Fraction(0))
    assert half == Fraction(3, 2)
    assert half != 3 and half != Fraction(3, 5)
    assert ComplexRational(Fraction(3), Fraction(1)) != 3


def test_floats_are_the_correctly_rounded_quotients():
    # float(a) / q would round twice: 2**53 + 1 is not a double
    z = ComplexRational(Fraction(2**53 + 1, 7), Fraction(-(2**53 + 1), 7))
    twice = float(2**53 + 1) / 7
    assert complex(z) == complex(float(z.re), float(z.im))
    assert complex(z).real != twice
    real = ComplexRational(z.re, Fraction(0))
    assert abs(real) == float(z.re) != twice


def test_non_real_values_do_not_equal_their_real_part():
    assert Z != Z.re
    assert Z not in {Z.re}
    assert {Z: 1, Z.conjugate(): 2}[ComplexRational(Fraction(-14, 6), Fraction(5, 4))] == 1


# -- the triple against the two-Fraction semantics ------------------------------


class _Pair:
    """The two-Fraction complex rational the triple replaced."""

    def __init__(self, re, im=Fraction(0)):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError
        return _Pair(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )


def _pair(x):
    return _Pair(x.re, x.im) if isinstance(x, ComplexRational) else _Pair(x)


_fractions = st.one_of(
    st.fractions(max_denominator=12),
    st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**20),
)
_values = st.builds(ComplexRational, _fractions, _fractions)
_reals = st.one_of(st.integers(-(10**25), 10**25), st.booleans(), _fractions)
_operands = st.one_of(_values, _values, _reals)
_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _assert_canonical(z):
    assert type(z) is ComplexRational
    assert type(z._a) is int and type(z._b) is int and type(z._q) is int
    assert z._q > 0
    assert math.gcd(z._a, z._b, z._q) == 1


def _assert_same(z, pair):
    _assert_canonical(z)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (pair.re, pair.im)


_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@settings(_SETTINGS, max_examples=400)
@given(_values, _operands, st.sampled_from(_OPS), st.booleans())
def test_arithmetic_matches_two_fractions(z, x, op, swap):
    left, right = (x, z) if swap else (z, x)
    try:
        want = op(_pair(left), _pair(right))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(left, right)
        return
    _assert_same(op(left, right), want)


@_SETTINGS
@given(_values)
def test_unary_and_conversions_match_two_fractions(z):
    re, im = z.re, z.im
    _assert_same(-z, _Pair(-re, -im))
    _assert_same(z.conjugate(), _Pair(re, -im))
    assert bool(z) is (bool(re) or bool(im))
    # bit-identical floats: Fraction.__float__ is the same rounded quotient
    assert abs(z).hex() == math.hypot(float(re), float(im)).hex()
    got = complex(z)
    assert (got.real.hex(), got.imag.hex()) == (float(re).hex(), float(im).hex())
    assert repr(z) == f"ComplexRational(re={re!r}, im={im!r})"
    assert ComplexRational(re, im) == z


@_SETTINGS
@given(_values, _operands)
def test_equality_and_hash_match_two_fractions(z, x):
    p, q = _pair(z), _pair(x)
    equal = (p.re, p.im) == (q.re, q.im)
    assert (z == x) is equal
    assert (x == z) is equal
    assert (z != x) is (not equal)
    if equal:
        assert hash(z) == hash(x)
    # equal pairs by construction: a rebuilt twin, and the real projection
    # against its Fraction and int forms
    twin = ComplexRational(z.re, z.im)
    real = ComplexRational(z.re, Fraction(0))
    assert twin == z and hash(twin) == hash(z)
    assert real == z.re and hash(real) == hash(z.re)
    if z.re.denominator == 1:
        assert real == int(z.re) and hash(real) == hash(int(z.re))


@_SETTINGS
@given(_values)
def test_pickle_and_deepcopy_round_trip(z):
    for copied in (pickle.loads(pickle.dumps(z)), copy.deepcopy(z), copy.copy(z)):
        assert copied == z
        assert hash(copied) == hash(z)
        _assert_canonical(copied)


def test_parts_are_read_only():
    with pytest.raises(AttributeError):
        Z.re = Fraction(1)
    with pytest.raises(AttributeError):
        Z.im = Fraction(1)
    with pytest.raises(AttributeError):
        Z.extra = 1
    assert (Z.re, Z.im) == (Fraction(-7, 3), Fraction(5, 4))


def test_constants_and_repr():
    assert repr(ZERO) == "ComplexRational(re=Fraction(0, 1), im=Fraction(0, 1))"
    assert (ZERO._a, ZERO._b, ZERO._q) == (0, 0, 1)
    assert I * I == -ONE
    assert ONE == 1 and not ZERO and ZERO == 0


# -- the direct triple path of + and * ------------------------------------------

_KINDS = {
    "int": st.integers(-(10**25), 10**25),
    "bool": st.booleans(),
    "Fraction": _fractions,
    "ComplexRational": _values,
}
# each operator by its dunder and its reflected dunder, as Python dispatches
_DUNDERS = [
    (operator.mul, "__mul__", "__rmul__"),
    (operator.add, "__add__", "__radd__"),
    (operator.sub, "__sub__", "__rsub__"),
]


@pytest.mark.parametrize("kind", list(_KINDS))
@pytest.mark.parametrize(
    "op, forward, reflected", _DUNDERS, ids=lambda x: getattr(x, "__name__", x)
)
@settings(_SETTINGS, max_examples=40)
@given(z=_values, data=st.data())
def test_each_operand_kind_on_either_side_matches_two_fractions(
    kind, op, forward, reflected, z, data
):
    x = data.draw(_KINDS[kind])
    _assert_same(op(z, x), op(_pair(z), _pair(x)))
    _assert_same(op(x, z), op(_pair(x), _pair(z)))
    _assert_same(getattr(z, forward)(x), op(_pair(z), _pair(x)))
    _assert_same(getattr(z, reflected)(x), op(_pair(x), _pair(z)))


_inexact = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


@_SETTINGS
@given(_values, _inexact, st.sampled_from([d[0] for d in _DUNDERS]))
def test_float_and_complex_operands_raise_on_either_side(z, x, op):
    with pytest.raises(TypeError):
        op(z, x)
    with pytest.raises(TypeError):
        op(x, z)


def _counting_init(monkeypatch, built):
    """Count ComplexRational.__init__ calls the way the benchmark tracer
    does, keeping each object built so no id is reused."""
    init = ComplexRational.__init__

    @functools.wraps(init)
    def counted_init(obj, *args, **kwargs):
        built.append(obj)
        init(obj, *args, **kwargs)

    monkeypatch.setattr(ComplexRational, "__init__", counted_init)


@pytest.mark.parametrize(
    "x", [Z, Z.conjugate(), ONE, ZERO, 5, True, Fraction(-9, 8)], ids=repr
)
def test_every_product_and_sum_is_built_through_the_constructor(monkeypatch, x):
    built = []
    _counting_init(monkeypatch, built)
    for op, _, _ in _DUNDERS:
        for left, right in ((Z, x), (x, Z)):
            before = len(built)
            result = op(left, right)
            assert len(built) == before + 1
            assert built[-1] is result


def test_exact_jc_verify_builds_every_product_and_sum_through_the_constructor(
    monkeypatch,
):
    co = derive_coeffs(PhysParams(
        v_f=Fraction(137, 100), lam=Fraction(1, 2), k1=Fraction(1, 50),
        b0=Fraction(100), e=Fraction(1), c=Fraction(137), hbar=Fraction(1),
    ))
    built, results = [], []
    _counting_init(monkeypatch, built)
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        method = getattr(ComplexRational, name)

        def recorded(self, other, _method=method):
            result = _method(self, other)
            results.append(result)
            return result

        monkeypatch.setattr(ComplexRational, name, recorded)
    # the exact kernel on ComplexRational probes: the reference route of
    # tests/test_opalg.py::test_jc_reports_match_one_application_per_probe
    comm, _, d = _ladder_defects(co)
    for m in range(9):
        for n in range(9 - m):
            assert comm.apply_poly(WeightedPolynomial({(m, n): ONE}, d)).is_zero()
    assert len(results) > 1000
    ids = {id(obj) for obj in built}
    assert all(id(r) in ids for r in results)


def test_the_reference_script_passes_on_exact_py_loaded_by_path():
    path = pathlib.Path(__file__).with_name("exact_reference.py")
    spec = importlib.util.spec_from_file_location("exact_reference", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.check(script.load_exact(), draws=200) > 4000


def test_exact_sqrt_rejects_a_negative_rational():
    with pytest.raises(ValueError, match="nonnegative"):
        exact_sqrt(Fraction(-1))
