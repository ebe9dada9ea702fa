"""The compiled operator kernel against term-by-term references.

``OperatorExpr.apply``/``apply_poly`` run a plan compiled once per operator
over dict-level primitive steps.  The references below apply each term on
its own through the public ``WeightedPolynomial`` primitive methods, in the
order the terms accumulate, so the two must agree exactly with
Fraction/ComplexRational coefficients and bit for bit in floats.  The
one-pass antilinear map ``pt_transform`` is held the same way against the
three-step route of separate polynomials: conjugate, map the coordinates,
then mix the spin components.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptdirac import opalg
from ptdirac.exact import I, ComplexRational
from ptdirac.opalg import (
    P1T,
    P2T,
    TIME_REVERSAL,
    AntilinearOp,
    CoordMap,
    OperatorExpr,
    OperatorTerm,
    Prim,
    SpinorFunction,
    WeightedPolynomial,
    build_hamiltonian,
    jc_verify,
    operator_residual_on_probes,
    pt_commutator_residual,
    pt_commutator_residuals,
    pt_transform,
)
from ptdirac.params import Branch, PhysParams, Valley, derive_coeffs
from ptdirac.spectral import build_truncated

_METHOD = {
    Prim.DZ: WeightedPolynomial.diff_z,
    Prim.DZBAR: WeightedPolynomial.diff_zbar,
    Prim.MUL_Z: WeightedPolynomial.shift_z,
    Prim.MUL_ZBAR: WeightedPolynomial.shift_zbar,
}


def _word_image(word, wp):
    for prim in reversed(word):
        wp = _METHOD[prim](wp)
    return wp


def _accumulate(table, factor, wp):
    for mono, c in wp.sorted_items():
        prev = table.get(mono)
        table[mono] = factor * c if prev is None else prev + factor * c


def reference_apply(op, s):
    acc = ({}, {})
    comps = (s.upper, s.lower)
    for t in op.terms:
        for i in (0, 1):
            for j in (0, 1):
                entry = t.matrix[i][j]
                if entry:
                    _accumulate(acc[i], t.coeff * entry, _word_image(t.word, comps[j]))
    return SpinorFunction(
        WeightedPolynomial(acc[0], s.d), WeightedPolynomial(acc[1], s.d)
    )


def reference_apply_poly(op, wp):
    acc = {}
    for t in op.terms:
        if t.matrix[0][0]:
            _accumulate(acc, t.coeff * t.matrix[0][0], _word_image(t.word, wp))
    return WeightedPolynomial(acc, wp.d)


def bits(wp):
    """Coefficients with every float bit visible (signed zeros included)."""
    return {k: (type(c), repr(c)) for k, c in wp.coeffs.items()}


def assert_identical(got, want, exact):
    assert got.d == want.d
    assert got.coeffs == want.coeffs
    if exact:
        assert {k: type(c) for k, c in got.coeffs.items()} == {
            k: type(c) for k, c in want.coeffs.items()
        }
    else:
        assert bits(got) == bits(want)


def assert_spinors_identical(got, want, exact):
    assert_identical(got.upper, want.upper, exact)
    assert_identical(got.lower, want.lower, exact)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_floats = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
_fractions = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 12))
_float_scalar = st.builds(complex, _floats, _floats).filter(bool)
_exact_scalar = st.one_of(
    st.builds(ComplexRational, _fractions, _fractions),
    _fractions,
    st.integers(-3, 3),
).filter(bool)
_exponents = st.tuples(st.integers(0, 5), st.integers(0, 5))


def _words(max_size):
    return st.lists(st.sampled_from(list(Prim)), max_size=max_size).map(tuple)


def _entries(exact):
    if exact:
        units = [0, 1, -1, I, -I]
        return st.one_of(st.sampled_from(units), _exact_scalar)
    return st.one_of(st.sampled_from([0, 1, -1, 1j, -1j]), _float_scalar)


def _matrices(exact):
    e = _entries(exact)
    return st.tuples(st.tuples(e, e), st.tuples(e, e))


def _scalar_matrices(exact):
    return _entries(exact).map(lambda e: ((e, 0), (0, e)))


def _operators(exact, matrices, word_length=2):
    scalar = _exact_scalar if exact else _float_scalar
    term = st.builds(OperatorTerm, scalar, matrices(exact), _words(word_length))
    return st.lists(term, min_size=1, max_size=4).map(OperatorExpr)


def _envelope(exact):
    if exact:
        return st.one_of(st.just(Fraction(0)), _fractions)
    return st.one_of(st.just(0.0), _floats)


def _components(exact, d, min_size):
    scalar = _exact_scalar if exact else _float_scalar
    return st.dictionaries(_exponents, scalar, min_size=min_size, max_size=6).map(
        lambda coeffs: WeightedPolynomial(coeffs, d)
    )


@st.composite
def cases(draw, matrices=_matrices, word_length=2):
    """(exact, operator, spinor): 1-6 monomials per nonempty component."""
    exact = draw(st.booleans())
    op = draw(_operators(exact, matrices, word_length))
    d = draw(_envelope(exact))
    upper = draw(_components(exact, d, 0))
    lower = draw(_components(exact, d, 0 if upper.coeffs else 1))
    return exact, op, SpinorFunction(upper, lower)


_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@_SETTINGS
@given(cases())
def test_apply_matches_term_by_term_reference(case):
    exact, op, s = case
    assert_spinors_identical(op.apply(s), reference_apply(op, s), exact)


@_SETTINGS
@given(cases(matrices=_scalar_matrices))
def test_apply_poly_matches_term_by_term_reference(case):
    exact, op, s = case
    for wp in (s.upper, s.lower):
        assert_identical(op.apply_poly(wp), reference_apply_poly(op, wp), exact)


@_SETTINGS
@given(cases(), st.data())
def test_derived_operators_compile_their_own_plan(case, data):
    exact, a, s = case
    b = data.draw(_operators(exact, _matrices))
    c = data.draw(_exact_scalar if exact else _float_scalar)
    a.apply(s)
    for derived in (a.scaled(c), a + b, a @ b):
        assert derived._plan is None
        assert_spinors_identical(derived.apply(s), reference_apply(derived, s), exact)
        assert derived._plan is not a._plan


@_SETTINGS
@given(
    _floats,
    st.dictionaries(_exponents, _float_scalar, min_size=1, max_size=6),
)
def test_primitive_methods_keep_the_sorted_accumulation_rule(d, coeffs):
    # The rule each primitive step implements, written out independently:
    # sorted monomials, first-touch then add, exact zeros dropped.
    wp = WeightedPolynomial(coeffs, d)

    def spec(derivative_axis):
        out = {}
        for (m, n), c in sorted(coeffs.items()):
            power = (m, n)[derivative_axis]
            terms = []
            if power > 0:
                key = (m - 1, n) if derivative_axis == 0 else (m, n - 1)
                terms.append((key, power * c))
            if d:
                key = (m, n + 1) if derivative_axis == 0 else (m + 1, n)
                terms.append((key, d * c))
            for key, v in terms:
                out[key] = v if key not in out else out[key] + v
        return WeightedPolynomial(out, d)

    assert bits(wp.diff_z()) == bits(spec(0))
    assert bits(wp.diff_zbar()) == bits(spec(1))
    assert bits(wp.shift_z()) == {(m + 1, n): v for (m, n), v in bits(wp).items()}
    assert bits(wp.shift_zbar()) == {(m, n + 1): v for (m, n), v in bits(wp).items()}


# ---------------------------------------------------------------------------
# plan invariants
# ---------------------------------------------------------------------------


def test_apply_poly_rejects_spin_mixing_operator():
    op = OperatorExpr.dz() + OperatorExpr.from_word(1, ((0, 1), (0, 0)), (Prim.MUL_Z,))
    wp = WeightedPolynomial({(1, 0): 1.0}, -0.25)
    with pytest.raises(ValueError):
        op.apply_poly(wp)
    op.apply(SpinorFunction(wp, wp))  # the spinor path still works
    with pytest.raises(ValueError):
        op.apply_poly(wp)
    unequal_diagonal = OperatorExpr.spin(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        unequal_diagonal.apply_poly(wp)


def test_exact_zeros_are_pruned_inside_and_after_a_word():
    d = Fraction(-1, 4)
    # d/dz of 1 + z zbar/4 cancels at (0, 1): d*1 + 1*(1/4) = 0.
    wp = WeightedPolynomial({(0, 0): 1, (1, 1): Fraction(1, 4)}, d)
    assert opalg._step_dz(wp.sorted_items(), d) == {(1, 2): Fraction(-1, 16)}
    assert wp.diff_z().coeffs == {(1, 2): Fraction(-1, 16)}
    assert OperatorExpr.dz().apply_poly(wp).coeffs == {(1, 2): Fraction(-1, 16)}
    twice = OperatorExpr.dz() @ OperatorExpr.dz()
    assert twice.apply_poly(wp).coeffs == {(0, 2): Fraction(-1, 16), (1, 3): Fraction(1, 64)}
    # an operator minus itself leaves literal nothing
    s = SpinorFunction(wp, wp.scaled(I))
    h = OperatorExpr.from_word(I, ((1, 2), (-1, I)), (Prim.MUL_Z, Prim.DZBAR))
    assert (h - h).apply(s).is_zero()


def test_plan_is_built_once_and_reused():
    op = OperatorExpr.dz().scaled(2) + OperatorExpr.identity()
    assert op._plan is None
    s = SpinorFunction(
        WeightedPolynomial({(2, 1): 1.0}, -0.5), WeightedPolynomial({}, -0.5)
    )
    first = op.apply(s)
    plan = op._plan
    assert plan is not None
    assert op.apply(s) == first
    op.apply_poly(s.upper)
    assert op._plan is plan


def test_shared_word_tails_step_once():
    # dz.z and dzbar.z both end in z, applied first: one shared step.
    op = OperatorExpr.dz() @ OperatorExpr.mul_z() + OperatorExpr.dzbar() @ OperatorExpr.mul_z()
    plan = op._compiled()
    assert len(plan.nodes) == 6  # the same three steps on each component
    wp = WeightedPolynomial({(0, 0): 1.0, (1, 2): 0.5j}, -0.25)
    assert_identical(op.apply_poly(wp), reference_apply_poly(op, wp), exact=False)


def test_identity_term_reads_the_input_directly():
    op = OperatorExpr.scalar(Fraction(3, 2)) - OperatorExpr.identity()
    wp = WeightedPolynomial({(1, 1): ComplexRational(Fraction(2), Fraction(-4))}, 0)
    out = op.apply_poly(wp)
    assert out.coeffs == {(1, 1): ComplexRational(Fraction(1), Fraction(-2))}
    assert op._compiled().nodes == ()


# ---------------------------------------------------------------------------
# antilinear maps
# ---------------------------------------------------------------------------
# The route the one-pass pt_transform replaced, one polynomial per step:
# conjugate, map the coordinates, then mix the spin components row by row.


def _conjugated(wp):
    return WeightedPolynomial({k: c.conjugate() for k, c in wp.coeffs.items()}, wp.d)


def _with_parity_signs(wp):
    """Coefficient sign (-1)**(m+n): the pullback under z -> -z."""
    return WeightedPolynomial(
        {k: (-c if (k[0] + k[1]) % 2 else c) for k, c in wp.coeffs.items()}, wp.d
    )


def _swapped_exponents(wp):
    """The pullback under z <-> zbar (the envelope is symmetric)."""
    return WeightedPolynomial({(n, m): c for (m, n), c in wp.coeffs.items()}, wp.d)


_COORD_MAPS = {
    CoordMap.NEGATE: _with_parity_signs,
    CoordMap.FIX: lambda wp: wp,
    CoordMap.SWAP: _swapped_exponents,
}


def _mix(e1, w1, e2, w2):
    acc = {}
    for entry, wp in ((e1, w1), (e2, w2)):
        if entry != 0:
            for mono, c in wp.coeffs.items():
                prev = acc.get(mono)
                v = opalg._scale_entry(entry, c)
                acc[mono] = v if prev is None else prev + v
    return WeightedPolynomial(acc, w1.d)


def reference_pt_transform(op, s):
    u, l = (_COORD_MAPS[op.coord_map](_conjugated(wp)) for wp in (s.upper, s.lower))
    (m00, m01), (m10, m11) = op.matrix
    return SpinorFunction(_mix(m00, u, m01, l), _mix(m10, u, m11, l))


# each row of these adds two nonzero entries, the upper part first
_MIXING = [AntilinearOp(f"mix_{c.value}", ((1, 1j), (-1j, -1)), c) for c in CoordMap]


# a value on an axis carries a signed zero, which a wrong sign step flips
_axis_scalar = st.one_of(
    st.builds(complex, st.sampled_from([0.0, -0.0]), _floats),
    st.builds(complex, _floats, st.sampled_from([0.0, -0.0])),
).filter(bool)


@st.composite
def shuffled_spinors(draw):
    """A float or exact spinor, each component's keys in a drawn order."""
    exact = draw(st.booleans())
    d = draw(_envelope(exact))
    scalar = _exact_scalar if exact else st.one_of(_float_scalar, _axis_scalar)
    comps = []
    for _ in range(2):
        coeffs = draw(st.dictionaries(_exponents, scalar, max_size=6))
        items = draw(st.permutations(list(coeffs.items())))
        comps.append(WeightedPolynomial(dict(items), d))
    return SpinorFunction(*comps)


@_SETTINGS
@given(shuffled_spinors())
def test_pt_transform_matches_the_three_step_route(s):
    for op in [P1T, P2T, TIME_REVERSAL] + _MIXING:
        got, want = pt_transform(op, s), reference_pt_transform(op, s)
        for g, w in ((got.upper, want.upper), (got.lower, want.lower)):
            assert g.d == w.d
            assert bits(g) == bits(w)  # key sets, and every bit of each value


# ---------------------------------------------------------------------------
# key order
# ---------------------------------------------------------------------------
# The kernel reads each dict in insertion order and never sorts.  A key of a
# step image gets at most two terms and a key of the output at most one per
# plan entry, added in entry order, so no insertion order moves a bit.

CO = derive_coeffs(PhysParams(v_f=1.37, lam=0.5, k1=0.02, b0=100.0))


@st.composite
def reordered(draw, matrices=_matrices):
    """A case with words up to length 3, and its spinor rebuilt with the
    keys of each component inserted in reverse sorted order, then shuffled."""
    exact, op, s = draw(cases(matrices=matrices, word_length=3))
    others = []
    for shuffle in (False, True):
        comps = []
        for wp in (s.upper, s.lower):
            items = sorted(wp.coeffs.items(), reverse=True)
            if shuffle:
                items = draw(st.permutations(items))
            comps.append(WeightedPolynomial(dict(items), wp.d))
        others.append(SpinorFunction(*comps))
    return exact, op, s, others


@_SETTINGS
@given(reordered())
def test_apply_is_independent_of_insertion_order(case):
    exact, op, s, others = case
    want = reference_apply(op, s)
    for other in others:
        assert_spinors_identical(op.apply(other), want, exact)


@_SETTINGS
@given(reordered(matrices=_scalar_matrices))
def test_apply_poly_is_independent_of_insertion_order(case):
    exact, op, s, others = case
    for other in others:
        for got, wp in ((other.upper, s.upper), (other.lower, s.lower)):
            assert_identical(op.apply_poly(got), reference_apply_poly(op, wp), exact)


@_SETTINGS
@given(cases(), st.data())
def test_relative_defect_is_the_difference_polynomial_bit_for_bit(case, data):
    exact, a, s = case
    b = data.draw(_operators(exact, _matrices))
    x, y = a.apply(s), b.apply(s)
    for left, right in ((x, y), (y, x), (x, s), (x, x)):
        scale = max(left.max_abs_coeff(), right.max_abs_coeff()) or 1.0
        want = left.sub(right).max_abs_coeff() / scale
        got = opalg._relative_defect(left, right)
        assert repr(got) == repr(want)
    assert opalg._relative_defect(x, x) == 0.0
    # a non-finite coefficient at a key both functions hold, or at one
    # that only the poisoned one holds; the reference keeps every nan
    special = data.draw(st.sampled_from(
        [math.inf, -math.inf, complex(1.0, -math.inf), math.nan, complex(math.nan, 1.0)]
    ))
    x, y = x.to_complex(), y.to_complex()
    key = data.draw(st.sampled_from(sorted(y.upper.coeffs) + [(9, 9)]))
    poisoned = SpinorFunction(
        WeightedPolynomial({**x.upper.coeffs, key: special}, x.d), x.lower
    )
    for left, right in ((poisoned, y), (y, poisoned), (poisoned, x)):
        scale = opalg._nan_max([left.max_abs_coeff(), right.max_abs_coeff()]) or 1.0
        want = left.sub(right).max_abs_coeff() / scale
        assert repr(opalg._relative_defect(left, right)) == repr(want)


@pytest.mark.parametrize("order", [1, -1], ids=["nan_last", "nan_first"])
def test_a_nan_is_never_hidden_by_key_order(order):
    def spinor(*items):
        upper = WeightedPolynomial(dict(items[::order]), -0.25)
        return SpinorFunction(upper, WeightedPolynomial.zero(-0.25))

    clean = spinor(((0, 0), 1.0), ((1, 0), 0.5))
    poisoned = spinor(((0, 0), 1.0), ((1, 0), math.nan))
    assert math.isnan(poisoned.upper.max_abs_coeff())
    assert math.isnan(SpinorFunction(clean.lower, poisoned.upper).max_abs_coeff())
    assert math.isnan(opalg._relative_defect(poisoned, clean))
    assert math.isnan(opalg._relative_defect(clean, poisoned))
    ident = OperatorExpr.identity()
    probes = [clean, poisoned][::order]
    assert math.isnan(operator_residual_on_probes(ident, ident.scaled(2.0), probes))
    h = build_hamiltonian(CO)
    assert all(math.isnan(r) for r in pt_commutator_residuals(h, [P1T, P2T], probes))


def test_jc_verify_keeps_a_nan_coefficient():
    # a nan c1 poisons the c1 terms of both defect operators, not the rest
    co = dataclasses.replace(CO, c1=math.nan)
    report = jc_verify(co, degree=4)
    assert math.isnan(report.commutator_residual)
    assert math.isnan(report.factorization_residual)


# ---------------------------------------------------------------------------
# the batch kernel
# ---------------------------------------------------------------------------
# Float probes' residuals run through the batch kernel.  The references
# below are the per-probe definitions: each operator applied to each probe
# alone, and for a symmetry commutator op(H s) against H(op s) through
# pt_transform, where the library compares H s with (A H A^-1) s.  Both
# public residuals must give the same float, bit for bit, with a non-finite
# coefficient as well, whose residual is nan on both routes.


def dict_operator_residual(x, y, probes):
    return opalg._nan_max(
        [opalg._relative_defect(x.apply(s), y.apply(s)) for s in probes]
    )


def dict_pt_residuals(h, ops, probes):
    rows = []
    for s in probes:
        image = h.apply(s)
        rows.append([
            opalg._relative_defect(pt_transform(op, image), h.apply(pt_transform(op, s)))
            for op in ops
        ])
    return [opalg._nan_max(column) for column in zip(*rows)]


_SPECIALS = [math.inf, -math.inf, complex(1.0, -math.inf), math.nan, complex(math.nan, 1.0)]
_float_cases = cases().filter(lambda case: not case[0])
# a non-finite coefficient, as drawn (a float among complex values) or as a
# complex, at a key of the upper component of the probe with the drawn index
# (modulo the number of probes)
_poisons = st.none() | st.tuples(
    st.sampled_from(_SPECIALS), st.booleans(), st.integers(0, 3), _exponents
)

# Under T both entries of the third term's lower row land in one row, summed
# in the order the term holds them: a conjugation that kept the matrix
# whole summed them the other way and read 1.3582270525875009 here.
_ROW_ORDER = (False, OperatorExpr([
    OperatorTerm(1j, ((0, 0), (0, 0)), ()),
    OperatorTerm(-1j, ((0, 0), (1, 0)), ()),
    OperatorTerm(0.8654981443181589 + 3j, ((0, 1), (1j, 1j)), ()),
]), SpinorFunction(
    WeightedPolynomial({(0, 0): -1j}, 0.0),
    WeightedPolynomial({(0, 0): -3 + 0.22267701675978113j}, 0.0),
))


@_SETTINGS
@given(st.lists(_float_cases, min_size=1, max_size=4), _poisons)
@example([_ROW_ORDER], None)
def test_batch_residuals_are_the_dict_route_bit_for_bit(drawn, poison):
    (_, x, _), (_, y, _) = drawn[0], drawn[-1]
    probes = [s for _, _, s in drawn]
    if poison is not None:
        special, as_complex, k, key = poison
        k %= len(probes)
        value = complex(special) if as_complex else special
        s = probes[k]
        upper = WeightedPolynomial({**s.upper.coeffs, key: value}, s.d)
        probes[k] = SpinorFunction(upper, s.lower)
    got = operator_residual_on_probes(x, y, probes)
    assert repr(got) == repr(dict_operator_residual(x, y, probes))
    ops = [P1T, P2T, TIME_REVERSAL]
    got = pt_commutator_residuals(x, ops, probes)
    assert repr(got) == repr(dict_pt_residuals(x, ops, probes))


def test_probes_at_different_envelopes_share_one_call():
    h = build_hamiltonian(CO)
    ident = OperatorExpr.identity()
    comm = OperatorExpr.dz() @ OperatorExpr.mul_z() - OperatorExpr.mul_z() @ OperatorExpr.dz()
    probes = []
    for d in (-0.25, 0.0, -0.0, 1.5, -3.0e-5):
        probes += opalg.standard_probes(d, max_degree=3, random_count=3, seed=7)
    # a probe with an int coefficient beyond 2**53 takes the dict route on
    # its own
    probes.insert(5, SpinorFunction(
        WeightedPolynomial({(1, 2): 2**53 + 1}, -0.25), WeightedPolynomial.zero(-0.25)
    ))
    batches, rest = opalg._batches(probes, 2)
    # 0.0 and -0.0 are one envelope: neither adds an envelope term
    assert [layout.d for layout, _ in batches] == [-0.25, 0.0, 1.5, -3.0e-5]
    assert len(rest) == 1
    assert repr(operator_residual_on_probes(comm, ident, probes)) == repr(
        dict_operator_residual(comm, ident, probes)
    )
    ops = [P2T, TIME_REVERSAL]  # P1T's i would make the int probe exact
    assert repr(pt_commutator_residuals(h, ops, probes)) == repr(
        dict_pt_residuals(h, ops, probes)
    )
    # a real batch, at an envelope of its own, whose windows are taller
    # than wide
    tall = WeightedPolynomial({(0, 1): 1.0, (5, 1): -2.0}, -0.75)
    floats = probes[:5] + probes[6:] + [SpinorFunction(tall, tall.scaled(0.5))]
    ops = [P1T, P2T, TIME_REVERSAL]  # i times a real component; swapped
    assert repr(pt_commutator_residuals(h, ops, floats)) == repr(
        dict_pt_residuals(h, ops, floats)
    )
    # and each probe set alone gives its share of the worst
    each = [
        operator_residual_on_probes(comm, ident, [s for s in probes if s.d == layout.d])
        for layout, _ in batches
    ]
    assert operator_residual_on_probes(comm, ident, probes) == max(each)


@pytest.mark.parametrize("op", _MIXING, ids=lambda op: op.name)
def test_a_mixing_op_has_no_commutator_residual(op):
    # its matrix is no unit times a signed permutation, so A H A^-1 has no
    # term-by-term form; pt_transform still maps spinors with it
    h = build_hamiltonian(CO)
    probes = opalg.standard_probes(-0.25, max_degree=2, random_count=2)
    with pytest.raises(ValueError, match="not a unit times a signed permutation"):
        pt_commutator_residual(h, op, probes)
    with pytest.raises(ValueError, match="not a unit times a signed permutation"):
        pt_commutator_residuals(h, [P1T, op], probes)
    assert pt_transform(op, probes[0]) == reference_pt_transform(op, probes[0])


@pytest.mark.parametrize("op", [P1T, P2T, TIME_REVERSAL], ids=["P1T", "P2T", "T"])
def test_int_coefficient_probes_ride_the_batch_route(op):
    # a probe with a float envelope exponent is not exact: an int
    # coefficient up to 2**53 in size rides the batch kernel as the float it
    # equals, where P1T's i on the dict route made it exact and the float
    # H could not multiply it
    h = build_hamiltonian(CO)
    zero = WeightedPolynomial.zero(-0.25)
    for c in (1, -3, 2**53):
        probes = [
            SpinorFunction(WeightedPolynomial.monomial(1, 2, value, d=-0.25), zero)
            for value in (c, float(c))
        ]
        batches, rest = opalg._batches(probes[:1], 2)
        assert len(batches) == 1 and rest == []
        got, want = (pt_commutator_residual(h, op, [s]) for s in probes)
        assert repr(got) == repr(want)


def record_layouts(monkeypatch):
    """The shapes of every batch layout made from now on."""
    shapes = []
    original = opalg._layout

    def recording(*args):
        layout = original(*args)
        shapes.append(layout.shape)
        return layout

    monkeypatch.setattr(opalg, "_layout", recording)
    return shapes


def test_batches_hold_at_most_the_cell_budget(monkeypatch):
    builds = [(branch, valley) for branch in Branch for valley in Valley]
    whole = [build_truncated(CO, 40, *case) for case in builds]
    monkeypatch.setattr(opalg, "_BATCH_CELLS", 200)
    shapes = record_layouts(monkeypatch)
    # the build's 40 levels, 3 x 3 windows each, in batches of 22 and 18
    for case, want in zip(builds, whole):
        got = build_truncated(CO, 40, *case)
        for x, y in ((got.a, want.a), (got.b, want.b)):
            assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
        assert got.dropped_count == want.dropped_count
    assert shapes[:2] == [(3, 3, 22), (3, 3, 18)]
    h = build_hamiltonian(CO)
    comm = OperatorExpr.dz() @ OperatorExpr.mul_z() - OperatorExpr.mul_z() @ OperatorExpr.dz()
    probes = opalg.standard_probes(-0.25, max_degree=4, random_count=6, seed=3)
    # a probe whose own window (25 x 25 at reach 2) exceeds the budget runs
    # through the dict route
    far = WeightedPolynomial({(0, 0): 1.0, (20, 20): -0.5j}, -0.25)
    probes.insert(3, SpinorFunction(far, far.scaled(2.0)))
    batches, rest = opalg._batches(probes, 2)
    assert len(batches) > 1 and rest == [probes[3]]
    assert repr(operator_residual_on_probes(comm, h, probes)) == repr(
        dict_operator_residual(comm, h, probes)
    )
    ops = [P1T, P2T, TIME_REVERSAL]
    assert repr(pt_commutator_residuals(h, ops, probes)) == repr(
        dict_pt_residuals(h, ops, probes)
    )
    assert shapes and all(wm * wn * p <= 200 for wm, wn, p in shapes)


@pytest.mark.parametrize("special", [math.inf, complex(math.nan, 1.0)])
@pytest.mark.parametrize("prim", [Prim.DZ, Prim.DZBAR])
def test_an_inf_that_no_term_reads_leaves_the_residual_finite(special, prim):
    # at exponent 0 a derivative has no term, and at d = 0 neither has the
    # envelope: the poisoned monomial drops out of the image on both routes
    key = (0, 2) if prim is Prim.DZ else (2, 0)
    wp = WeightedPolynomial({key: special, (1, 1): 1 + 1j}, 0.0)
    probes = [SpinorFunction(wp, WeightedPolynomial.zero(0.0))]
    op = OperatorExpr.from_word(1, opalg.IDENTITY2, (Prim.MUL_Z, prim))
    for x, y in ((op, OperatorExpr([])), (op, op.scaled(2.0))):
        got = operator_residual_on_probes(x, y, probes)
        assert repr(got) == repr(dict_operator_residual(x, y, probes))
        assert math.isfinite(got)
    # with an envelope the inf reaches the image, and the residual is nan
    probes = [SpinorFunction(*(WeightedPolynomial(c.coeffs, -0.5) for c in (wp, probes[0].lower)))]
    got = operator_residual_on_probes(op, OperatorExpr([]), probes)
    assert repr(got) == repr(dict_operator_residual(op, OperatorExpr([]), probes)) == "nan"
