"""Exactness and symmetry tests for the operator algebra.

Closed-form checks use hand-derived expected values; the literal-zero
assertions run on the Fraction/ComplexRational path where no rounding
exists to hide behind.
"""

import cmath
import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ptdirac import opalg
from ptdirac.exact import ONE, ComplexRational
from ptdirac.params import Branch, DegenerateCoefficientsError, PhysParams, Valley, derive_coeffs
from edge_points import HUGE_ENVELOPE, SUBNORMAL_K
from ptdirac.opalg import (
    P1T,
    P2T,
    TIME_REVERSAL,
    OperatorExpr,
    Prim,
    SpinorFunction,
    WeightedPolynomial,
    analytic_state,
    block_operators,
    build_hamiltonian,
    conjugated,
    eigen_residual,
    jc_verify,
    ladder_raise,
    level_energy_from_coeffs,
    lll_annihilation_residual,
    lll_annihilation_residuals,
    lll_state,
    operator_residual_on_probes,
    pt_commutator_residual,
    pt_commutator_residuals,
    pt_eigenfactor,
    pt_transform,
    residue_groups,
    standard_probes,
    time_reversal_conjugate,
)

BASE = PhysParams(v_f=1.37, lam=0.5, k1=0.02, b0=100.0)
BROKEN = dataclasses.replace(BASE, lam=1.8)
CO = derive_coeffs(BASE)
CO_BROKEN = derive_coeffs(BROKEN)

# all four couplings vanish identically here, so k_coef is 0.0 bitwise
FLAT = PhysParams(v_f=1.0, lam=0.0, k1=0.5, b0=1.0, e=1.0, c=1.0)

EXACT_BASE = PhysParams(
    v_f=Fraction(137, 100),
    lam=Fraction(1, 2),
    k1=Fraction(1, 50),
    b0=Fraction(100),
    e=Fraction(1),
    c=Fraction(137),
    hbar=Fraction(1),
)

TIGHT = 1e-12
PROBES = standard_probes(float(CO.d1_branch_i), max_degree=5, random_count=20)


def engineered_params(n: int) -> PhysParams:
    """Exact-rational point where k_coef equals n + 1, so the level-n
    energies are rational on branch I and exactly i*(n+1) on branch II."""
    return PhysParams(
        v_f=Fraction(1),
        lam=Fraction(0),
        k1=Fraction(1, 4),
        b0=Fraction(n + 2, 2),
        e=Fraction(1),
        c=Fraction(1),
        hbar=Fraction(1),
    )


# ---------------------------------------------------------------------------
# function space basics
# ---------------------------------------------------------------------------


def test_diff_z_with_envelope():
    wp = WeightedPolynomial({(2, 1): 1.0}, -0.5)
    assert wp.diff_z().coeffs == {(1, 1): 2.0, (2, 2): -0.5}
    assert wp.diff_zbar().coeffs == {(2, 0): 1.0, (3, 1): -0.5}


def test_shift_and_scale():
    wp = WeightedPolynomial({(0, 0): 2.0, (1, 0): -1.0}, 0.0)
    assert wp.shift_z().coeffs == {(1, 0): 2.0, (2, 0): -1.0}
    assert wp.scaled(0.5).coeffs == {(0, 0): 1.0, (1, 0): -0.5}


def test_add_requires_matching_envelope():
    a = WeightedPolynomial({(0, 0): 1.0}, -0.25)
    b = WeightedPolynomial({(0, 0): 1.0}, -0.5)
    with pytest.raises(ValueError):
        a.add(b)


def test_spin_matrix_application():
    d = -0.25
    u = WeightedPolynomial({(1, 0): 2.0}, d)
    l = WeightedPolynomial({(0, 1): 3.0}, d)
    s = SpinorFunction(u, l)
    out = OperatorExpr.spin(((0, 1), (0, 0))).apply(s)
    assert out.upper.coeffs == {(0, 1): 3.0}
    assert out.lower.is_zero()


def test_standard_probes_deterministic():
    a = standard_probes(-0.25)
    b = standard_probes(-0.25)
    assert len(a) == len(b)
    assert all(x == y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# operator algebra
# ---------------------------------------------------------------------------


def test_primitive_commutators():
    ident = OperatorExpr.identity()
    zero = OperatorExpr([])
    hbar = 1.0
    checks = [
        (OperatorExpr.dz() @ OperatorExpr.mul_z()
         - OperatorExpr.mul_z() @ OperatorExpr.dz(), ident),
        (OperatorExpr.dzbar() @ OperatorExpr.mul_zbar()
         - OperatorExpr.mul_zbar() @ OperatorExpr.dzbar(), ident),
        (OperatorExpr.dz() @ OperatorExpr.mul_zbar()
         - OperatorExpr.mul_zbar() @ OperatorExpr.dz(), zero),
        (OperatorExpr.dzbar() @ OperatorExpr.mul_z()
         - OperatorExpr.mul_z() @ OperatorExpr.dzbar(), zero),
        (OperatorExpr.pi_z(hbar) @ OperatorExpr.mul_z()
         - OperatorExpr.mul_z() @ OperatorExpr.pi_z(hbar),
         OperatorExpr.scalar(-1j * hbar)),
    ]
    for left, right in checks:
        assert operator_residual_on_probes(left, right, PROBES) <= TIGHT


def test_adjoint_of_momentum():
    assert OperatorExpr.pi_z(1.0).adjoint().max_collected_diff(
        OperatorExpr.pi_zbar(1.0)
    ) == 0.0


def test_adjoint_involution():
    h = build_hamiltonian(CO)
    assert h.adjoint().adjoint().max_collected_diff(h) == 0.0


def test_adjoint_flips_coupling_sign():
    for p in (BASE, BROKEN):
        h_dag = build_hamiltonian(derive_coeffs(p)).adjoint()
        mirrored = build_hamiltonian(derive_coeffs(dataclasses.replace(p, lam=-p.lam)))
        assert h_dag.max_collected_diff(mirrored) == 0.0


def test_hermitian_without_coupling():
    h = build_hamiltonian(derive_coeffs(dataclasses.replace(BASE, lam=0.0)))
    assert h.adjoint().max_collected_diff(h) == 0.0


def test_valley_build_matches_swapped_coefficients():
    left = build_hamiltonian(CO, Valley.TIME_REVERSED)
    right = build_hamiltonian(CO.swapped(), Valley.PRIMARY)
    assert left.max_collected_diff(right) == 0.0


# ---------------------------------------------------------------------------
# closed-form eigenstates
# ---------------------------------------------------------------------------


def test_eigen_residual_all_levels_float():
    for co in (CO, CO_BROKEN):
        for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
            h = build_hamiltonian(co, valley)
            for branch in (Branch.I, Branch.II):
                for n in range(11):
                    s = analytic_state(branch, valley, n, co)
                    energy = level_energy_from_coeffs(co, n, branch)
                    assert eigen_residual(h, s, energy) <= TIGHT


def test_eigen_residual_rejects_wrong_energy():
    h = build_hamiltonian(CO)
    s = analytic_state(Branch.I, Valley.PRIMARY, 3, CO)
    energy = level_energy_from_coeffs(CO, 3, Branch.I)
    assert eigen_residual(h, s, energy + 0.5) > 1e-6
    assert eigen_residual(h, s, -energy) > 1e-6


def test_squared_action_matches_energy_square():
    h2 = build_hamiltonian(CO) @ build_hamiltonian(CO)
    for branch in (Branch.I, Branch.II):
        for n in range(6):
            s = analytic_state(branch, Valley.PRIMARY, n, CO)
            e2 = complex(level_energy_from_coeffs(CO, n, branch)) ** 2
            image = h2.apply(s.to_complex())
            diff = image.sub(s.to_complex().scaled(e2))
            scale = max(1.0, image.max_abs_coeff())
            assert diff.max_abs_coeff() / scale <= TIGHT


def test_analytic_state_rejects_bad_level():
    with pytest.raises(ValueError):
        analytic_state(Branch.I, Valley.PRIMARY, -1, CO)
    with pytest.raises(DegenerateCoefficientsError):
        analytic_state(Branch.I, Valley.PRIMARY, 0, derive_coeffs(
            dataclasses.replace(BASE, lam=1.37)))


def test_valley_swap_maps_states_exactly():
    sw = CO.swapped()
    for n in range(6):
        assert analytic_state(Branch.I, Valley.TIME_REVERSED, n, CO) \
            == analytic_state(Branch.II, Valley.PRIMARY, n, sw)
        assert analytic_state(Branch.II, Valley.TIME_REVERSED, n, CO) \
            == analytic_state(Branch.I, Valley.PRIMARY, n, sw)


def test_exact_eigen_residual_is_literal_zero():
    for n in range(11):
        co = derive_coeffs(engineered_params(n))
        assert co.k_coef == n + 1
        for branch in (Branch.I, Branch.II):
            for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
                h = build_hamiltonian(co, valley)
                s = analytic_state(branch, valley, n, co)
                assert s.is_exact()
                energy = level_energy_from_coeffs(co, n, branch)
                assert eigen_residual(h, s, energy) == 0.0
        e_i = level_energy_from_coeffs(co, n, Branch.I)
        assert e_i == ComplexRational(Fraction(n + 1), Fraction(0))
        e_ii = level_energy_from_coeffs(co, n, Branch.II)
        assert e_ii == ComplexRational(Fraction(0), Fraction(n + 1))


# The energies analytic states carried when a state still stored its own,
# recorded at the reference point and at engineered_params(3), k = 4:
# (real hex, imag hex) for a complex float, the value for an exact root.
RECORDED_ENERGIES = {
    ("float", Branch.I): [
        ("0x1.7dd9cdc319696p+0", "0x0.0p+0"), ("0x1.0e0260a56d6cap+1", "0x0.0p+0"),
        ("0x1.4ab14701cc46dp+1", "0x0.0p+0"), ("0x1.7dd9cdc319696p+1", "0x0.0p+0"),
    ],
    ("float", Branch.II): [
        ("0x0.0p+0", "0x1.7dd9cdc319696p+0"), ("0x0.0p+0", "0x1.0e0260a56d6cap+1"),
        ("0x0.0p+0", "0x1.4ab14701cc46dp+1"), ("0x0.0p+0", "0x1.7dd9cdc319696p+1"),
    ],
    ("exact", Branch.I): [
        ComplexRational(Fraction(2), Fraction(0)), ("0x1.6a09e667f3bcdp+1", "0x0.0p+0"),
        ("0x1.bb67ae8584caap+1", "0x0.0p+0"), ComplexRational(Fraction(4), Fraction(0)),
    ],
    ("exact", Branch.II): [
        ComplexRational(Fraction(0), Fraction(2)), ("0x0.0p+0", "0x1.6a09e667f3bcdp+1"),
        ("0x0.0p+0", "0x1.bb67ae8584caap+1"), ComplexRational(Fraction(0), Fraction(4)),
    ],
}


@pytest.mark.parametrize("point, branch", list(RECORDED_ENERGIES))
def test_level_energies_match_the_recorded_state_energies(point, branch):
    co = CO if point == "float" else derive_coeffs(engineered_params(3))
    for n, expected in enumerate(RECORDED_ENERGIES[point, branch]):
        energy = level_energy_from_coeffs(co, n, branch)
        if isinstance(expected, ComplexRational):
            assert type(energy) is ComplexRational and energy == expected
        else:
            assert type(energy) is complex
            assert (energy.real.hex(), energy.imag.hex()) == expected


def test_exact_squared_action_is_literal_zero():
    co = derive_coeffs(engineered_params(3))
    h = build_hamiltonian(co)
    h2 = h @ h
    s = analytic_state(Branch.I, Valley.PRIMARY, 3, co)
    energy = level_energy_from_coeffs(co, 3, Branch.I)
    e2 = energy * energy
    diff = h2.apply(s).sub(s.scaled(e2))
    assert diff.max_abs_coeff() == 0.0


# ---------------------------------------------------------------------------
# antilinear symmetries
# ---------------------------------------------------------------------------


def test_pt_factors_primary_valley():
    for n in range(7):
        s = analytic_state(Branch.I, Valley.PRIMARY, n, CO)
        f1 = pt_eigenfactor(P1T, s)
        f2 = pt_eigenfactor(P2T, s)
        assert abs(f1 - 1j * (-1) ** n) <= 1e-10
        assert abs(f2 - (-1)) <= 1e-10


def test_pt_factors_time_reversed_valley():
    h = build_hamiltonian(CO, Valley.TIME_REVERSED)
    for n in range(7):
        s = analytic_state(Branch.I, Valley.TIME_REVERSED, n, CO)
        energy = level_energy_from_coeffs(CO, n, Branch.I)
        assert eigen_residual(h, s, energy) <= TIGHT
        f1 = pt_eigenfactor(P1T, s)
        f2 = pt_eigenfactor(P2T, s)
        assert abs(f1 - (-1j) * (-1) ** n) <= 1e-10
        assert abs(f2 - (-1)) <= 1e-10


def test_pt_factor_absent_on_broken_branch():
    # k_coef > 0 here, so branch II energies are imaginary and the spatial
    # eigenrelation must fail for both symmetry realizations
    for n in range(7):
        s = analytic_state(Branch.II, Valley.PRIMARY, n, CO)
        assert pt_eigenfactor(P1T, s) is None
        assert pt_eigenfactor(P2T, s) is None


def test_pt_factor_at_vanishing_coupling():
    co = derive_coeffs(FLAT)
    assert float(co.k_coef) == 0.0
    assert float(co.c1) == 0.0 and float(co.c2) == 0.0
    s = analytic_state(Branch.I, Valley.PRIMARY, 1, co)
    # zero-energy state keeps only its single-monomial component
    assert s.lower.is_zero()
    assert pt_eigenfactor(P1T, s) == -1j  # i * (-1)**1
    assert abs(level_energy_from_coeffs(co, 1, Branch.I)) == 0.0


def test_pt_eigenfactor_rejects_zero_spinor():
    zero = WeightedPolynomial.zero(-0.25)
    with pytest.raises(ValueError):
        pt_eigenfactor(P1T, SpinorFunction(zero, zero))


@pytest.mark.parametrize("coeff", [
    ComplexRational(Fraction(1, 10**400), Fraction(0)),
    Fraction(10**400),
], ids=["below_float_range", "above_float_range"])
def test_pt_eigenfactor_rejects_an_exact_spinor_outside_the_float_range(coeff):
    d = Fraction(-1, 4)
    upper = WeightedPolynomial({(0, 0): coeff}, d)
    s = SpinorFunction(upper, WeightedPolynomial.zero(d))
    for op in (P1T, P2T):
        with pytest.raises(ValueError, match="outside the float range"):
            pt_eigenfactor(op, s)


def _nan_spinor(upper_items, lower_items):
    return SpinorFunction(
        WeightedPolynomial(dict(upper_items), -0.25),
        WeightedPolynomial(dict(lower_items), -0.25),
    )


@pytest.mark.parametrize("spinor", [
    _nan_spinor([((0, 0), 1.0), ((1, 0), math.nan)], []),
    _nan_spinor([((1, 0), math.nan), ((0, 0), 1.0)], []),
    # the largest coefficient sits in the upper component, the nan in the lower
    _nan_spinor([((0, 0), 1.0)], [((1, 0), 1e-3j), ((2, 0), complex(0.0, math.nan))]),
    _nan_spinor([((0, 0), 1.0)], [((2, 0), complex(0.0, math.nan)), ((1, 0), 1e-3j)]),
    _nan_spinor([((1, 0), math.nan)], []),
], ids=["nan_last", "nan_first", "nan_lower", "nan_lower_first", "nan_only"])
def test_pt_eigenfactor_gives_no_factor_to_a_nan_spinor(spinor):
    # with 0.5 in place of each nan each is a P2T eigenstate of factor -1
    for op in (P1T, P2T):
        assert pt_eigenfactor(op, spinor) is None


def test_pt_transform_is_antilinear():
    alpha = 0.7 - 1.3j
    for op in (P1T, P2T, TIME_REVERSAL):
        for s in PROBES[:8]:
            left = pt_transform(op, s.scaled(alpha))
            right = pt_transform(op, s).scaled(alpha.conjugate())
            assert left.upper == right.upper
            assert left.lower == right.lower


def test_pt_transform_maps_a_state_to_the_conjugate_energy():
    # H commutes with the antilinear symmetries, so H (PT s) = PT (E s) =
    # E* (PT s); on the broken branch E is imaginary and E* = -E
    h = build_hamiltonian(CO)
    for n in range(4):
        s = analytic_state(Branch.II, Valley.PRIMARY, n, CO)
        energy = complex(level_energy_from_coeffs(CO, n, Branch.II))
        assert energy.imag > 0
        for op in (P1T, P2T):
            t = pt_transform(op, s)
            assert eigen_residual(h, t, energy.conjugate()) <= TIGHT
            assert eigen_residual(h, t, energy) > 1e-6


def test_symmetry_squares():
    for s in PROBES[:6]:
        assert pt_transform(P1T, pt_transform(P1T, s)) == s
        assert pt_transform(P2T, pt_transform(P2T, s)) == s
        twice = pt_transform(TIME_REVERSAL, pt_transform(TIME_REVERSAL, s))
        assert twice == s.scaled(-1)


def test_pt_commutators_vanish():
    for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
        h = build_hamiltonian(CO, valley)
        for op in (P1T, P2T):
            assert pt_commutator_residual(h, op, PROBES) <= TIGHT


def test_pt_commutator_detects_breaking_term():
    h = build_hamiltonian(CO) + (
        OperatorExpr.mul_z() + OperatorExpr.mul_zbar()
    ).scaled(1e-3)
    assert pt_commutator_residual(h, P1T, PROBES) > 1e-6


def test_time_reversal_maps_between_valleys():
    for co in (CO, CO_BROKEN):
        mapped = time_reversal_conjugate(build_hamiltonian(co, Valley.PRIMARY))
        other = build_hamiltonian(co, Valley.TIME_REVERSED)
        assert mapped.max_collected_diff(other) == 0.0
        assert operator_residual_on_probes(mapped, other, PROBES) <= TIGHT


def test_conjugation_squares_on_operators():
    # A^2 = +-1 for each symmetry, so conjugating twice gives H back
    h = build_hamiltonian(CO)
    twice = time_reversal_conjugate(time_reversal_conjugate(h))
    assert twice.max_collected_diff(h) == 0.0
    for op in (P1T, P2T, TIME_REVERSAL):
        assert conjugated(op, conjugated(op, h)).collected() == h.collected()


def test_field_reversal_swaps_valleys_without_spin_coupling():
    p = PhysParams(v_f=1.37, lam=0.0, k1=0.0, b0=100.0)
    mapped = time_reversal_conjugate(build_hamiltonian(derive_coeffs(p)))
    reversed_field = build_hamiltonian(
        derive_coeffs(dataclasses.replace(p, b0=-100.0))
    )
    assert mapped.max_collected_diff(reversed_field) == 0.0


# ---------------------------------------------------------------------------
# zero modes and the ladder
# ---------------------------------------------------------------------------


def test_zero_modes_annihilated_float():
    for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
        for l in range(21):
            state = lll_state(l, CO, valley)
            assert lll_annihilation_residual(state, CO, valley) < 1e-14


def test_zero_modes_annihilated_exactly():
    co = derive_coeffs(EXACT_BASE)
    for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
        for l in range(21):
            state = lll_state(l, co, valley)
            assert lll_annihilation_residual(state, co, valley) == 0.0


def test_each_valley_operator_is_compiled_once_for_all_its_states(monkeypatch):
    compiled = []
    original = opalg._compile
    monkeypatch.setattr(
        opalg, "_compile", lambda terms: compiled.append(1) or original(terms)
    )
    h = build_hamiltonian(CO)
    for branch in (Branch.I, Branch.II):
        for n in range(11):
            s = analytic_state(branch, Valley.PRIMARY, n, CO)
            eigen_residual(h, s, level_energy_from_coeffs(CO, n, branch))
    assert len(compiled) == 1  # h.to_complex() is made once and kept
    compiled.clear()
    states = [lll_state(l, CO, Valley.TIME_REVERSED) for l in range(21)]
    residuals = lll_annihilation_residuals(states, CO, Valley.TIME_REVERSED)
    assert len(compiled) == 1
    assert [r.hex() for r in residuals] == [
        lll_annihilation_residual(s, CO, Valley.TIME_REVERSED).hex() for s in states
    ]


def test_zero_mode_requires_envelope():
    co = derive_coeffs(dataclasses.replace(BASE, lam=1.37))
    with pytest.raises(DegenerateCoefficientsError):
        lll_state(0, co, Valley.PRIMARY)


def test_ladder_raise_single_step():
    chi0 = lll_state(0, CO)
    raised = ladder_raise(chi0, 1, CO)
    expected = 1j * cmath.sqrt(complex(CO.k_coef)) / (CO.a_coef * CO.hbar)
    got = raised.coeffs[(1, 0)]
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_ladder_closure():
    chi0 = lll_state(0, CO)
    raised = ladder_raise(chi0, 1, CO)
    sqrt_k = cmath.sqrt(complex(CO.k_coef))
    lower, _ = block_operators(CO, Valley.PRIMARY)
    back = lower.to_complex().scaled(1 / sqrt_k).apply_poly(raised)
    diff = back.sub(chi0.to_complex())
    assert diff.max_abs_coeff() <= 1e-12


def test_ladder_requires_coupling():
    co = derive_coeffs(FLAT)
    with pytest.raises(ValueError):
        ladder_raise(lll_state(0, co), 1, co)
    with pytest.raises(ValueError):
        ladder_raise(lll_state(0, CO), 0, CO)


def test_jc_report_float():
    for co in (CO, CO_BROKEN):
        rep = jc_verify(co, degree=30)
        assert rep.commutator_residual <= TIGHT
        assert rep.factorization_residual <= TIGHT


def test_jc_report_exact():
    rep = jc_verify(derive_coeffs(EXACT_BASE), degree=12)
    assert rep.commutator_residual == 0.0
    assert rep.factorization_residual == 0.0


def test_jc_rejects_degenerate_input():
    with pytest.raises(ValueError):
        jc_verify(CO, degree=1)
    with pytest.raises(ValueError):
        jc_verify(derive_coeffs(FLAT), degree=10)


def test_ladder_pair_adjoint_without_coupling():
    co = derive_coeffs(dataclasses.replace(BASE, lam=0.0))
    sqrt_k = cmath.sqrt(complex(co.k_coef))
    lower, raiser = block_operators(co, Valley.PRIMARY)
    q1 = lower.to_complex().scaled(1 / sqrt_k)
    q2d = raiser.to_complex().scaled(1 / sqrt_k)
    scale = max(1.0, abs(complex(co.a_coef)) / abs(sqrt_k))
    assert q2d.adjoint().max_collected_diff(q1) <= 1e-15 * scale


# ---------------------------------------------------------------------------
# application to groups of monomials with disjoint images
# ---------------------------------------------------------------------------


def apply_each(op, group, d, coeff=1, component=None):
    """op's image of each monomial of group, one application each: through
    apply_poly with component None, else through apply with the monomial in
    that spin component."""
    zero = WeightedPolynomial.zero(d)
    out = []
    for mono in group:
        wp = WeightedPolynomial({mono: coeff}, d)
        if component is None:
            out.append(op.apply_poly(wp))
        else:
            out.append(op.apply(SpinorFunction(*((zero, wp) if component else (wp, zero)))))
    return out


def bits(wp):
    """Every coefficient of wp with its exact bits, in insertion order."""
    return [
        (key, c if isinstance(c, ComplexRational) else (c.real.hex(), c.imag.hex()))
        for key, c in wp.coeffs.items()
    ]


def assert_partition(whole, parts, group, reach):
    """The parts, one per monomial of group, have pairwise disjoint keys,
    each key lies within reach of its part's monomial in both exponents
    and of no other monomial of group, and the union of the parts is
    whole, key for key and bit for bit."""
    union = {}
    for source, part in zip(group, parts):
        for key, c in bits(part):
            assert key not in union
            near = [s for s in group if max(abs(s[0] - key[0]), abs(s[1] - key[1])) <= reach]
            assert near == [source]
            union[key] = c
    assert dict(bits(whole)) == union


def random_operator(rng, exact):
    """Six terms with random coefficients, spin matrices and words of
    length at most 3."""
    def coeff():
        if exact:
            return ComplexRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                   Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    op = OperatorExpr([])
    for _ in range(6):
        word = [rng.choice(list(Prim)) for _ in range(rng.randint(0, 3))]
        matrix = tuple(tuple(rng.choice((0, 1, -1)) for _ in range(2)) for _ in range(2))
        op = op + OperatorExpr.from_word(coeff(), matrix, word)
    return op


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("seed", range(4))
def test_group_images_are_partitioned_by_their_sources(exact, seed):
    rng = random.Random(seed)
    op = random_operator(rng, exact)
    reach = max(len(t.word) for t in op.terms)
    d = Fraction(-1, 3) if exact else -0.37
    coeff = 1 if exact else 1.0
    zero = WeightedPolynomial.zero(d)
    sources = sorted({(rng.randint(0, 14), rng.randint(0, 14)) for _ in range(60)})
    groups = residue_groups(op, sources)
    assert sorted(mono for g in groups for mono in g) == sources
    for group in groups:
        p = 2 * reach + 1
        assert len({(m % p, n % p) for m, n in group}) == 1
        total = WeightedPolynomial(dict.fromkeys(group, coeff), d)
        for component in (0, 1):
            image = op.apply(
                SpinorFunction(*((zero, total) if component else (total, zero)))
            )
            parts = apply_each(op, group, d, coeff, component)
            assert_partition(image.upper, [s.upper for s in parts], group, reach)
            assert_partition(image.lower, [s.lower for s in parts], group, reach)
    spin_scalar = OperatorExpr([t for t in op.terms if t.matrix == ((1, 0), (0, 1))])
    for group in residue_groups(spin_scalar, sources):
        total = WeightedPolynomial(dict.fromkeys(group, coeff), d)
        image = spin_scalar.apply_poly(total)
        parts = apply_each(spin_scalar, group, d, coeff)
        assert_partition(image, parts, group, spin_scalar._compiled().reach)


def test_residue_groups_read_the_stride_from_the_longest_word():
    levels = [(l, 0) for l in range(8)]
    assert residue_groups(OperatorExpr.scalar(2.0), levels) == [levels]
    assert residue_groups(OperatorExpr.mul_z(), levels) == [
        [(0, 0), (3, 0), (6, 0)], [(1, 0), (4, 0), (7, 0)], [(2, 0), (5, 0)]
    ]
    two = OperatorExpr.dz() @ OperatorExpr.mul_zbar()
    assert [g[0] for g in residue_groups(two + OperatorExpr.identity(), levels)] == [
        (l, 0) for l in range(5)
    ]


def one_application_per_probe_report(co, degree):
    """jc_verify's residuals with each operator applied to each monomial
    probe alone, through the dict kernel."""
    comm, fact, d = opalg._ladder_defects(co)
    probes = [(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)]
    images = apply_each(comm, probes, d)
    comm_res = opalg._nan_max([image.max_abs_coeff() for image in images])
    images = apply_each(fact, probes, d, component=0) + apply_each(
        fact, probes, d, component=1
    )
    return comm_res, opalg._nan_max([image.max_abs_coeff() for image in images])


def test_jc_reports_match_one_application_per_probe():
    cases = [(CO, 30), (CO_BROKEN, 30), (derive_coeffs(EXACT_BASE), 12), (CO, 2)]
    for co, degree in cases:
        rep = jc_verify(co, degree=degree)
        got = (rep.commutator_residual, rep.factorization_residual)
        want = one_application_per_probe_report(co, degree)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        if co is cases[2][0]:
            assert got == (0.0, 0.0)


def count_applications(monkeypatch):
    """A Counter of OperatorExpr.apply and apply_poly calls from now on."""
    calls = Counter()
    for name in ("apply", "apply_poly"):
        original = getattr(OperatorExpr, name)

        def counting(self, arg, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(OperatorExpr, name, counting)
    return calls


@pytest.mark.parametrize("co, degree", [(derive_coeffs(EXACT_BASE), 20)], ids=["exact"])
def test_jc_makes_one_application_per_residue_class(monkeypatch, co, degree):
    # the exact route runs the dict kernel
    calls = count_applications(monkeypatch)
    jc_verify(co, degree=degree)
    # the commutator reaches 2 (a 5 x 5 grid of (m, n) residues), the
    # factorization 1 (3 x 3, once per spin component)
    assert calls == {"apply": 18, "apply_poly": 25}


@pytest.mark.parametrize("c1", [CO.c1, math.nan, math.inf])
def test_float_jc_applies_no_operator_per_probe(monkeypatch, c1):
    # every float input, finite or not, rides the batch kernel
    calls = count_applications(monkeypatch)
    jc_verify(dataclasses.replace(CO, c1=c1), degree=30)
    assert calls == {}


def test_float_jc_runs_in_batches_of_bounded_size(monkeypatch):
    # 1000 elements: 40 probes of the commutator's 5 x 5 windows at a time,
    # 111 of the factorization's 3 x 3 ones, the last batch short
    monkeypatch.setattr(opalg, "_BATCH_CELLS", 1000)
    shapes = []
    original = opalg._layout

    def recording(*args):
        layout = original(*args)
        shapes.append(layout.shape)
        return layout

    monkeypatch.setattr(opalg, "_layout", recording)
    for co in (CO, CO_BROKEN):
        rep = jc_verify(co, degree=30)
        got = (rep.commutator_residual, rep.factorization_residual)
        want = one_application_per_probe_report(co, 30)
        assert [x.hex() for x in got] == [x.hex() for x in want]
    assert sorted({p for _, _, p in shapes}) == [16, 40, 52, 111]
    assert all(wm * wn * p <= 1000 for wm, wn, p in shapes)


def test_a_budget_below_one_monomial_window_raises(monkeypatch):
    # the factorization's windows are 3 x 3: no probe may be left out
    monkeypatch.setattr(opalg, "_BATCH_CELLS", 8)
    with pytest.raises(ValueError, match="exceeds the batch budget"):
        jc_verify(CO, degree=4)


def test_exact_jc_with_coefficients_beyond_the_float_range():
    # hbar = 1e300 puts coefficients of both defect operators past 1.8e308;
    # the exact route never converts one to a float
    params = dataclasses.replace(
        EXACT_BASE, hbar=Fraction(10) ** 300, k1=Fraction(1, 50) / 10**100,
        b0=Fraction(100) / 10**100,
    )
    co = derive_coeffs(params)
    comm, fact, _ = opalg._ladder_defects(co)
    with pytest.raises(OverflowError):
        [complex(t.coeff) for t in comm.terms + fact.terms]
    rep = jc_verify(co, degree=12)
    assert (rep.commutator_residual, rep.factorization_residual) == (0.0, 0.0)


@pytest.mark.parametrize("valley", list(Valley))
def test_build_refuses_an_overflowing_float_coefficient(valley):
    # b hbar = 3.74e308 from finite b and hbar, named whichever valley
    # reads it; a nan coefficient is no overflow and still builds
    co = dataclasses.replace(CO, hbar=1e308)
    with pytest.raises(ValueError, match=r"^Hamiltonian coefficient b hbar overflows: "
                       r"b = 3\.74, hbar = 1e\+308$"):
        build_hamiltonian(co, valley)
    build_hamiltonian(dataclasses.replace(co, hbar=math.nan, c1=math.nan), valley)
    # exact coefficients past the float range stay exact
    exact = dataclasses.replace(derive_coeffs(EXACT_BASE), hbar=Fraction(10) ** 400)
    h = build_hamiltonian(exact, valley)
    assert h.is_exact()


def log_uniform_params(rng):
    def mag(lo, hi):
        return 10 ** rng.uniform(lo, hi)

    return PhysParams(
        v_f=mag(-3, 3), lam=rng.uniform(-3, 3) * mag(-2, 2),
        k1=rng.choice((-1, 1)) * mag(-4, 2), b0=rng.choice((-1, 1)) * mag(-3, 3),
        hbar=mag(-3, 3),
    )


@pytest.mark.parametrize("seed", range(6))
def test_float_jc_reports_are_bit_identical_to_one_application_per_probe(seed):
    rng = random.Random(seed)
    for _ in range(4):
        co = derive_coeffs(log_uniform_params(rng))
        rep = jc_verify(co, degree=30)
        got = (rep.commutator_residual, rep.factorization_residual)
        want = one_application_per_probe_report(co, 30)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_float_jc_keeps_its_overflow_errors_and_its_nans():
    with pytest.raises(OverflowError) as caught:
        jc_verify(derive_coeffs(SUBNORMAL_K))
    assert str(caught.value) == (
        "ladder normalization 1/k_coef overflows at k_coef = -9.45014e-319"
    )
    co = derive_coeffs(HUGE_ENVELOPE)
    with pytest.raises(OverflowError) as caught:
        jc_verify(co)
    assert str(caught.value) == (
        "ladder residual overflows at envelope exponent -1.8248175182481752e+199"
    )
    # the batch kernel's verdict is the dict kernel's: the images overflow
    assert not all(map(math.isfinite, one_application_per_probe_report(co, 30)))
    for c1 in (math.nan, math.inf):
        co = dataclasses.replace(CO, c1=c1)
        rep = jc_verify(co, degree=30)
        want = one_application_per_probe_report(co, 30)
        assert repr((rep.commutator_residual, rep.factorization_residual)) == repr(want)
        assert math.isnan(rep.commutator_residual) and math.isnan(rep.factorization_residual)


def complex_rational_residuals(comm, fact, d, degree):
    """The exact residuals on ComplexRational probes, one application per
    residue class: the route the int route replaced."""
    probes = [(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)]
    zero = WeightedPolynomial.zero(d)
    comm_res, fact_res = [0.0], [0.0]
    for group in residue_groups(comm, probes):
        total = WeightedPolynomial(dict.fromkeys(group, ONE), d)
        comm_res.append(comm.apply_poly(total).max_abs_coeff())
    for group in residue_groups(fact, probes):
        total = WeightedPolynomial(dict.fromkeys(group, ONE), d)
        for s in (SpinorFunction(total, zero), SpinorFunction(zero, total)):
            fact_res.append(fact.apply(s).max_abs_coeff())
    return max(comm_res), max(fact_res)


def broken_defects(rng, comm, fact):
    """comm and fact each plus one term whose coefficient has a nonzero real
    and imaginary part, a word of length at most 2 and, in fact, a random
    spin matrix: both int parts are nonempty and the residuals nonzero."""
    def extra(matrix):
        coeff = ComplexRational(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6)),
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**6)),
        )
        word = [rng.choice(list(Prim)) for _ in range(rng.randint(0, 2))]
        return OperatorExpr.from_word(coeff, matrix, word)

    spin = tuple(tuple(rng.choice((0, 1, -1)) for _ in range(2)) for _ in range(2))
    return comm + extra(((1, 0), (0, 1))), fact + extra(spin)


def exact_draw(rng):
    """Exact parameters in the ranges of the benchmark's exact draws."""
    vf = Fraction(rng.randint(100, 200), 100)
    return dataclasses.replace(
        EXACT_BASE, v_f=vf, lam=vf * Fraction(rng.randint(0, 80), 100),
        k1=Fraction(rng.randint(5, 50), 1000), b0=Fraction(rng.randint(20, 200)),
    )


def wide_envelope(rng, sign):
    """An envelope exponent whose denominator is drawn above 10^9."""
    return Fraction(sign * rng.randint(1, 10**15), rng.randint(10**9, 10**12))


ENVELOPES = {
    "own": lambda rng, d: d,
    "zero": lambda rng, d: Fraction(0),
    "negative_wide": lambda rng, d: wide_envelope(rng, -1),
    "positive_wide": lambda rng, d: wide_envelope(rng, 1),
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    envelope=st.sampled_from(sorted(ENVELOPES)),
    broken=st.booleans(),
    degree=st.integers(2, 8),
)
@example(seed=0, envelope="zero", broken=True, degree=5)
@example(seed=1, envelope="negative_wide", broken=True, degree=8)
@example(seed=2, envelope="own", broken=False, degree=8)
def test_int_route_residuals_are_bit_identical_to_complex_rational_probes(
    seed, envelope, broken, degree
):
    rng = random.Random(seed)
    comm, fact, d = opalg._ladder_defects(derive_coeffs(exact_draw(rng)))
    d = ENVELOPES[envelope](rng, d)
    if broken:
        comm, fact = broken_defects(rng, comm, fact)
    rep = opalg._ladder_residuals(comm, fact, d, degree)
    got = (rep.commutator_residual, rep.factorization_residual)
    want = complex_rational_residuals(comm, fact, d, degree)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert (got == (0.0, 0.0)) is not broken


def test_int_route_applies_both_parts_of_a_mixed_operator(monkeypatch):
    comm, fact, d = opalg._ladder_defects(derive_coeffs(EXACT_BASE))
    comm, fact = broken_defects(random.Random(3), comm, fact)
    want = complex_rational_residuals(comm, fact, d, 8)
    calls = count_applications(monkeypatch)
    rep = opalg._ladder_residuals(comm, fact, d, 8)
    got = (rep.commutator_residual, rep.factorization_residual)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert min(got) > 0.0
    # each class once for the real and once for the imaginary part
    probes = [(m, n) for m in range(9) for n in range(9 - m)]
    assert calls == {"apply_poly": 2 * len(residue_groups(comm, probes)),
                     "apply": 4 * len(residue_groups(fact, probes))}


@pytest.mark.parametrize("degree", [2, 7, 20])
def test_exact_jc_residuals_are_literal_zeros(degree):
    rep = jc_verify(derive_coeffs(EXACT_BASE), degree=degree)
    assert (rep.commutator_residual, rep.factorization_residual) == (0.0, 0.0)


_FRACTION_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__bool__",
)


def test_exact_jc_runs_no_fraction_operation_per_coefficient(monkeypatch):
    # The probes carry ComplexRational ONE and the steps test the envelope
    # once each, so the Fraction operations left are the operators' own
    # construction and one truth test per step: as many at degree 20 as at
    # degree 8, while the probes go from 45 to 231.
    calls = Counter()
    for name in _FRACTION_DUNDERS:
        original = getattr(Fraction, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counting)
    co = derive_coeffs(EXACT_BASE)
    totals = []
    for degree in (8, 20):
        calls.clear()
        rep = jc_verify(co, degree=degree)
        assert (rep.commutator_residual, rep.factorization_residual) == (0.0, 0.0)
        totals.append(sum(calls.values()))
    assert totals[0] == totals[1] > 0


EXACT_CO = derive_coeffs(EXACT_BASE)
EXACT_PROBES = [
    SpinorFunction(*(
        (WeightedPolynomial({key: ONE}, EXACT_CO.d1_branch_i),
         WeightedPolynomial.zero(EXACT_CO.d1_branch_i))[::step]
    ))
    for key in [(0, 0), (1, 0), (2, 1), (0, 3)]
    for step in (1, -1)
]


@pytest.mark.parametrize("valley", list(Valley))
def test_pt_commutator_residuals_apply_h_once_per_probe(monkeypatch, valley):
    # exact probes take the dict kernel
    h = build_hamiltonian(EXACT_CO, valley)
    ops = (P1T, P2T)
    want = [pt_commutator_residual(h, op, EXACT_PROBES) for op in ops]
    calls = count_applications(monkeypatch)
    got = pt_commutator_residuals(h, ops, EXACT_PROBES)
    assert got == want == [0.0, 0.0]
    # H s once per probe, and (op H op^-1) s once per probe and operator
    assert calls == {"apply": (1 + len(ops)) * len(EXACT_PROBES)}
    with pytest.raises(ValueError, match="at least one probe"):
        pt_commutator_residuals(h, ops, [])


@pytest.mark.parametrize("valley", list(Valley))
def test_float_probe_residuals_apply_no_operator_per_probe(monkeypatch, valley):
    # float probes at one envelope exponent ride one batch-kernel run
    h = build_hamiltonian(CO, valley)
    calls = count_applications(monkeypatch)
    pt_commutator_residuals(h, (P1T, P2T), PROBES)
    operator_residual_on_probes(time_reversal_conjugate(h), h, PROBES)
    assert calls == {}
