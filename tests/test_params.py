"""Oracle and property tests for the derived-coefficient layer.

Frozen numbers below were computed by hand from the defining expressions
(digit arithmetic on the printed parameter values), not by running the
code under test.
"""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ptdirac.params import (
    Branch,
    DegenerateCoefficientsError,
    PhaseVerdict,
    PhysParams,
    Vary,
    classify_phase,
    critical_point,
    default_critical_tol,
    derive_coeffs,
    level_energy,
    mass_gap,
    normalizability,
    with_varied,
)
from ptdirac.spectral import build_truncated

from edge_points import SUBNORMAL, exact_k

# reference parameter point used throughout: vf = 1.37, k1 = 0.02, b0 = 100
BASE = PhysParams(v_f=1.37, lam=0.5, k1=0.02, b0=100.0)
BASE_L0 = dataclasses.replace(BASE, lam=0.0)

# lambda_c is small here, so c1 and c2 cancel internally
C1_CANCELS = PhysParams(
    v_f=0.8180723703928774, lam=0.026077848138812317, k1=0.04750887723521491,
    b0=13.030673549437026, hbar=4.164772326468675,
)

# hand-computed oracles at the reference point
K_AT_L0 = 2.589848            # 2*1.8769*100/137 - 0.08*1.8769
K_AT_L05 = 2.2248845          # a*c2 - b*c1 with the values below
C1_AT_L05 = -0.2901182481751825
C2_AT_L05 = 0.6550817518248175
K_AT_L18 = -2.140079          # lam = 1.8, same b0
E0_AT_L0 = 1.6093005          # sqrt(2.589848)
E0_AT_L05 = 1.4916047         # sqrt(2.2248845)
LAMBDA_C = 1.3319332          # 1.37*sqrt(1 - 0.0548)
B0_C_AT_L05 = 6.3220923       # 0.04*1.8769*137/1.6269
B0_C_AT_L0 = 5.48             # 0.04*137, the vf**2 cancels
D1_AT_L0 = -0.1724818         # c1/(2*vf) = 1.37*(0.02 - 100/274)/2.74
LAMBDA_STAR = 1.294924        # c1 = 0: vf - 0.0274*2.74

TIGHT = 1e-12
FROZEN = 1e-6


def test_k_coef_frozen_values():
    assert abs(derive_coeffs(BASE_L0).k_coef - K_AT_L0) < TIGHT
    co = derive_coeffs(BASE)
    assert abs(co.c1 - C1_AT_L05) < TIGHT
    assert abs(co.c2 - C2_AT_L05) < TIGHT
    assert abs(co.k_coef - K_AT_L05) < FROZEN
    co18 = derive_coeffs(dataclasses.replace(BASE, lam=1.8))
    assert abs(co18.k_coef - K_AT_L18) < 1e-5
    assert co18.k_coef < 0


def test_c2_is_minus_c1_without_coupling():
    co = derive_coeffs(BASE_L0)
    assert co.c2 == -co.c1


def test_d1_frozen_value():
    co = derive_coeffs(BASE_L0)
    assert abs(co.d1_branch_i - D1_AT_L0) < FROZEN
    assert normalizability(BASE_L0, Branch.I)


def test_level_energy_frozen_values():
    plus, minus = level_energy(BASE_L0, 0, Branch.I)
    assert abs(plus - E0_AT_L0) < FROZEN
    assert minus == -plus
    plus, _ = level_energy(BASE, 0, Branch.I)
    assert abs(plus - E0_AT_L05) < FROZEN
    assert mass_gap(BASE) == level_energy(BASE, 0, Branch.I)[0]


def test_level_energy_square_identity():
    for p in (BASE, BASE_L0, dataclasses.replace(BASE, lam=1.8)):
        k = derive_coeffs(p).k_coef
        for n in range(51):
            for branch, sign in ((Branch.I, 1), (Branch.II, -1)):
                plus, minus = level_energy(p, n, branch)
                target = sign * (n + 1) * k
                assert abs(plus * plus - target) <= 1e-12 * max(1.0, abs(target))
                assert minus == -plus


def test_branch_ii_mirrors_branch_i():
    for n in range(8):
        plus_i, _ = level_energy(BASE, n, Branch.I)
        plus_ii, _ = level_energy(BASE, n, Branch.II)
        # k > 0 here: branch I real, branch II purely imaginary, same size
        assert plus_i.imag == 0.0
        assert plus_ii.real == 0.0
        assert abs(abs(plus_ii.imag) - plus_i.real) < TIGHT


def test_level_energy_rejects_bad_levels():
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError):
            level_energy(BASE, bad, Branch.I)


def test_k_identity_manual_draws():
    # k must equal hbar*(2*(vf**2 - lam**2)*b0*e/c - 4*k1*vf**2)
    rng = random.Random(20240817)
    for _ in range(10_000):
        p = PhysParams(
            v_f=rng.uniform(0.1, 3.0),
            lam=rng.uniform(-2.0, 2.0),
            k1=rng.uniform(-1.0, 1.0),
            b0=rng.uniform(0.1, 200.0),
        )
        k = derive_coeffs(p).k_coef
        direct = p.hbar * (
            2 * (p.v_f**2 - p.lam**2) * p.b0 * p.e / p.c - 4 * p.k1 * p.v_f**2
        )
        assert abs(k - direct) <= 1e-10 * max(1.0, abs(direct))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    vf=st.floats(0.1, 3.0),
    lam=st.floats(-2.0, 2.0),
    k1=st.floats(-1.0, 1.0),
    b0=st.floats(0.1, 200.0),
)
def test_k_identity_property(vf, lam, k1, b0):
    p = PhysParams(v_f=vf, lam=lam, k1=k1, b0=b0)
    k = derive_coeffs(p).k_coef
    direct = p.hbar * (2 * (vf**2 - lam**2) * b0 * p.e / p.c - 4 * k1 * vf**2)
    assert abs(k - direct) <= 1e-10 * max(1.0, abs(direct))


def test_critical_point_lambda_frozen():
    val = critical_point(BASE, Vary.LAMBDA)
    assert abs(val - LAMBDA_C) < FROZEN
    # the boundary cannot depend on where lam currently sits
    assert critical_point(BASE_L0, Vary.LAMBDA) == val


def test_critical_point_b0_frozen():
    assert abs(critical_point(BASE, Vary.B0) - B0_C_AT_L05) < FROZEN
    val = critical_point(BASE_L0, Vary.B0)
    assert abs(val - B0_C_AT_L0) <= 1e-12 * B0_C_AT_L0


def test_critical_point_k1_zero_is_vf_exactly():
    p = dataclasses.replace(BASE, k1=0.0)
    assert critical_point(p, Vary.LAMBDA) == p.v_f


def test_critical_point_lambda_none_when_field_too_weak():
    p = dataclasses.replace(BASE, b0=1.0)
    assert critical_point(p, Vary.LAMBDA) is None


def test_critical_point_lambda_rejects_nonpositive_drive():
    with pytest.raises(ValueError):
        critical_point(dataclasses.replace(BASE, b0=-1.0), Vary.LAMBDA)
    with pytest.raises(ValueError):
        critical_point(dataclasses.replace(BASE, b0=0.0), Vary.LAMBDA)


def test_critical_point_b0_degenerate():
    with pytest.raises(DegenerateCoefficientsError):
        critical_point(dataclasses.replace(BASE, lam=1.37), Vary.B0)


def test_classify_phase_at_reference():
    assert classify_phase(BASE, Branch.I) is PhaseVerdict.UNBROKEN
    assert classify_phase(BASE, Branch.II) is PhaseVerdict.BROKEN
    p = dataclasses.replace(BASE, lam=1.8)
    assert classify_phase(p, Branch.I) is PhaseVerdict.BROKEN
    assert classify_phase(p, Branch.II) is PhaseVerdict.UNBROKEN


def test_classify_phase_critical_at_boundary():
    lam_c = critical_point(BASE, Vary.LAMBDA)
    p = dataclasses.replace(BASE, lam=lam_c)
    # the default band absorbs the float round-off of the boundary value
    assert abs(derive_coeffs(p).k_coef) <= default_critical_tol(p)
    assert classify_phase(p, Branch.I) is PhaseVerdict.CRITICAL
    assert classify_phase(p, Branch.II) is PhaseVerdict.CRITICAL


def test_derive_coeffs_rejects_non_finite_coefficients():
    # finite inputs whose products overflow: c1 comes out inf here and k
    # would be nan
    huge = PhysParams(v_f=1e300, lam=1e300, k1=1e300, b0=1e300)
    with pytest.raises(ValueError, match="overflow floating point"):
        derive_coeffs(huge)
    with pytest.raises(ValueError, match="overflow floating point"):
        derive_coeffs(PhysParams(v_f=1e200, lam=0.5, k1=1e200, b0=1e200))


def test_critical_band_rejects_an_overflowing_scale():
    # at the EP a c2 and b c1 are both about 1.15e308, so every coefficient
    # and k_coef stay finite, but k_scale, at least |a c2| + |b c1|, does not
    p = PhysParams(v_f=1.2e154, lam=4.8e153, k1=1.0, b0=326.1904761904762)
    co = derive_coeffs(p)
    assert abs(co.a_coef * co.c2) > 1e308 and abs(co.b_coef * co.c1) > 1e308
    assert co.k_scale == float("inf")
    with pytest.raises(ValueError, match="overflows floating point"):
        default_critical_tol(p)
    with pytest.raises(ValueError, match="overflows floating point"):
        classify_phase(p, Branch.I)


def _near_critical_draws(count, seed):
    """Points within 1e-16 .. 1e-8 relative of a critical lambda or b0.

    Half the lambda_c sit below 1e-2 v_f, where c1 and c2 cancel internally.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v_f, hbar = 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-2, 2)
        k1 = 10 ** rng.uniform(-4, 2)
        b0 = 2 * k1 * 137.0 / (1 - 10 ** rng.uniform(-8, -0.01))
        p = PhysParams(v_f=v_f, lam=v_f * rng.uniform(-0.95, 0.95), k1=k1, b0=b0,
                       hbar=hbar)
        vary = rng.choice(list(Vary))
        x = critical_point(p, vary)
        offset = rng.uniform(-1, 1) * 10 ** rng.uniform(-16, -8)
        out.append(with_varied(p, vary, x * (1 + offset)))
    return out


def test_k_scale_bounds_the_roundoff_of_k_coef():
    # each rounding on the way to k_coef is at most eps k_scale; the build
    # floor allows 8 of them per level (measured worst: 0.98)
    eps = sys.float_info.epsilon
    for p in _near_critical_draws(2000, 22) + [C1_CANCELS]:
        co = derive_coeffs(p)
        error = abs(Fraction(co.k_coef) - exact_k(p))
        assert error <= 8 * eps * Fraction(co.k_scale), p


def test_k_scale_is_the_same_in_both_valleys():
    # the last two points are subnormal, where k_scale carries the grid's
    # reach; at the second, |a hbar| (|b hbar| + |b|) and |b hbar| (|a hbar|
    # + |a|) round apart, so a grid term that is not symmetric shows there
    subnormal = [
        SUBNORMAL,
        PhysParams(v_f=6.335793, lam=-4.656229, k1=1.70948e-314, b0=1.49639e-310,
                   hbar=0.867238),
    ]
    for p in [BASE, BASE_L0, C1_CANCELS, dataclasses.replace(BASE, lam=1.8, k1=-0.3),
              *subnormal]:
        co = derive_coeffs(p)
        q = dataclasses.replace(p, lam=-p.lam, k1=-p.k1, b0=-p.b0)
        assert co.swapped().k_scale == derive_coeffs(q).k_scale == co.k_scale


def test_critical_band_is_the_build_floor_per_level():
    # one count of roundings says whether k is zero: the band is the build
    # floor's 8 eps k_scale per level, bit for bit, on either side of
    # |lam| = v_f (a division by n_tr is exact only for a power of two)
    rng = random.Random(23)
    beyond = [
        dataclasses.replace(p, lam=p.v_f * rng.choice((-1, 1)) * rng.uniform(1.05, 3))
        for p in _near_critical_draws(200, 24)
    ]
    for p in _near_critical_draws(200, 23) + beyond + [BASE, C1_CANCELS]:
        band = default_critical_tol(p)
        assert band == 8 * sys.float_info.epsilon * derive_coeffs(p).k_scale, p
        for n_tr in (2, 3, 12):
            assert band * n_tr == build_truncated(derive_coeffs(p), n_tr).build_floor, p


def test_verdict_flips_across_lambda_boundary():
    rng = random.Random(11)
    found = 0
    while found < 100:
        vf = rng.uniform(0.5, 2.5)
        k1 = rng.uniform(0.005, 0.3)
        b0 = rng.uniform(1.0, 200.0)
        if b0 <= 2 * k1 * 137.0 * 1.2:
            continue
        p = PhysParams(v_f=vf, lam=0.0, k1=k1, b0=b0)
        lam_c = critical_point(p, Vary.LAMBDA)
        assert lam_c is not None
        below = dataclasses.replace(p, lam=0.8 * lam_c)
        above = dataclasses.replace(p, lam=1.2 * lam_c)
        assert classify_phase(below, Branch.I) is PhaseVerdict.UNBROKEN
        assert classify_phase(above, Branch.I) is PhaseVerdict.BROKEN
        found += 1


def test_verdict_flips_across_b0_boundary():
    rng = random.Random(12)
    for _ in range(100):
        vf = rng.uniform(0.6, 2.5)
        lam = rng.uniform(0.0, 0.8 * vf)
        k1 = rng.uniform(0.005, 0.3)
        p = PhysParams(v_f=vf, lam=lam, k1=k1, b0=50.0)
        b0_c = critical_point(p, Vary.B0)
        assert b0_c > 0
        low = dataclasses.replace(p, b0=0.8 * b0_c)
        high = dataclasses.replace(p, b0=1.2 * b0_c)
        assert classify_phase(low, Branch.I) is PhaseVerdict.BROKEN
        assert classify_phase(high, Branch.I) is PhaseVerdict.UNBROKEN
        assert classify_phase(low, Branch.II) is PhaseVerdict.UNBROKEN
        assert classify_phase(high, Branch.II) is PhaseVerdict.BROKEN


def test_verdicts_are_complementary():
    rng = random.Random(13)
    for _ in range(200):
        p = PhysParams(
            v_f=rng.uniform(0.1, 3.0),
            lam=rng.uniform(-2.0, 2.0),
            k1=rng.uniform(-1.0, 1.0),
            b0=rng.uniform(0.1, 200.0),
        )
        v1 = classify_phase(p, Branch.I)
        v2 = classify_phase(p, Branch.II)
        if v1 is PhaseVerdict.CRITICAL:
            assert v2 is PhaseVerdict.CRITICAL
        else:
            assert {v1, v2} == {PhaseVerdict.UNBROKEN, PhaseVerdict.BROKEN}


def test_gap_grows_with_field_above_boundary():
    gaps = []
    for b0 in (10.0, 50.0, 100.0, 200.0):
        p = dataclasses.replace(BASE, b0=b0)
        gap = mass_gap(p)
        assert gap.imag == 0.0
        gaps.append(gap.real)
    assert gaps == sorted(gaps)
    assert gaps[0] > 0


def test_gap_criterion_bracket_endpoints():
    # for the reference slice the boundary sits inside [1, 20]
    assert classify_phase(dataclasses.replace(BASE, b0=1.0), Branch.I) \
        is PhaseVerdict.BROKEN
    assert classify_phase(dataclasses.replace(BASE, b0=20.0), Branch.I) \
        is PhaseVerdict.UNBROKEN


def test_normalizability_cases():
    assert normalizability(BASE, Branch.I)
    # c1 = 0 exactly when k1 equals the half-field value
    p = PhysParams(v_f=1.37, lam=0.0, k1=100.0 / 274.0, b0=100.0)
    assert derive_coeffs(p).c1 == 0.0
    assert not normalizability(p, Branch.I)
    with pytest.raises(DegenerateCoefficientsError):
        normalizability(dataclasses.replace(BASE, lam=1.37), Branch.I)


def test_normalizability_flip_tracks_c1_sign():
    lo = dataclasses.replace(BASE, lam=LAMBDA_STAR - 1e-3)
    hi = dataclasses.replace(BASE, lam=LAMBDA_STAR + 1e-3)
    assert normalizability(lo, Branch.I) != normalizability(hi, Branch.I)
    # both sides still sit below the spectral boundary
    assert classify_phase(lo, Branch.I) is PhaseVerdict.UNBROKEN
    assert classify_phase(hi, Branch.I) is PhaseVerdict.UNBROKEN


def test_physparams_validation():
    with pytest.raises(ValueError):
        PhysParams(v_f=0.0, lam=0.1, k1=0.1, b0=1.0)
    with pytest.raises(ValueError):
        PhysParams(v_f=-1.0, lam=0.1, k1=0.1, b0=1.0)
    with pytest.raises(ValueError):
        PhysParams(v_f=1.0, lam=float("nan"), k1=0.1, b0=1.0)
    with pytest.raises(ValueError):
        PhysParams(v_f=1.0, lam=0.1, k1=float("inf"), b0=1.0)
    with pytest.raises(ValueError):
        PhysParams(v_f=1.0, lam=0.1, k1=0.1, b0=1.0, e=0.0)
    with pytest.raises(ValueError):
        PhysParams(v_f=1.0, lam=0.1, k1=0.1, b0=1.0, c=-137.0)


def test_exact_fraction_pipeline():
    p = PhysParams(
        v_f=Fraction(137, 100),
        lam=Fraction(1, 2),
        k1=Fraction(1, 50),
        b0=Fraction(100),
        e=Fraction(1),
        c=Fraction(137),
        hbar=Fraction(1),
    )
    co = derive_coeffs(p)
    assert isinstance(co.k_coef, Fraction)
    direct = 2 * (p.v_f**2 - p.lam**2) * p.b0 * p.e / p.c - 4 * p.k1 * p.v_f**2
    assert co.k_coef == direct
    sw = co.swapped()
    assert sw.a_coef == co.b_coef and sw.b_coef == co.a_coef
    assert sw.c1 == co.c2 and sw.c2 == co.c1
    assert sw.k_coef == -co.k_coef
    assert sw.d1_branch_i == co.d1_branch_ii
    assert sw.swapped() == co


def test_relabeled_parameters_match_swapped_coefficients():
    for p in (BASE, BASE_L0, dataclasses.replace(BASE, lam=1.8, k1=-0.3)):
        q = dataclasses.replace(p, lam=-p.lam, k1=-p.k1, b0=-p.b0)
        left = derive_coeffs(q)
        right = derive_coeffs(p).swapped()
        assert left.a_coef == right.a_coef
        assert left.b_coef == right.b_coef
        assert left.c1 == right.c1
        assert left.c2 == right.c2
        assert left.k_coef == right.k_coef
        assert left.d1_branch_i == right.d1_branch_i
        assert left.d1_branch_ii == right.d1_branch_ii


def test_degenerate_envelope_fields():
    co = derive_coeffs(dataclasses.replace(BASE, lam=1.37))
    assert co.a_coef == 0.0
    assert co.d1_branch_i is None
    assert co.d1_branch_ii is not None


def test_with_varied_sets_the_named_field():
    assert with_varied(BASE, Vary.LAMBDA, 0.25) == dataclasses.replace(BASE, lam=0.25)
    assert with_varied(BASE, Vary.B0, 7.0) == dataclasses.replace(BASE, b0=7.0)
