"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test prints a single ``[criterion n] PASS/FAIL`` line with the measured
numbers before asserting, so a verbose run reads as a checklist.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from ptdirac.params import (
    Branch,
    PhaseVerdict,
    PhysParams,
    Valley,
    Vary,
    classify_phase,
    critical_point,
    derive_coeffs,
    level_energy,
    mass_gap,
)
from ptdirac.opalg import (
    P1T,
    P2T,
    analytic_state,
    build_hamiltonian,
    eigen_residual,
    jc_verify,
    level_energy_from_coeffs,
    lll_annihilation_residual,
    lll_state,
    operator_residual_on_probes,
    pt_commutator_residual,
    pt_eigenfactor,
    standard_probes,
    time_reversal_conjugate,
)
from ptdirac.spectral import (
    draw_similarity,
    find_exceptional_point,
    phase_verdict_numeric,
)

REFERENCE = PhysParams(v_f=1.37, lam=0.5, k1=0.02, b0=100.0)
REFERENCE_RATIONAL = PhysParams(
    v_f=Fraction(137, 100), lam=Fraction(1, 2), k1=Fraction(1, 50),
    b0=Fraction(100), e=Fraction(1), c=Fraction(137), hbar=Fraction(1),
)
BROKEN_POINT = replace(REFERENCE, lam=1.8)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _random_draws(seed: int, count: int):
    rng = random.Random(seed)
    draws = []
    while len(draws) < count:
        v_f = rng.uniform(0.5, 2.0)
        lam = rng.uniform(-0.85, 0.85) * v_f
        k1 = rng.uniform(-0.2, 0.2)
        b0 = rng.uniform(1.0, 200.0)
        draws.append(PhysParams(v_f=v_f, lam=lam, k1=k1, b0=b0))
    return draws


def _rational_draw(n: int) -> PhysParams:
    # b0 = (n+2)/2 with unit v_f, c, e makes k_coef = n + 1, so level n has
    # the perfect-square radicand (n+1)**2 on branch I and -(n+1)**2 on II.
    return PhysParams(
        v_f=Fraction(1), lam=Fraction(0), k1=Fraction(1, 4),
        b0=Fraction(n + 2, 2), e=Fraction(1), c=Fraction(1), hbar=Fraction(1),
    )


def test_criterion_1_critical_coupling():
    start = time.perf_counter()
    analytic = critical_point(REFERENCE, Vary.LAMBDA)
    bisected = find_exceptional_point(
        REFERENCE, Vary.LAMBDA, 0.7, 2.0, draw_similarity(40, 0)
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(analytic - 1.33193) <= 1e-4
        and abs(bisected - 1.33193) <= 1e-4
        and elapsed < 5.0
    )
    _report(
        1, ok,
        f"critical coupling {analytic!r} analytic / {bisected!r} bisected, "
        f"target 1.33193 within 1e-4, {elapsed:.2f}s of 5s",
    )


def test_criterion_2_critical_field():
    start = time.perf_counter()
    analytic = critical_point(REFERENCE, Vary.B0)
    bisected = find_exceptional_point(
        REFERENCE, Vary.B0, 3.0, 12.0, draw_similarity(40, 0)
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(analytic - 6.32209) <= 1e-4
        and abs(bisected - 6.32209) <= 1e-4
        and elapsed < 5.0
    )
    _report(
        2, ok,
        f"critical field {analytic!r} analytic / {bisected!r} bisected, "
        f"target 6.32209 within 1e-4, {elapsed:.2f}s of 5s",
    )


def test_criterion_3_analytic_eigenstates():
    start = time.perf_counter()
    worst = 0.0
    for p in _random_draws(20260403, 20):
        co = derive_coeffs(p)
        for valley in Valley:
            h = build_hamiltonian(co, valley)
            for branch in Branch:
                for n in range(11):
                    s = analytic_state(branch, valley, n, co)
                    energy = level_energy_from_coeffs(co, n, branch)
                    worst = max(worst, eigen_residual(h, s, energy))
    exact_worst = 0.0
    for n in range(11):
        co = derive_coeffs(_rational_draw(n))
        for valley in Valley:
            h = build_hamiltonian(co, valley)
            for branch in Branch:
                s = analytic_state(branch, valley, n, co)
                energy = level_energy_from_coeffs(co, n, branch)
                exact_worst = max(exact_worst, eigen_residual(h, s, energy))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and exact_worst == 0.0 and elapsed < 10.0
    _report(
        3, ok,
        f"eigen residual {worst:.2e} float (tol 1e-12), {exact_worst!r} "
        f"rational, n=0..10 x 2 branches x 2 valleys x 20 draws, "
        f"{elapsed:.2f}s of 10s",
    )


def test_criterion_4_pt_structure():
    co = derive_coeffs(REFERENCE)
    probes = standard_probes(float(co.d1_branch_i), max_degree=4, random_count=10)
    factor_err = 0.0
    for n in range(7):
        s = analytic_state(Branch.I, Valley.PRIMARY, n, co)
        f1 = pt_eigenfactor(P1T, s)
        f2 = pt_eigenfactor(P2T, s)
        ok_here = f1 is not None and f2 is not None
        assert ok_here, f"missing eigenfactor at n={n}"
        factor_err = max(
            factor_err, abs(f1 - 1j * (-1) ** n), abs(f2 - (-1))
        )
    broken_absent = all(
        pt_eigenfactor(op, analytic_state(Branch.II, Valley.PRIMARY, n, co))
        is None
        for n in range(7)
        for op in (P1T, P2T)
    )
    comm = max(
        pt_commutator_residual(build_hamiltonian(co, valley), op, probes)
        for valley in Valley
        for op in (P1T, P2T)
    )
    ok = factor_err <= 1e-12 and broken_absent and comm <= 1e-12
    _report(
        4, ok,
        f"eigenfactors i(-1)^n and -1 within {factor_err:.2e}, broken-branch "
        f"factors absent: {broken_absent}, commutator residual {comm:.2e} "
        f"(tol 1e-12, both valleys)",
    )


def test_criterion_5_oracle_agreement():
    start = time.perf_counter()
    level_err = 0.0
    for p, seed in ((REFERENCE, 5), (BROKEN_POINT, 6)):
        report = phase_verdict_numeric(p, draw_similarity(40, seed))
        expected_verdict = (
            PhaseVerdict.UNBROKEN if p is REFERENCE else PhaseVerdict.BROKEN
        )
        assert report.verdict is expected_verdict, report.verdict
        for n in range(11):
            exact = level_energy(p, n, Branch.I)[0]
            got = report.plus_roots[n]
            level_err = max(level_err, abs(got - exact) / abs(exact))
    rng = random.Random(20260819)
    matches = 0
    trials = 0
    while trials < 100:
        v_f = rng.uniform(0.8, 2.0)
        lam = rng.uniform(0.0, 0.85) * v_f
        k1 = rng.uniform(0.01, 0.1)
        b0 = rng.uniform(5.0, 300.0)
        p = PhysParams(v_f=v_f, lam=lam, k1=k1, b0=b0)
        if abs(derive_coeffs(p).k_coef) < 0.05:
            continue
        trials += 1
        numeric = phase_verdict_numeric(p, draw_similarity(16, trials)).verdict
        if numeric is classify_phase(p, Branch.I):
            matches += 1
    elapsed = time.perf_counter() - start
    ok = level_err <= 1e-8 and matches == 100 and elapsed < 60.0
    _report(
        5, ok,
        f"scrambled n_tr=40 levels within {level_err:.2e} (tol 1e-8) in both "
        f"regimes, verdict agreement {matches}/100, {elapsed:.2f}s of 60s",
    )


def test_criterion_6_gap_scaling():
    grid = np.logspace(3.0, 5.0, 9)
    slopes = {}
    for lam in (0.0, 0.5):
        gaps = [
            abs(mass_gap(replace(REFERENCE, lam=lam, b0=float(b)))) for b in grid
        ]
        slopes[lam] = float(
            np.polyfit(np.log10(grid), np.log10(gaps), 1)[0]
        )
    ok = all(abs(s - 0.5) <= 0.01 for s in slopes.values())
    _report(
        6, ok,
        f"log-log gap slope {slopes[0.0]:.5f} (lam=0) and {slopes[0.5]:.5f} "
        f"(lam=0.5), target 0.500 +- 0.01",
    )


def test_criterion_7_special_cases():
    no_spin_coupling = replace(REFERENCE, k1=0.0)
    lam_c = critical_point(no_spin_coupling, Vary.LAMBDA)
    exact_vf = lam_c == no_spin_coupling.v_f

    massless = replace(REFERENCE, lam=0.0)
    b0_c = critical_point(massless, Vary.B0)
    field_ok = abs(b0_c - 5.48) <= 1e-12 * 5.48

    above = replace(massless, b0=10.0)
    below = replace(massless, b0=3.0)
    gap_above = mass_gap(above)
    gap_below = mass_gap(below)
    flip_ok = (
        classify_phase(above, Branch.I) is PhaseVerdict.UNBROKEN
        and classify_phase(below, Branch.I) is PhaseVerdict.BROKEN
        and gap_above.imag == 0.0
        and gap_above.real > 0.0
        and gap_below.real == 0.0
        and gap_below.imag > 0.0
    )
    ok = exact_vf and field_ok and flip_ok
    _report(
        7, ok,
        f"k1=0 critical coupling == v_f exactly: {exact_vf}, lam=0 critical "
        f"field {b0_c!r} vs 5.48, verdict and gap reality flip across it: "
        f"{flip_ok}",
    )


def test_criterion_8_ladder_lll_jc():
    co = derive_coeffs(REFERENCE)
    jc = jc_verify(co, degree=30)
    co_rational = derive_coeffs(REFERENCE_RATIONAL)
    lll_worst = max(
        lll_annihilation_residual(lll_state(l, co_rational), co_rational)
        for l in range(21)
    )
    ok = (
        jc.commutator_residual <= 1e-12
        and jc.factorization_residual <= 1e-12
        and lll_worst == 0.0
    )
    _report(
        8, ok,
        f"pair commutator {jc.commutator_residual:.2e} and factorization "
        f"{jc.factorization_residual:.2e} (tol 1e-12, degree 30), zero-mode "
        f"annihilation {lll_worst!r} for l=0..20 in rational mode",
    )


def test_criterion_9_valley_consistency():
    worst = 0.0
    swaps_ok = True
    for p in _random_draws(20260404, 20):
        co = derive_coeffs(p)
        probes = standard_probes(-0.25, max_degree=3, random_count=30)
        assert len(probes) == 50
        h = build_hamiltonian(co, Valley.PRIMARY)
        h_mirror = build_hamiltonian(co, Valley.TIME_REVERSED)
        worst = max(
            worst,
            operator_residual_on_probes(
                time_reversal_conjugate(h), h_mirror, probes
            ),
        )
        sw = co.swapped()
        for n in range(4):
            swaps_ok = swaps_ok and (
                analytic_state(Branch.I, Valley.TIME_REVERSED, n, co)
                == analytic_state(Branch.II, Valley.PRIMARY, n, sw)
            )
            swaps_ok = swaps_ok and (
                analytic_state(Branch.II, Valley.TIME_REVERSED, n, co)
                == analytic_state(Branch.I, Valley.PRIMARY, n, sw)
            )
    ok = worst <= 1e-12 and swaps_ok
    _report(
        9, ok,
        f"conjugated Hamiltonian vs mirror-valley build residual {worst:.2e} "
        f"on 50 probes x 20 draws (tol 1e-12), coefficient-swap state "
        f"identity: {swaps_ok}",
    )
