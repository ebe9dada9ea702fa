"""Truncation, eigensolver, classification and bisection tests.

The small frozen matrices and eigenvalues were worked out by hand from the
block action on the level tower.
"""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ptdirac.params import (
    Branch,
    DegenerateCoefficientsError,
    PhaseVerdict,
    PhysParams,
    Valley,
    Vary,
    critical_point,
    derive_coeffs,
    level_energy,
)
from ptdirac import cli, spectral
from ptdirac.opalg import OperatorExpr
from ptdirac.spectral import (
    EigensolveError,
    NoTransitionBracketedError,
    build_truncated,
    check_spectrum_invariance,
    classify_spectrum,
    draw_similarity,
    dump_matrix,
    eigensolve,
    find_exceptional_point,
    parse_matrix,
    phase_verdict_numeric,
    reference_spectrum,
    scramble,
    scrambled_eigensolve,
    signed_level,
)

BASE = PhysParams(v_f=1.37, lam=0.5, k1=0.02, b0=100.0)
BROKEN = dataclasses.replace(BASE, lam=1.8)
CO = derive_coeffs(BASE)
CO_BROKEN = derive_coeffs(BROKEN)

SQRT_K = 1.4916047          # sqrt(2.2248845)
U_ENTRY = -1.74j            # -i * a * hbar, a = 2*(1.37 - 0.5)
L_ENTRY = 1.2786693j        # i * k / (a * hbar) = i * 2.2248845 / 1.74
UII_ENTRY = -0.5948889j     # -i * k / (b * hbar) = -i * 2.2248845 / 3.74
FROZEN = 1e-6


def reference_matrix(co, n_tr, branch, valley):
    """Entry tables restated from the hand derivation, kept separate from
    the builder under test."""
    a = complex(co.a_coef)
    b = complex(co.b_coef)
    k = complex(co.k_coef)
    hb = complex(co.hbar)
    holo = (branch is Branch.I) == (valley is Valley.PRIMARY)
    lead = a if branch is Branch.I else b
    coup = 1j * k / (lead * hb) if branch is Branch.I else -1j * k / (lead * hb)
    m = np.zeros((2 * n_tr, 2 * n_tr), dtype=complex)
    for l in range(n_tr):
        if holo:
            if l >= 1:
                m[2 * (l - 1), 2 * l + 1] = -1j * lead * hb * l
            if l + 1 < n_tr:
                m[2 * (l + 1) + 1, 2 * l] = coup
        else:
            if l + 1 < n_tr:
                m[2 * (l + 1), 2 * l + 1] = coup
            if l >= 1:
                m[2 * (l - 1) + 1, 2 * l] = -1j * lead * hb * l
    return m


@pytest.fixture
def oracle_runs(monkeypatch):
    """A list that grows by one at each scrambled_eigensolve call."""
    runs = []
    original = spectral.scrambled_eigensolve

    def counting(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "scrambled_eigensolve", counting)
    return runs


def test_truncated_matches_reference_entries():
    for co in (CO, CO_BROKEN):
        for branch in (Branch.I, Branch.II):
            for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
                rep = build_truncated(co, 6, branch, valley)
                ref = reference_matrix(co, 6, branch, valley)
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(rep.matrix - ref)) <= 1e-13 * scale
                assert rep.dropped_count == 1


def test_smallest_truncation_structure():
    rep = build_truncated(CO, 2, Branch.I, Valley.PRIMARY)
    nz = np.argwhere(np.abs(rep.matrix) > 1e-12)
    assert {tuple(idx) for idx in nz} == {(0, 3), (3, 0)}
    assert abs(rep.matrix[0, 3] - U_ENTRY) < FROZEN
    assert abs(rep.matrix[3, 0] - L_ENTRY) < FROZEN
    assert rep.dropped_count == 1
    values = np.sort(np.linalg.eigvals(rep.matrix).real)
    assert abs(values[0] + SQRT_K) < FROZEN
    assert abs(values[3] - SQRT_K) < FROZEN
    assert abs(values[1]) < 1e-10 and abs(values[2]) < 1e-10


def test_smallest_truncation_branch_ii():
    rep = build_truncated(CO, 2, Branch.II, Valley.PRIMARY)
    nz = np.argwhere(np.abs(rep.matrix) > 1e-12)
    assert {tuple(idx) for idx in nz} == {(2, 1), (1, 2)}
    assert abs(rep.matrix[2, 1] - UII_ENTRY) < FROZEN
    values = np.sort(np.linalg.eigvals(rep.matrix).imag)
    assert abs(values[0] + SQRT_K) < FROZEN
    assert abs(values[3] - SQRT_K) < FROZEN


def test_truncated_rejects_bad_input():
    with pytest.raises(ValueError):
        build_truncated(CO, 1)
    with pytest.raises(DegenerateCoefficientsError):
        build_truncated(derive_coeffs(dataclasses.replace(BASE, lam=1.37)), 8)


@pytest.mark.parametrize("branch", [Branch.I, Branch.II])
@pytest.mark.parametrize("valley", [Valley.PRIMARY, Valley.TIME_REVERSED])
@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda h: h.scaled(1 + 1e-9), "disagrees with closed-form entries"),
        (
            lambda h: h + (OperatorExpr.mul_z() + OperatorExpr.mul_zbar()).scaled(1e-3),
            "image left the tower pattern",
        ),
    ],
    ids=["scaled", "off-pattern"],
)
def test_truncated_rejects_a_tampered_hamiltonian(
    monkeypatch, branch, valley, tamper, message
):
    original = spectral.build_hamiltonian
    monkeypatch.setattr(
        spectral, "build_hamiltonian", lambda co, v: tamper(original(co, v))
    )
    with pytest.raises(RuntimeError, match=message):
        build_truncated(CO, 6, branch, valley)


def test_retained_levels_are_exact_for_every_size():
    # truncation only adds the two spurious zeros; kept levels never move,
    # so accuracy is already saturated at small sizes
    for n_tr in (10, 20, 40, 80):
        rep = build_truncated(CO, n_tr)
        result = eigensolve(rep.matrix)
        report = classify_spectrum(result.values, 1e-8, result.residuals)
        assert report.verdict is PhaseVerdict.UNBROKEN
        worst = 0.0
        for n in range(6):
            plus, _ = level_energy(BASE, n, Branch.I)
            num = report.retained_pairs[n][0]
            worst = max(worst, abs(num - plus) / max(1.0, abs(plus)))
        assert worst <= 1e-8


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------


def test_eigensolve_sorting_and_certificates():
    result = eigensolve(np.diag([1.0, 2.0j, -3.0]))
    assert np.allclose(result.values, [-3.0, 2.0j, 1.0], atol=1e-12)
    assert result.residuals.max() <= 1e-12
    flip = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(flip.values, [-1.0, 1.0], atol=1e-12)


def test_eigensolve_rejects_bad_matrices():
    with pytest.raises(ValueError):
        eigensolve(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigensolve(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigensolve(np.array([[np.nan]]))


def test_eigensolve_certificate_failure_carries_partials():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    with pytest.raises(EigensolveError) as info:
        eigensolve(m, tol=0.0)
    assert info.value.values.shape == (5,)
    assert info.value.residuals.shape == (5,)
    assert info.value.residuals.max() > 0.0


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_rejects_empty():
    with pytest.raises(ValueError):
        classify_spectrum([])


def test_classify_real_spectrum_with_edge_discard():
    report = classify_spectrum([0.0, 0.0, 1.0, -1.0, 2.0, -2.0])
    assert report.verdict is PhaseVerdict.UNBROKEN
    assert report.retained_pairs == ((1.0 + 0j, -1.0 + 0j),)
    assert report.n_real == 2
    assert report.n_complex_pairs == 0
    assert report.discarded_edge_levels == 2
    assert report.unpaired == ()


def test_classify_broken_spectrum():
    report = classify_spectrum([1j, -1j, 2j, -2j, 3j, -3j])
    assert report.verdict is PhaseVerdict.BROKEN
    assert report.discarded_edge_levels == 1
    assert [p[0].imag for p in report.retained_pairs] == [1.0, 2.0]
    assert all(p[0].imag > 0 for p in report.retained_pairs)
    assert all(abs(p[0] + p[1]) < 1e-12 for p in report.retained_pairs)


def test_classify_all_zero_is_critical():
    report = classify_spectrum([0.0, 0.0, 0.0, 0.0])
    assert report.verdict is PhaseVerdict.CRITICAL
    assert report.retained_pairs == ()
    assert report.discarded_edge_levels == 2
    odd = classify_spectrum([0.0, -0.0, 0.0, 0.0, -0.0])
    assert odd.verdict is PhaseVerdict.CRITICAL
    assert odd.retained_pairs == ()
    assert odd.pairs == ((0j, 0j), (0j, 0j))
    assert odd.unpaired == (0j,)
    assert odd.discarded_edge_levels == 2


def test_classify_leftover_is_reported_not_fatal():
    report = classify_spectrum([1.0, -1.0, 0.5])
    assert report.unpaired == (0.5 + 0j,)
    assert report.verdict is PhaseVerdict.UNBROKEN


def test_classify_near_zero_pair_discarded():
    report = classify_spectrum([1e-12, -1e-12, 1.0, -1.0])
    assert report.verdict is PhaseVerdict.UNBROKEN
    assert report.discarded_edge_levels == 1
    assert report.retained_pairs == ((1.0 + 0j, -1.0 + 0j),)


def test_classify_unpairable_everything_is_critical():
    report = classify_spectrum([1.0, 2.0])
    assert report.verdict is PhaseVerdict.CRITICAL
    assert len(report.unpaired) == 2


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
def test_classify_rejects_non_finite_or_negative_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        classify_spectrum([1.0, -1.0], tol)


def test_classify_validates_residuals():
    with pytest.raises(ValueError):
        classify_spectrum([1.0, -1.0], residuals=[0.0])
    report = classify_spectrum([1.0, -1.0], residuals=[1e-12, 2e-12])
    assert report.max_residual == 2e-12


# ---------------------------------------------------------------------------
# scrambling
# ---------------------------------------------------------------------------


def test_scramble_preserves_spectrum_and_fills_matrix():
    rep = build_truncated(CO, 20)
    mixed = scramble(rep, draw_similarity(40, seed=5))
    assert mixed.shape == rep.matrix.shape
    before = np.sort_complex(np.linalg.eigvals(rep.matrix))
    after = np.sort_complex(np.linalg.eigvals(mixed))
    spread = max(1.0, float(np.max(np.abs(before))))
    assert float(np.max(np.abs(before - after))) <= 1e-9 * spread
    scale = float(np.max(np.abs(mixed)))
    density = float(np.mean(np.abs(mixed) > 1e-12 * scale))
    assert density >= 0.9


def test_scramble_seeds_differ():
    rep = build_truncated(CO, 6)
    a = scramble(rep, draw_similarity(12, seed=1))
    b = scramble(rep, draw_similarity(12, seed=2))
    assert not np.allclose(a, b)
    assert np.array_equal(scramble(rep, draw_similarity(12, seed=1)), a)


# ---------------------------------------------------------------------------
# block reference spectrum and the invariance check
# ---------------------------------------------------------------------------

NEAR_EP = dataclasses.replace(
    BASE, lam=critical_point(BASE, Vary.LAMBDA) * (1.0 - 1e-6)
)


def nearest_neighbour_drift(before, after):
    unmatched = np.asarray(after, dtype=complex)
    drift = 0.0
    for value in sorted(before, key=abs, reverse=True):
        idx = int(np.argmin(np.abs(unmatched - value)))
        drift = max(drift, float(abs(unmatched[idx] - value)))
        unmatched = np.delete(unmatched, idx)
    return drift


@pytest.mark.parametrize("p", [BASE, BROKEN, NEAR_EP], ids=["unbroken", "broken", "near_ep"])
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("valley", list(Valley))
def test_reference_spectrum_matches_dense_eig(p, branch, valley):
    rep = build_truncated(derive_coeffs(p), 30, branch, valley)
    values, cond_v = reference_spectrum(rep)
    dense, vectors = np.linalg.eig(rep.matrix)
    spread = max(1.0, float(np.max(np.abs(dense))))
    assert values.shape == dense.shape
    assert nearest_neighbour_drift(dense, values) <= 1e-12 * spread
    dense_cond = float(np.linalg.cond(vectors))
    assert dense_cond / 1.01 <= cond_v <= dense_cond * 1.01


def test_reference_spectrum_rejects_off_pattern_entry():
    rep = build_truncated(CO, 10)
    reference_spectrum(rep)
    tampered = rep.matrix.copy()
    tampered[0, 1] = 1e-300
    with pytest.raises(RuntimeError, match="outside the 2x2 tower blocks"):
        reference_spectrum(dataclasses.replace(rep, matrix=tampered))
    scrambled = scramble(rep, draw_similarity(20, seed=1))
    with pytest.raises(RuntimeError):
        reference_spectrum(dataclasses.replace(rep, matrix=scrambled))


def test_invariance_check_fires_past_the_budget():
    rep = build_truncated(CO, 20)
    similarity = draw_similarity(40, seed=4)
    values = eigensolve(scramble(rep, similarity)).values
    check_spectrum_invariance(rep, values, similarity.cond)
    spread = float(np.max(np.abs(values)))
    bumped = values.copy()
    bumped[0] += 1e-7 * spread
    with pytest.raises(RuntimeError, match="drifted the spectrum"):
        check_spectrum_invariance(rep, bumped, similarity.cond)


def _delete_loop_drift(before, after):
    """The matching as first written: np.delete of each matched entry."""
    unmatched = after.copy()
    drift = 0.0
    for value in sorted(before, key=abs, reverse=True):
        idx = int(np.argmin(np.abs(unmatched - value)))
        drift = max(drift, float(abs(unmatched[idx] - value)))
        unmatched = np.delete(unmatched, idx)
    return drift


def _spectra(rng, dim):
    re = rng.standard_normal(dim // 2)
    im = rng.standard_normal(dim // 2)
    return {
        "random": rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        "paired": np.concatenate([re + 1j * im, -(re + 1j * im)]),
        "imaginary": 1j * np.concatenate([im, -im]),
        "duplicated": np.repeat(re[: dim // 4] + 1j * im[: dim // 4], 4),
    }


@pytest.mark.parametrize("dim", [8, 80, 400])
@pytest.mark.parametrize("seed", range(3))
def test_matching_drift_equals_the_delete_loop_bit_for_bit(dim, seed):
    rng = np.random.default_rng(seed)
    for kind, before in _spectra(rng, dim).items():
        for noise in (0.0, 1e-13, 1e-3):
            jitter = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            after = rng.permutation(before + noise * jitter)
            got = spectral._matching_drift(before, after)
            want = _delete_loop_drift(before, after)
            assert got.hex() == want.hex(), (kind, noise)


def test_matching_drift_breaks_ties_toward_the_lowest_index():
    # 2 is as far from 1 as from 3; taking after[0] leaves 3 for 0
    before = np.array([2.0, 0.0], dtype=complex)
    after = np.array([1.0, 3.0], dtype=complex)
    assert spectral._matching_drift(before, after) == 3.0
    assert _delete_loop_drift(before, after) == 3.0
    assert spectral._matching_drift(before, after[::-1].copy()) == 1.0


def test_matching_drift_rejects_non_finite_eigenvalues():
    before = np.array([1.0, -1.0, 2j, -2j])
    for bad in (np.inf, np.nan, complex(0, np.inf)):
        after = before.copy()
        after[1] = bad
        with pytest.raises(RuntimeError, match="not finite"):
            spectral._matching_drift(before, after)
        with pytest.raises(RuntimeError, match="not finite"):
            spectral._matching_drift(after, before)


def test_spectrum_command_and_verdict_both_run_the_invariance_check(
    monkeypatch, tmp_path
):
    calls = []
    original = spectral.check_spectrum_invariance

    def counting(*args, **kwargs):
        calls.append(args[0].n_tr)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "check_spectrum_invariance", counting)
    out = tmp_path / "spectrum.txt"
    assert cli.main(["spectrum", "--n_tr", "12", "--output", str(out)]) == 0
    assert calls == [12]
    phase_verdict_numeric(BASE, n_tr=9, seed=2)
    assert calls == [12, 9]


# ---------------------------------------------------------------------------
# sharing the similarity within one command
# ---------------------------------------------------------------------------


def test_bisection_draws_the_similarity_once(monkeypatch):
    calls = []
    original = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    runs = []
    original_run = spectral.scrambled_eigensolve

    def counting_run(*args, **kwargs):
        runs.append(1)
        return original_run(*args, **kwargs)

    monkeypatch.setattr(spectral, "scrambled_eigensolve", counting_run)
    target = critical_point(BASE, Vary.LAMBDA)
    find_exceptional_point(BASE, Vary.LAMBDA, 0.5 * target, 1.5 * target, n_tr=8)
    assert len(runs) >= 3
    assert len(calls) == 2


def test_shared_similarity_is_read_only():
    shared = draw_similarity(12, seed=3)
    assert not shared.matrix.flags.writeable
    with pytest.raises(ValueError):
        shared.matrix[0, 0] = 0.0
    with pytest.raises(ValueError, match="another seed"):
        phase_verdict_numeric(BASE, n_tr=6, seed=4, similarity=shared)
    with pytest.raises(ValueError, match="another dimension"):
        scramble(build_truncated(CO, 5), shared)
    with pytest.raises(ValueError, match="another dimension"):
        phase_verdict_numeric(BASE, n_tr=5, seed=3, similarity=shared)


@pytest.mark.parametrize("p", [BASE, BROKEN])
def test_shared_similarity_gives_bit_equal_eigenvalues(p):
    seed = 7
    shared = draw_similarity(2 * 20, seed)
    rep = build_truncated(derive_coeffs(p), 20)
    fresh = eigensolve(scramble(rep, draw_similarity(2 * 20, seed))).values
    reused = scrambled_eigensolve(rep, shared).values
    assert np.array_equal(fresh, reused)
    assert draw_similarity(2 * 20, seed).cond == shared.cond
    a = phase_verdict_numeric(p, n_tr=20, seed=seed)
    b = phase_verdict_numeric(p, n_tr=20, seed=seed, similarity=shared)
    assert a.eigenvalues == b.eigenvalues


# ---------------------------------------------------------------------------
# drawing S
# ---------------------------------------------------------------------------


def _resampling_draw(dim, seed):
    """The draw as first written: measure cond(S) by SVD, resample above 100."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        q1 = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )[0]
        q2 = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )[0]
        diag = 10.0 ** rng.uniform(-0.25, 0.25, size=dim)
        candidate = q1 @ (diag[:, np.newaxis] * q2)
        if np.linalg.cond(candidate) <= 100.0:
            return candidate
    raise AssertionError("no draw accepted")


@pytest.mark.parametrize("dim", [4, 12, 80, 400])
@pytest.mark.parametrize("seed", range(5))
def test_similarity_cond_from_the_diagonal_matches_the_svd(dim, seed):
    similarity = draw_similarity(dim, seed)
    measured = float(np.linalg.cond(similarity.matrix))
    assert abs(similarity.cond - measured) <= 1e-12 * measured
    assert 1.0 <= similarity.cond <= 10.0 ** 0.5


@pytest.mark.parametrize("dim", [4, 12, 80, 400])
def test_similarity_is_bit_equal_to_the_resampling_draw(dim):
    for seed in range(3):
        similarity = draw_similarity(dim, seed)
        assert similarity.seed == seed
        assert np.array_equal(similarity.matrix, _resampling_draw(dim, seed))


def test_spectrum_command_takes_no_svd_of_a_full_matrix(monkeypatch, tmp_path):
    calls = {"cond": [], "svd": [], "qr": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    out = tmp_path / "spectrum.txt"
    assert cli.main(["spectrum", "--n_tr", "12", "--output", str(out)]) == 0
    assert calls["cond"] == []
    # the only SVD left is the batched one over reference_spectrum's 2x2 blocks
    assert calls["svd"] == [(11, 2, 2)]
    assert calls["qr"] == [(24, 24), (24, 24)]


# ---------------------------------------------------------------------------
# end-to-end verdicts
# ---------------------------------------------------------------------------


def test_numeric_agreement_unbroken():
    report = phase_verdict_numeric(BASE, branch=Branch.I, n_tr=40, seed=3)
    assert report.verdict is PhaseVerdict.UNBROKEN
    for n in range(11):
        plus, _ = level_energy(BASE, n, Branch.I)
        num = report.retained_pairs[n][0]
        assert abs(num - plus) <= 1e-8 * max(1.0, abs(plus))


def test_numeric_agreement_broken():
    report = phase_verdict_numeric(BROKEN, branch=Branch.I, n_tr=40, seed=3)
    assert report.verdict is PhaseVerdict.BROKEN
    for n in range(11):
        plus, _ = level_energy(BROKEN, n, Branch.I)
        num = report.retained_pairs[n][0]
        assert num.imag > 0
        assert abs(num - plus) <= 1e-8 * max(1.0, abs(plus))
        minus = report.retained_pairs[n][1]
        assert abs(minus + num) <= 1e-8 * max(1.0, abs(num))


def test_numeric_agreement_branch_ii_and_valley():
    report = phase_verdict_numeric(
        BASE, branch=Branch.II, valley=Valley.TIME_REVERSED, n_tr=30, seed=9
    )
    assert report.verdict is PhaseVerdict.BROKEN
    for n in range(8):
        plus, _ = level_energy(BASE, n, Branch.II)
        num = report.retained_pairs[n][0]
        assert abs(num - plus) <= 1e-8 * max(1.0, abs(plus))


def test_find_exceptional_point_matches_analytic():
    rng = random.Random(20240818)
    families = []
    for _ in range(10):
        vf = rng.uniform(0.8, 2.0)
        k1 = rng.uniform(0.01, 0.15)
        families.append((PhysParams(v_f=vf, lam=0.0, k1=k1, b0=50.0), Vary.LAMBDA))
    for _ in range(6):
        vf = rng.uniform(0.8, 2.0)
        k1 = rng.uniform(0.01, 0.15)
        lam = rng.uniform(0.0, 0.5 * vf)
        families.append((PhysParams(v_f=vf, lam=lam, k1=k1, b0=50.0), Vary.B0))
    for p, vary in families:
        target = critical_point(p, vary)
        assert target is not None
        found = find_exceptional_point(
            p, vary, 0.5 * target, 1.5 * target, tol=1e-6, n_tr=16
        )
        assert abs(found - target) <= 1e-6 * max(1.0, target)


@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize(
    "lo, hi, root",
    [(0.0, 1.5, 1), (-1.5, -0.5, -1), (-0.75, 1.5, 1), (-1.5, 0.75, -1)],
)
def test_lambda_bracket_lands_on_its_root_in_four_runs(
    oracle_runs, lo, hi, root, branch, valley
):
    lam_c = critical_point(BASE, Vary.LAMBDA)
    for seed in range(4):
        oracle_runs.clear()
        found = find_exceptional_point(
            BASE, Vary.LAMBDA, lo * lam_c, hi * lam_c, tol=1e-6,
            branch=branch, valley=valley, n_tr=16, seed=seed,
        )
        assert abs(found - root * lam_c) <= 1e-6 * max(1.0, lam_c)
        assert len(oracle_runs) <= 4


def test_find_exceptional_point_requires_bracket():
    with pytest.raises(NoTransitionBracketedError) as info:
        find_exceptional_point(BASE, Vary.LAMBDA, 0.1, 0.3, n_tr=8)
    assert "no transition bracketed" in str(info.value)
    with pytest.raises(ValueError):
        find_exceptional_point(BASE, Vary.LAMBDA, 0.3, 0.1, n_tr=8)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-6])
def test_find_exceptional_point_rejects_non_finite_or_negative_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        find_exceptional_point(BASE, Vary.LAMBDA, 1.0, 1.5, tol=tol, n_tr=8)


@pytest.mark.parametrize("tol", [0.5, 2.0])
def test_find_exceptional_point_rejects_tol_not_below_the_bracket(tol):
    with pytest.raises(ValueError, match="below the bracket width"):
        find_exceptional_point(BASE, Vary.LAMBDA, 1.0, 1.5, tol=tol, n_tr=8)


def test_find_exceptional_point_zero_tol_bisects_to_adjacent_floats():
    target = critical_point(BASE, Vary.LAMBDA)
    found = find_exceptional_point(
        BASE, Vary.LAMBDA, 0.5 * target, 1.5 * target, tol=0.0, n_tr=8
    )
    assert abs(found - target) <= 1e-4


def test_bracket_ends_must_agree_with_the_level_sign(monkeypatch):
    original = spectral.signed_level

    def flipped(rep, values, similarity):
        level = original(rep, values, similarity)
        return spectral.SignedLevel(-level.value, level.floor, level.resolved)

    monkeypatch.setattr(spectral, "signed_level", flipped)
    target = critical_point(BASE, Vary.LAMBDA)
    with pytest.raises(NoTransitionBracketedError, match="but level"):
        find_exceptional_point(
            BASE, Vary.LAMBDA, 0.5 * target, 1.5 * target, n_tr=8
        )


@pytest.mark.parametrize("vary", list(Vary))
def test_zero_tol_with_a_zero_floor_ends_at_adjacent_floats(monkeypatch, vary):
    def closed_form_level(rep, values, similarity):
        k = float(rep.coeffs.k_coef)
        return spectral.SignedLevel(k, 0.0, k != 0.0)

    monkeypatch.setattr(spectral, "signed_level", closed_form_level)
    target = critical_point(BASE, vary)
    found = find_exceptional_point(
        BASE, vary, 0.5 * target, 1.5 * target, tol=0.0, n_tr=8
    )
    assert abs(found - target) <= 4 * math.ulp(target)


def _level(p, n_tr, branch, valley, seed):
    rep = build_truncated(derive_coeffs(p), n_tr, branch, valley)
    similarity = draw_similarity(2 * n_tr, seed)
    return signed_level(rep, scrambled_eigensolve(rep, similarity).values, similarity)


@pytest.mark.parametrize("n_tr", [10, 40])
@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize("branch", list(Branch))
def test_signed_level_reads_k_next_to_the_exceptional_point(branch, valley, n_tr):
    lam_c = critical_point(BASE, Vary.LAMBDA)
    for factor in (1 + 1e-12, 1 - 1e-12, 1 + 1e-13):
        p = dataclasses.replace(BASE, lam=lam_c * factor)
        k = derive_coeffs(p).k_coef * (1 if branch is Branch.I else -1)
        assert 4e-13 < abs(k) < 6e-12
        for seed in range(5):
            level = _level(p, n_tr, branch, valley, seed)
            assert abs(level.value - k) <= level.floor
            if level.resolved:
                assert (level.value > 0) == (k > 0)
            # Branch II carries entries near 5.4 * n_tr, so its floor can
            # exceed |k| here; branch I (entries near 0.08 * n_tr) resolves.
            if branch is Branch.I or abs(k) > 2 * level.floor:
                assert level.resolved


NEAR_EP = dataclasses.replace(BASE, lam=1.3319331364)  # k = 2.3e-10


@pytest.mark.parametrize("p", [BASE, BROKEN, NEAR_EP])
@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize("branch", list(Branch))
def test_signed_level_finds_the_level_zero_pair_at_two_levels(p, branch, valley):
    k = derive_coeffs(p).k_coef * (1 if branch is Branch.I else -1)
    for seed in range(3):
        level = _level(p, 2, branch, valley, seed)
        assert level.resolved
        assert abs(level.value - k) <= level.floor


def test_signed_level_rejects_a_wrong_eigenvalue_count():
    rep = build_truncated(CO, 4)
    with pytest.raises(ValueError, match="eigenvalue count"):
        signed_level(rep, np.zeros(6), draw_similarity(8))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("vary, most", [("lambda", 4), ("b0", 5)])
def test_critical_needs_few_oracle_runs(tmp_path, oracle_runs, vary, most, seed):
    out = tmp_path / "critical.txt"
    assert cli.main(["critical", "--vary", vary, "--seed", str(seed),
                     "--output", str(out)]) == 0
    assert 3 <= len(oracle_runs) <= most


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_dump_round_trip():
    m = build_truncated(CO, 5).matrix
    assert np.array_equal(parse_matrix(dump_matrix(m)), m)


def test_parse_matrix_validation():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2\n0.0 0.0\n")
    with pytest.raises(ValueError):
        parse_matrix("1\n0.0\n")


def test_exact_coefficients_build_too():
    co = derive_coeffs(
        PhysParams(
            v_f=Fraction(137, 100),
            lam=Fraction(1, 2),
            k1=Fraction(1, 50),
            b0=Fraction(100),
            e=Fraction(1),
            c=Fraction(137),
            hbar=Fraction(1),
        )
    )
    rep = build_truncated(co, 4)
    ref = reference_matrix(co, 4, Branch.I, Valley.PRIMARY)
    assert np.max(np.abs(rep.matrix - ref)) <= 1e-13 * float(np.max(np.abs(ref)))
