"""Truncation, eigensolver, classification and bisection tests.

The small frozen matrices and eigenvalues were worked out by hand from the
block action on the level tower.
"""

import dataclasses
import json
import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ptdirac.params import (
    Branch,
    DegenerateCoefficientsError,
    PhaseVerdict,
    PhysParams,
    Valley,
    Vary,
    classify_phase,
    critical_point,
    derive_coeffs,
    level_energy,
    normalizability,
    with_varied,
)
from ptdirac import cli, opalg, spectral
from ptdirac.opalg import (
    OperatorExpr,
    Prim,
    SpinorFunction,
    WeightedPolynomial,
    analytic_state,
    build_hamiltonian,
    lll_state,
)
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
    Similarity,
    scramble,
    scrambled_eigensolve,
)

from edge_points import (
    GRID_OVERFLOW,
    HUGE_ENVELOPE,
    K_UNDERFLOW,
    LARGE,
    LARGE_FLAGS,
    NEAR_EP as EDGE_NEAR_EP,
    PRODUCT_UNDERFLOW,
    SMALL,
    SMALL_FLAGS,
    SUBNORMAL,
    SUBNORMAL_K,
    exact_k,
    flags,
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
    "tamper, p, n_tr, message",
    [
        (lambda h: h.scaled(1 + 1e-9), BASE, 6, "disagrees with closed-form entries"),
        (
            lambda h: h + (OperatorExpr.mul_z() + OperatorExpr.mul_zbar()).scaled(1e-3),
            BASE, 6, "image left the tower pattern",
        ),
        # a grid formed from |a hbar| + |b hbar| was inf here, and so was
        # every tolerance of both checks
        (lambda h: h.scaled(1 + 1e-9), GRID_OVERFLOW, 2, "disagrees with closed-form entries"),
    ],
    ids=["scaled", "off-pattern", "scaled-grid-overflow"],
)
def test_truncated_rejects_a_tampered_hamiltonian(
    monkeypatch, branch, valley, tamper, p, n_tr, message
):
    original = spectral.build_hamiltonian
    monkeypatch.setattr(
        spectral, "build_hamiltonian", lambda co, v: tamper(original(co, v))
    )
    with pytest.raises(RuntimeError, match=message):
        build_truncated(derive_coeffs(p), n_tr, branch, valley)


def level_images(co, n_tr, branch, valley):
    """H's image of each basis function, one h.apply each: [level][component]."""
    holo = (branch is Branch.I) == (valley is Valley.PRIMARY)
    h = build_hamiltonian(co, valley).to_complex()
    d = float(co.d1(branch))
    zero = WeightedPolynomial.zero(d)
    images = []
    for level in range(n_tr):
        wp = WeightedPolynomial.monomial(*((level, 0) if holo else (0, level)), 1.0, d)
        images.append([h.apply(SpinorFunction(wp, zero)), h.apply(SpinorFunction(zero, wp))])
    return images


def factors_one_level_at_a_time(co, n_tr, branch, valley):
    """a, b and the dropped count from level_images, written as
    build_truncated writes them; off-pattern coefficients are skipped."""
    holo = (branch is Branch.I) == (valley is Valley.PRIMARY)
    a = np.zeros((n_tr, n_tr))
    b = np.zeros((n_tr, n_tr))
    dropped = 0
    for level, pair in enumerate(level_images(co, n_tr, branch, valley)):
        for component, image in enumerate(pair):
            for out, poly in enumerate((image.upper, image.lower)):
                for (m, n), c in poly.sorted_items():
                    exp, off = (m, n) if holo else (n, m)
                    if off:
                        continue
                    if exp >= n_tr:
                        dropped += 1
                    elif out != component:
                        if component:
                            a[exp, level] = c.imag
                        else:
                            b[exp, level] = -c.imag
    return a, b, dropped


EXACT = PhysParams(
    v_f=Fraction(137, 100), lam=Fraction(1, 2), k1=Fraction(1, 50),
    b0=Fraction(100), e=Fraction(1), c=Fraction(137), hbar=Fraction(1),
)


@pytest.mark.parametrize(
    "p",
    [
        BASE,
        dataclasses.replace(EXACT, b0=critical_point(EXACT, Vary.B0)),
        dataclasses.replace(BASE, lam=critical_point(BASE, Vary.LAMBDA)),
        LARGE,
        SMALL,
        EDGE_NEAR_EP,
        SUBNORMAL,
        SUBNORMAL_K,
        HUGE_ENVELOPE,
    ],
    ids=[
        "reference", "k-zero-exactly", "lambda-c", "large", "small", "near-ep",
        "subnormal", "subnormal-k", "huge-envelope",
    ],
)
@pytest.mark.parametrize("n_tr", [2, 3, 4, 7, 40])
def test_build_is_bit_identical_to_one_apply_per_level(p, n_tr):
    co = derive_coeffs(p)
    for branch in Branch:
        for valley in Valley:
            rep = build_truncated(co, n_tr, branch, valley)
            a, b, dropped = factors_one_level_at_a_time(co, n_tr, branch, valley)
            assert np.array_equal(rep.a.view(np.uint64), a.view(np.uint64))
            assert np.array_equal(rep.b.view(np.uint64), b.view(np.uint64))
            assert rep.dropped_count == dropped


def test_off_pattern_tolerance_is_scaled_per_level(monkeypatch):
    # A zbar on the lower component leaves the tower by the same t at every
    # level.  t exceeds the tolerance of level 0's own scale but stays below
    # that of the largest scale in every residue class of levels, and so in
    # the whole run, so only a per-level scale catches it.
    n_tr = 40
    rel = spectral._ROUNDINGS * spectral._EPS
    scales = [
        max(_cancelling_scale(CO, Branch.I), lower.max_abs_coeff())
        for _, lower in level_images(CO, n_tr, Branch.I, Valley.PRIMARY)
    ]
    group_max = min(max(scales[r::3]) for r in range(3))
    t = rel * math.sqrt(scales[0] * group_max)
    assert 4 * scales[0] < group_max
    assert 2 * rel * scales[0] < t < 0.5 * rel * group_max
    tamper = OperatorExpr.from_word(t, ((0, 0), (0, 1)), (Prim.MUL_ZBAR,))
    original = spectral.build_hamiltonian
    monkeypatch.setattr(
        spectral, "build_hamiltonian", lambda co, v: original(co, v) + tamper
    )
    with pytest.raises(RuntimeError, match="image left the tower pattern"):
        build_truncated(CO, n_tr, Branch.I, Valley.PRIMARY)


@pytest.mark.parametrize(
    "faults, message",
    [
        (("spin-block",), "entries inside a diagonal spin block"),
        (
            ("spin-block", "off-pattern"),
            r"left the tower pattern: coefficient 1\.0 at z\^5 zbar\^1",
        ),
        (("nan-raising",), r"disagrees with closed-form entries by nan, tolerance "),
    ],
    ids=["spin-block-alone", "both", "nan-raising"],
)
def test_every_image_passes_the_pattern_check_before_any_write(
    monkeypatch, faults, message
):
    # At n_tr = 7 the build reads two runs of the batch kernel, all seven
    # levels in the upper component and then in the lower, each level in
    # its own window.  Level 0 gets a spin-block entry in the first run,
    # level 5 an off-pattern coefficient in the last; both land in outputs
    # that H leaves empty.  Level by level the spin-block entry comes first,
    # but every image passes the pattern check before any write, so the
    # off-pattern coefficient is the fault reported.  A nan raising
    # amplitude, level 2's at z^3 in the first run, sits on the tower, so
    # it passes the pattern check and is written; the closed-form check
    # refuses it, where a nan deviation once read as within tolerance.
    original = opalg._batch_run

    def tampered(plan, comps, layout):
        upper, lower = original(plan, comps, layout)
        assert layout.shape[2] == 7  # one batch, level l at place l

        def element(level, m, n):
            return m - layout.om[level], n - layout.on[level], level

        if "spin-block" in faults and comps[1] is None:
            assert upper is None
            upper = (np.zeros(layout.shape), np.zeros(layout.shape))
            upper[1][element(0, 0, 0)] = 1.0  # 1j at z^0 zbar^0
        if "off-pattern" in faults and comps[0] is None:
            assert lower is None
            lower = (np.zeros(layout.shape), None)
            lower[0][element(5, 5, 1)] = 1.0
        if "nan-raising" in faults and comps[1] is None:
            lower[1][element(2, 3, 0)] = math.nan
        return upper, lower

    monkeypatch.setattr(opalg, "_batch_run", tampered)
    with pytest.raises(RuntimeError, match=message):
        build_truncated(CO, 7)


@pytest.mark.parametrize("n_tr", [2, 3, 7, 40, 200])
def test_build_applies_no_operator_per_level(monkeypatch, n_tr):
    # every level rides the batch kernel
    calls = []
    for name in ("apply", "apply_poly"):
        original = getattr(OperatorExpr, name)

        def counting(self, arg, _name=name, _original=original):
            calls.append(_name)
            return _original(self, arg)

        monkeypatch.setattr(OperatorExpr, name, counting)
    build_truncated(CO, n_tr)
    assert calls == []


def test_retained_levels_are_exact_for_every_size():
    # truncation only adds the structural zero; kept levels never move, up
    # to the top one, so accuracy is already saturated at small sizes
    for n_tr in (10, 20, 40, 80):
        report = phase_verdict_numeric(BASE, draw_similarity(n_tr, n_tr))
        assert report.verdict is PhaseVerdict.UNBROKEN
        assert len(report.plus_roots) == n_tr - 1
        worst = 0.0
        for n, plus in enumerate(report.plus_roots):
            exact, _ = level_energy(BASE, n, Branch.I)
            worst = max(worst, abs(plus - exact) / max(1.0, abs(exact)))
        assert worst <= 1e-12


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


def test_eigensolve_rejects_a_nan_certificate():
    # finite entries whose eigenvector defects overflow: complex LAPACK
    # leaves every certificate nan, real LAPACK one of the two, and either
    # must fail like one above tol; the error carries the partial results
    m = np.array([[1e200, 3e200], [2e200, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EigensolveError, match="nan") as info:
            eigensolve(m.astype(complex))
        assert np.isnan(info.value.residuals).all()
        with pytest.raises(EigensolveError, match="nan") as info:
            eigensolve(m)
        assert np.isnan(info.value.residuals).any()
    assert info.value.values.shape == (2,)
    assert info.value.residuals.shape == (2,)


def test_eigensolve_certifies_a_conjugate_pair_of_a_real_matrix():
    # real LAPACK still returns complex eigenvalues, so a real X cannot hide
    # an E^2 off the real axis: here the structural zero and E^2 = +-i
    result = eigensolve(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]))
    assert np.array_equal(result.values, [-1j, 0.0, 1j])
    assert result.residuals.max() <= 1e-15
    pair = eigensolve(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.array_equal(pair.values, [-1j, 1j])
    report = classify_spectrum(result.values, 1e-12, result.residuals)
    assert report.verdict is PhaseVerdict.CRITICAL
    assert not report.resolved


# ---------------------------------------------------------------------------
# classification of the squared levels
# ---------------------------------------------------------------------------


def classify(squares, floor):
    """classify_spectrum with a zero certificate for every value."""
    return classify_spectrum(squares, floor, [0.0] * len(squares))


def test_classify_rejects_empty():
    with pytest.raises(ValueError):
        classify([], 0.0)


def test_classify_drops_the_structural_zero():
    report = classify([4.0, 1e-15, 1.0, 9.0], 1e-12)
    assert report.verdict is PhaseVerdict.UNBROKEN
    assert report.plus_roots == (1 + 0j, 2 + 0j, 3 + 0j)
    assert report.floor == 1e-12
    assert report.level == 1.0 and report.resolved


def test_classify_broken_spectrum_lists_plus_i_first():
    # the imaginary parts are roundoff; E+ keeps the +i root either way
    report = classify([-1.0 - 1e-16j, 0.0, -4.0 + 1e-16j, -9.0 - 2e-16j], 1e-12)
    assert report.verdict is PhaseVerdict.BROKEN
    assert [plus.imag for plus in report.plus_roots] == [1.0, 2.0, 3.0]
    assert all(abs(plus.real) < 1e-15 for plus in report.plus_roots)
    assert report.level == -1.0 and report.resolved
    for square, plus in zip((-1.0 - 1e-16j, -4.0 + 1e-16j), report.plus_roots):
        assert plus * plus == pytest.approx(square, abs=1e-15)


@pytest.mark.parametrize(
    "squares",
    [
        [0.0, 0.0, 0.0],  # all at zero
        [0.0, 1.0, -2.0],  # mixed signs
        [0.0, 1.0, 5e-13],  # a level within the floor
        [0.0, 1.0, 2.0 + 2e-12j],  # a level off the real axis
        [0.0],  # no level at all
    ],
    ids=["zero", "mixed", "small", "complex", "empty"],
)
def test_classify_critical_cases(squares):
    assert classify(squares, 1e-12).verdict is PhaseVerdict.CRITICAL


def test_classify_zero_floor_reads_exact_zeros_as_critical():
    assert classify([0.0, -0.0, 0.0], 0.0).verdict is PhaseVerdict.CRITICAL
    assert classify([0.0, 1e-300], 0.0).verdict is PhaseVerdict.UNBROKEN


@pytest.mark.parametrize("floor", [math.nan, math.inf, -1e-8])
def test_classify_rejects_non_finite_or_negative_floor(floor):
    with pytest.raises(ValueError, match="floor must be finite and nonnegative"):
        classify([0.0, 1.0], floor)


def test_classify_validates_residuals():
    with pytest.raises(ValueError):
        classify_spectrum([0.0, 1.0], 0.0, residuals=[0.0])
    report = classify_spectrum([0.0, 1.0], 0.0, residuals=[1e-12, 2e-12])
    assert report.max_residual == 2e-12


# ---------------------------------------------------------------------------
# scrambling
# ---------------------------------------------------------------------------


def test_scramble_is_a_dense_similarity_of_ab():
    rep = build_truncated(CO, 20)
    similarity = draw_similarity(20, seed=5)
    x = scramble(rep, similarity)
    a, b = rep.matrix[0::2, 1::2], rep.matrix[1::2, 0::2]
    s = similarity.matrix
    assert np.allclose(s @ x, a @ b @ s, atol=1e-12)
    scale = float(np.max(np.abs(x)))
    assert float(np.mean(np.abs(x) > 1e-12 * scale)) >= 0.9


def test_scramble_seeds_differ():
    rep = build_truncated(CO, 6)
    a = scramble(rep, draw_similarity(6, seed=1))
    b = scramble(rep, draw_similarity(6, seed=2))
    assert not np.allclose(a, b)
    assert np.array_equal(scramble(rep, draw_similarity(6, seed=1)), a)


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize(
    "tamper, message",
    [
        # the identity maps each component onto itself
        (OperatorExpr.scalar(1e-300), "inside a diagonal spin block"),
        # sigma_x swaps the components with a real coefficient
        (OperatorExpr.spin(((0, 1), (1, 0))).scaled(1e-300), "off the imaginary axis"),
    ],
    ids=["spin-block", "off-axis"],
)
def test_truncation_rejects_a_non_chiral_or_real_entry(
    monkeypatch, branch, valley, tamper, message
):
    # both checks are exact: a 1e-300 entry is far below every tolerance
    original = spectral.build_hamiltonian
    monkeypatch.setattr(
        spectral, "build_hamiltonian", lambda co, v: original(co, v) + tamper
    )
    with pytest.raises(RuntimeError, match=message):
        build_truncated(CO, 10, branch, valley)


def test_truncation_factors_are_read_only():
    rep = build_truncated(CO, 6)
    for factor in (rep.a, rep.b):
        assert not factor.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 1] = 0.0


def test_scramble_rejects_a_sparse_result():
    # S = 1 leaves ab diagonal: 5 of its 36 entries are nonzero
    with pytest.raises(RuntimeError, match=r"scrambled matrix too sparse: density 0\.139"):
        scramble(build_truncated(CO, 6), Similarity(np.eye(6), 1.0))


def test_scramble_works_in_real_arithmetic():
    rep = build_truncated(CO_BROKEN, 12, Branch.II, Valley.TIME_REVERSED)
    assert rep.a.dtype == rep.b.dtype == np.float64
    assert rep.a.shape == rep.b.shape == (12, 12)
    assert draw_similarity(12, 3).matrix.dtype == np.float64
    assert scramble(rep, draw_similarity(12, 3)).dtype == np.float64


def test_scramble_exempts_an_all_zero_block():
    rep = build_truncated(derive_coeffs(dataclasses.replace(BASE, k1=0.0, b0=0.0)), 6)
    assert not np.any(rep.b)
    assert np.any(rep.a)
    assert not np.any(scramble(rep, draw_similarity(6, 2)))
    report = phase_verdict_numeric(
        dataclasses.replace(BASE, k1=0.0, b0=0.0), draw_similarity(6)
    )
    assert report.verdict is PhaseVerdict.CRITICAL
    assert report.floor == 0.0


# ---------------------------------------------------------------------------
# the invariance check
# ---------------------------------------------------------------------------

NEAR_EP = dataclasses.replace(
    BASE, lam=critical_point(BASE, Vary.LAMBDA) * (1.0 - 1e-6)
)


@pytest.mark.parametrize("p", [BASE, BROKEN, NEAR_EP], ids=["unbroken", "broken", "near_ep"])
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("valley", list(Valley))
def test_squared_levels_match_the_dense_eig(p, branch, valley):
    rep = build_truncated(derive_coeffs(p), 30, branch, valley)
    dense = np.sort_complex(np.linalg.eigvals(rep.matrix) ** 2)
    a, b = rep.matrix[0::2, 1::2], rep.matrix[1::2, 0::2]
    assert np.count_nonzero(a @ b - np.diag(np.diag(a @ b))) == 0
    both = np.sort_complex(np.concatenate([np.diag(a @ b), np.diag(b @ a)]))
    spread = max(1.0, float(np.max(np.abs(dense))))
    assert float(np.max(np.abs(dense - both))) <= 1e-11 * spread


@pytest.mark.parametrize("seed", range(5))
def test_invariance_check_catches_a_non_diagonal_ab(seed):
    # still chiral, but two couplings outside the tower pattern close a
    # cycle in AB, so its diagonal no longer holds its eigenvalues
    rep = build_truncated(CO, 10)
    tampered = rep.a.copy()
    tampered[1, 1] = tampered[0, 2] = 0.5
    with pytest.raises(RuntimeError, match="drifted the spectrum"):
        scrambled_eigensolve(
            dataclasses.replace(rep, a=tampered, b=rep.b), draw_similarity(10, seed)
        )


def test_invariance_check_fires_past_the_budget():
    rep = build_truncated(CO, 20)
    squares = np.array(scrambled_eigensolve(rep, draw_similarity(20, seed=4)).squares)
    reference = np.diag(rep.a @ rep.b)
    check_spectrum_invariance(reference, squares, 1e-9)
    bumped = squares.copy()
    bumped[3] += 1e-7
    with pytest.raises(RuntimeError, match="drifted the spectrum"):
        check_spectrum_invariance(reference, bumped, 1e-9)
    bumped[3] = np.nan
    with pytest.raises(RuntimeError, match="drifted the spectrum"):
        check_spectrum_invariance(reference, bumped, 1e-9)
    with pytest.raises(ValueError, match="eigenvalue count"):
        check_spectrum_invariance(reference, squares[1:], 1e-9)


def test_spectrum_command_and_verdict_both_run_the_invariance_check(
    monkeypatch, tmp_path
):
    calls = []
    original = spectral.check_spectrum_invariance

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "check_spectrum_invariance", counting)
    out = tmp_path / "spectrum.txt"
    assert cli.main(["spectrum", "--n_tr", "12", "--output", str(out)]) == 0
    assert calls == [12]
    phase_verdict_numeric(BASE, draw_similarity(9, 2))
    assert calls == [12, 9]


def test_no_verdict_forms_the_dense_truncation(monkeypatch, tmp_path):
    # the oracle reads only the two real factors; M is built for
    # --dump_matrix and the tests alone
    factors = []
    original = spectral.scrambled_eigensolve

    def checked(rep, similarity):
        factors.append((rep.a, rep.b, rep.n_tr))
        return original(rep, similarity)

    def refuse(rep):
        raise AssertionError("a verdict formed the dense 2 n_tr x 2 n_tr M")

    monkeypatch.setattr(spectral.TruncatedRep, "matrix", property(refuse))
    for module in (spectral, cli):
        monkeypatch.setattr(module, "scrambled_eigensolve", checked)
    phase_verdict_numeric(BASE, draw_similarity(9, 2))
    find_exceptional_point(BASE, Vary.LAMBDA, 0.5, 1.8, draw_similarity(10, 0))
    out = tmp_path / "spectrum.txt"
    assert cli.main(["spectrum", "--n_tr", "12", "--output", str(out)]) == 0
    assert len(factors) >= 5
    for a, b, n_tr in factors:
        assert a.dtype == b.dtype == np.float64
        assert a.shape == b.shape == (n_tr, n_tr)


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
    find_exceptional_point(
        BASE, Vary.LAMBDA, 0.5 * target, 1.5 * target, draw_similarity(8, 0)
    )
    assert len(runs) >= 3
    assert len(calls) == 2  # the two QR factors of the one S


def test_shared_similarity_is_read_only():
    shared = draw_similarity(6, seed=3)
    assert not shared.matrix.flags.writeable
    with pytest.raises(ValueError):
        shared.matrix[0, 0] = 0.0
    with pytest.raises(ValueError, match="another dimension"):
        scramble(build_truncated(CO, 5), shared)


@pytest.mark.parametrize("p", [BASE, BROKEN])
def test_shared_similarity_gives_bit_equal_eigenvalues(p):
    seed = 7
    shared = draw_similarity(20, seed)
    rep = build_truncated(derive_coeffs(p), 20)
    fresh = eigensolve(scramble(rep, draw_similarity(20, seed))).values
    reused = scrambled_eigensolve(rep, shared).squares
    assert np.array_equal(fresh, np.array(reused))
    assert draw_similarity(20, seed).cond == shared.cond
    a = phase_verdict_numeric(p, draw_similarity(20, seed))
    b = phase_verdict_numeric(p, shared)
    assert a.squares == b.squares and a.floor == b.floor


@pytest.mark.parametrize("n_tr", [2, 9, 40])
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("valley", list(Valley))
def test_verdict_reads_the_truncation_size_from_the_similarity(n_tr, branch, valley):
    similarity = draw_similarity(n_tr, 5)
    report = phase_verdict_numeric(BROKEN, similarity, branch=branch, valley=valley)
    rep = build_truncated(CO_BROKEN, n_tr, branch, valley)
    assert len(report.squares) == n_tr
    # repr shows every bit that matters here, the sign of zeros included
    assert repr(report) == repr(scrambled_eigensolve(rep, similarity))


# ---------------------------------------------------------------------------
# drawing S
# ---------------------------------------------------------------------------


def _resampling_draw(dim, seed):
    """The draw as first written: measure cond(S) by SVD, resample above 100."""
    rng = np.random.default_rng(seed)
    for _ in range(10):
        q1 = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        q2 = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        diag = 10.0 ** rng.uniform(-0.25, 0.25, size=dim)
        candidate = q1 @ (diag[:, np.newaxis] * q2)
        if np.linalg.cond(candidate) <= 100.0:
            return candidate
    raise AssertionError("no draw accepted")


@pytest.mark.parametrize("n_tr", [2, 6, 40, 200])
@pytest.mark.parametrize("seed", range(5))
def test_similarity_cond_from_the_diagonals_matches_the_svd(n_tr, seed):
    similarity = draw_similarity(n_tr, seed)
    measured = float(np.linalg.cond(similarity.matrix))
    assert abs(similarity.cond - measured) <= 1e-12 * measured
    assert 1.0 <= similarity.cond <= 10.0**0.5


@pytest.mark.parametrize("n_tr", [2, 6, 40, 200])
def test_similarity_is_bit_equal_to_the_resampling_draw(n_tr):
    # S is the first draw from the seeded generator, as the resampling
    # draw made it
    for seed in range(3):
        similarity = draw_similarity(n_tr, seed)
        assert np.array_equal(similarity.matrix, _resampling_draw(n_tr, seed))


@pytest.mark.parametrize("n_tr", [0, 1, 2.0, True])
def test_draw_similarity_rejects_a_bad_dimension(n_tr):
    with pytest.raises(ValueError, match="n_tr must be an integer >= 2"):
        draw_similarity(n_tr)


def test_spectrum_command_takes_no_svd_of_a_full_matrix(monkeypatch, tmp_path):
    calls = {"cond": [], "svd": [], "qr": [], "solve": [], "eig": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    out = tmp_path / "spectrum.txt"
    assert cli.main(["spectrum", "--n_tr", "12", "--output", str(out)]) == 0
    assert calls["cond"] == []
    assert calls["svd"] == []
    assert calls["qr"] == [(12, 12)] * 2
    assert calls["solve"] == [(12, 12)]
    assert calls["eig"] == [(12, 12)]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n_tr", "12"],
        ["spectrum", "--n_tr", "12", "--lambda", "1.8"],
        ["critical", "--vary", "lambda", "--n_tr", "12"],
        ["critical", "--vary", "b0", "--n_tr", "12"],
        ["sweep", "--vary", "lambda", "--from", "0.1", "--to", "1.3",
         "--steps", "4", "--numeric", "--n_tr", "12"],
        ["verify", "--n_tr", "12"],
    ],
    ids=["spectrum", "spectrum_broken", "critical_lambda", "critical_b0", "sweep",
         "verify"],
)
def test_numeric_commands_decompose_only_real_matrices(argv, monkeypatch, tmp_path):
    dtypes = []
    for name in ("qr", "solve", "eig", "eigvals", "svd"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    assert cli.main(argv + ["--output", str(tmp_path / "out.txt")]) == 0
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


# ---------------------------------------------------------------------------
# end-to-end verdicts
# ---------------------------------------------------------------------------


def test_numeric_agreement_unbroken():
    report = phase_verdict_numeric(BASE, draw_similarity(40, 3), branch=Branch.I)
    assert report.verdict is PhaseVerdict.UNBROKEN
    for n in range(11):
        plus, _ = level_energy(BASE, n, Branch.I)
        num = report.plus_roots[n]
        assert abs(num - plus) <= 1e-8 * max(1.0, abs(plus))


def test_numeric_agreement_broken():
    report = phase_verdict_numeric(BROKEN, draw_similarity(40, 3), branch=Branch.I)
    assert report.verdict is PhaseVerdict.BROKEN
    for n in range(11):
        plus, _ = level_energy(BROKEN, n, Branch.I)
        num = report.plus_roots[n]
        assert num.imag > 0
        assert abs(num - plus) <= 1e-8 * max(1.0, abs(plus))


def test_numeric_agreement_branch_ii_and_valley():
    report = phase_verdict_numeric(
        BASE, draw_similarity(30, 9), branch=Branch.II, valley=Valley.TIME_REVERSED
    )
    assert report.verdict is PhaseVerdict.BROKEN
    for n in range(8):
        plus, _ = level_energy(BASE, n, Branch.II)
        num = report.plus_roots[n]
        assert abs(num - plus) <= 1e-8 * max(1.0, abs(plus))


# lambda / lambda_c - 1 around the exceptional point of the defaults
EP_OFFSETS = (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8,
              1e-6, -1e-6, 1e-2)


@pytest.mark.parametrize("n_tr", [10, 40, 200])
@pytest.mark.parametrize("branch", list(Branch))
def test_no_definite_verdict_against_the_sign_of_k_next_to_the_ep(branch, n_tr):
    lam_c = critical_point(BASE, Vary.LAMBDA)
    shared = [draw_similarity(n_tr, seed) for seed in range(3)]
    wrong = []
    for offset in EP_OFFSETS:
        p = dataclasses.replace(BASE, lam=lam_c * (1 + offset))
        k = derive_coeffs(p).k_coef * (1 if branch is Branch.I else -1)
        for valley in Valley:
            for seed in range(3):
                verdict = phase_verdict_numeric(
                    p, shared[seed], branch=branch, valley=valley
                ).verdict
                if offset == 0.0:
                    expected = {PhaseVerdict.CRITICAL}
                else:
                    sign = PhaseVerdict.UNBROKEN if k > 0 else PhaseVerdict.BROKEN
                    expected = {sign, PhaseVerdict.CRITICAL}
                if verdict not in expected:
                    wrong.append((offset, valley.value, seed, verdict.value))
    assert wrong == []


@pytest.mark.parametrize("n_tr", [10, 40, 200])
@pytest.mark.parametrize("branch", list(Branch))
def test_no_definite_verdict_against_the_exact_sign_of_k_next_to_the_critical_field(
    branch, n_tr
):
    # the b0 twin of the lambda grid above, with the sign of k taken in exact
    # arithmetic on the float inputs
    b0_c = critical_point(BASE, Vary.B0)
    shared = [draw_similarity(n_tr, seed) for seed in range(3)]
    wrong = []
    for offset in EP_OFFSETS:
        p = dataclasses.replace(BASE, b0=b0_c * (1 + offset))
        k = exact_k(p) * (1 if branch is Branch.I else -1)
        for valley in Valley:
            for seed in range(3):
                verdict = phase_verdict_numeric(
                    p, shared[seed], branch=branch, valley=valley
                ).verdict
                if offset == 0.0:
                    expected = {PhaseVerdict.CRITICAL}
                else:
                    sign = PhaseVerdict.UNBROKEN if k > 0 else PhaseVerdict.BROKEN
                    expected = {sign, PhaseVerdict.CRITICAL}
                if verdict not in expected:
                    wrong.append((offset, valley.value, seed, verdict.value))
    assert wrong == []


@settings(max_examples=150, deadline=None)
@given(
    v_f=st.floats(0.3, 3.0),
    lam_ratio=st.floats(-0.95, 0.95),
    k1=st.floats(-0.3, 0.3),
    b0=st.floats(0.5, 300.0),
    hbar=st.floats(0.1, 10.0),
    ep_offset=st.one_of(st.none(), st.sampled_from(EP_OFFSETS)),
    n_tr=st.integers(2, 60),
    seed=st.integers(0, 2**31 - 1),
    branch=st.sampled_from(list(Branch)),
    valley=st.sampled_from(list(Valley)),
)
def test_numeric_verdict_never_contradicts_a_definite_closed_form(
    v_f, lam_ratio, k1, b0, hbar, ep_offset, n_tr, seed, branch, valley
):
    p = PhysParams(v_f=v_f, lam=lam_ratio * v_f, k1=k1, b0=b0, hbar=hbar)
    if ep_offset is not None:
        lam_c = critical_point(p, Vary.LAMBDA)
        assume(lam_c is not None and lam_c > 0)
        p = dataclasses.replace(p, lam=lam_c * (1 + ep_offset))
    assume(derive_coeffs(p).d1(branch) is not None)
    closed = classify_phase(p, branch)
    numeric = phase_verdict_numeric(
        p, draw_similarity(n_tr, seed), branch=branch, valley=valley
    ).verdict
    assert numeric is PhaseVerdict.CRITICAL or closed in (numeric, PhaseVerdict.CRITICAL)


@pytest.mark.parametrize("k1", [6.676019576820675e-187, 1e-300, 1e-310, 5e-324])
@pytest.mark.parametrize("n_tr", [2, 3, 8, 40])
@pytest.mark.parametrize("valley", list(Valley))
def test_checks_hold_where_the_raising_amplitudes_underflow(k1, n_tr, valley):
    # At the critical lambda of a point with k1 this small (lambda = v_f, where
    # branch I has no envelope), k and the raising amplitudes are near or
    # below the smallest normal float: the squares in ||X||_F underflow and
    # rounding is no longer relative.  The scramble runs on factors scaled
    # by a power of two, so the relative budget and the density check hold.
    p = PhysParams(v_f=1.0, lam=0.0, k1=k1, b0=1.0, hbar=1.0)
    p = dataclasses.replace(p, lam=critical_point(p, Vary.LAMBDA))
    verdict = phase_verdict_numeric(
        p, draw_similarity(n_tr, 0), branch=Branch.II, valley=valley
    ).verdict
    closed = classify_phase(p, Branch.II)
    assert verdict is PhaseVerdict.CRITICAL or closed in (verdict, PhaseVerdict.CRITICAL)


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("valley", list(Valley))
def test_exactly_zero_k_reads_critical(branch, valley):
    # k is affine in b0, so with rational inputs the critical field is
    # rational and k vanishes there in exact arithmetic
    p = PhysParams(
        v_f=Fraction(137, 100), lam=Fraction(1, 2), k1=Fraction(1, 50),
        b0=Fraction(100), e=Fraction(1), c=Fraction(137), hbar=Fraction(1),
    )
    p = dataclasses.replace(p, b0=critical_point(p, Vary.B0))
    assert derive_coeffs(p).k_coef == 0
    for seed in range(3):
        report = phase_verdict_numeric(
            p, draw_similarity(20, seed), branch=branch, valley=valley
        )
        assert report.verdict is PhaseVerdict.CRITICAL


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
            p, vary, 0.5 * target, 1.5 * target, draw_similarity(16, 0), tol=1e-6
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
            BASE, Vary.LAMBDA, lo * lam_c, hi * lam_c, draw_similarity(16, seed),
            tol=1e-6, branch=branch, valley=valley,
        )
        assert abs(found - root * lam_c) <= 1e-6 * max(1.0, lam_c)
        assert len(oracle_runs) <= 4


def test_find_exceptional_point_requires_bracket():
    with pytest.raises(NoTransitionBracketedError) as info:
        find_exceptional_point(BASE, Vary.LAMBDA, 0.1, 0.3, draw_similarity(8, 0))
    assert "no transition bracketed" in str(info.value)
    with pytest.raises(ValueError):
        find_exceptional_point(BASE, Vary.LAMBDA, 0.3, 0.1, draw_similarity(8, 0))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-6])
def test_find_exceptional_point_rejects_non_finite_or_negative_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        find_exceptional_point(
            BASE, Vary.LAMBDA, 1.0, 1.5, draw_similarity(8, 0), tol=tol
        )


@pytest.mark.parametrize("tol", [0.5, 2.0])
def test_find_exceptional_point_rejects_tol_not_below_the_bracket(tol):
    with pytest.raises(ValueError, match="below the bracket width"):
        find_exceptional_point(
            BASE, Vary.LAMBDA, 1.0, 1.5, draw_similarity(8, 0), tol=tol
        )


def test_find_exceptional_point_zero_tol_bisects_to_adjacent_floats():
    target = critical_point(BASE, Vary.LAMBDA)
    found = find_exceptional_point(
        BASE, Vary.LAMBDA, 0.5 * target, 1.5 * target, draw_similarity(8, 0), tol=0.0
    )
    assert abs(found - target) <= 1e-4


@pytest.mark.parametrize("vary", list(Vary))
def test_zero_tol_with_a_zero_floor_ends_at_adjacent_floats(monkeypatch, vary):
    def closed_form_squares(rep, similarity):
        # the diagonal of ab: the structural zero and level l at (l + 1) k,
        # with no floor
        values = np.einsum("ij,ji->i", rep.a, rep.b).astype(complex)
        return classify_spectrum(values, 0.0, np.zeros(rep.n_tr))

    monkeypatch.setattr(spectral, "scrambled_eigensolve", closed_form_squares)
    target = critical_point(BASE, vary)
    found = find_exceptional_point(
        BASE, vary, 0.5 * target, 1.5 * target, draw_similarity(8, 0), tol=0.0
    )
    assert abs(found - target) <= 4 * math.ulp(target)


def test_illinois_halves_the_hi_level_when_lo_moves_twice(monkeypatch):
    # On a convex level, b0**2 - 2 over [0, 2], each secant root lies left
    # of the root, so lo moves at 1 and again at 4/3; the second move
    # halves the level kept at hi, 2 -> 1, and the next step lands at 16/11
    # (1.4 with the level left whole), past the root, so hi moves there.
    points = []

    def level_report(p, similarity, *, branch, valley):
        points.append(p.b0)
        level = p.b0 * p.b0 - 2.0
        verdict = PhaseVerdict.UNBROKEN if level > 0 else PhaseVerdict.BROKEN
        return types.SimpleNamespace(verdict=verdict, level=level, resolved=True)

    monkeypatch.setattr(spectral, "phase_verdict_numeric", level_report)
    found = find_exceptional_point(
        BASE, Vary.B0, 0.0, 2.0, draw_similarity(2, 0), tol=0.05
    )
    expected = [0, 2, 1, Fraction(4, 3), Fraction(16, 11), Fraction(65, 46)]
    assert points == pytest.approx([float(x) for x in expected], rel=1e-15)
    assert found == pytest.approx(float((Fraction(65, 46) + Fraction(16, 11)) / 2))


@pytest.mark.parametrize("n_tr", [10, 40])
@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize("branch", list(Branch))
def test_level_zero_reads_k_next_to_the_exceptional_point(branch, valley, n_tr):
    lam_c = critical_point(BASE, Vary.LAMBDA)
    for factor in (1 + 1e-12, 1 - 1e-12, 1 + 1e-13):
        p = dataclasses.replace(BASE, lam=lam_c * factor)
        k = derive_coeffs(p).k_coef * (1 if branch is Branch.I else -1)
        assert 4e-13 < abs(k) < 6e-12
        for seed in range(5):
            report = phase_verdict_numeric(
                p, draw_similarity(n_tr, seed), branch=branch, valley=valley
            )
            assert abs(report.level - k) <= report.floor
            # the floor here is about 1e-14 on both branches: the
            # similarity part scales with |k|
            assert report.resolved and (report.level > 0) == (k > 0)


NEAR_EP = dataclasses.replace(BASE, lam=1.3319331364)  # k = 2.3e-10


@pytest.mark.parametrize("p", [BASE, BROKEN, NEAR_EP])
@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize("branch", list(Branch))
def test_level_zero_is_found_at_two_levels(p, branch, valley):
    k = derive_coeffs(p).k_coef * (1 if branch is Branch.I else -1)
    for seed in range(3):
        report = phase_verdict_numeric(
            p, draw_similarity(2, seed), branch=branch, valley=valley
        )
        assert report.resolved
        assert abs(report.level - k) <= report.floor


def test_classify_reads_level_zero_with_the_verdict_floor():
    report = classify([3.0, 1e-300, -1.0 + 1e-3j], 1e-2)
    assert (report.level, report.resolved) == (-1.0, True)
    assert report.verdict is PhaseVerdict.CRITICAL  # mixed signs
    report = classify([3.0, 1e-300, -1.0 + 2e-2j], 1e-2)
    assert (report.level, report.resolved) == (-1.0, False)
    report = classify([1.0], 0.0)  # no level at all
    assert (report.level, report.resolved) == (0.0, False)


@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize("branch", list(Branch))
def test_a_definite_verdict_has_a_resolved_level_zero_of_its_sign(branch, valley):
    lam_c = critical_point(BASE, Vary.LAMBDA)
    definite = 0
    for ratio in (0.5, 1 - 1e-12, 1 + 1e-12, 1.5):
        p = dataclasses.replace(BASE, lam=lam_c * ratio)
        for seed in range(4):
            report = phase_verdict_numeric(
                p, draw_similarity(40, seed), branch=branch, valley=valley
            )
            if report.verdict is PhaseVerdict.CRITICAL:
                continue
            definite += 1
            assert report.resolved
            assert (report.level > 0) == (report.verdict is PhaseVerdict.UNBROKEN)
    assert definite >= 8  # the points at 0.5 and 1.5 are far from the EP


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("vary, most", [("lambda", 4), ("b0", 5)])
def test_critical_needs_few_oracle_runs(tmp_path, oracle_runs, vary, most, seed):
    out = tmp_path / "critical.txt"
    assert cli.main(["critical", "--vary", vary, "--seed", str(seed),
                     "--output", str(out)]) == 0
    assert 3 <= len(oracle_runs) <= most


# ---------------------------------------------------------------------------
# the floor against the exact levels of the float inputs
# ---------------------------------------------------------------------------


def _floor_coverage(p, similarity, branch, valley):
    """The report, and its largest |E^2 - (l + 1) k| in floors, k exact.

    The E^2, structural zero included, are paired with the exact levels in
    sorted order, as the invariance check pairs them.
    """
    report = phase_verdict_numeric(p, similarity, branch=branch, valley=valley)
    k = exact_k(p) * (1 if branch is Branch.I else -1)
    exact = sorted([Fraction(0)] + [l * k for l in range(1, len(report.squares))])
    got = np.sort_complex(np.asarray(report.squares))
    worst = max(
        abs(complex(float(Fraction(g.real) - x), g.imag)) for g, x in zip(got, exact)
    )
    return report, worst / report.floor


# c1 cancels internally at this small lambda_c, so c1 and c2 carry roundoff
# far above eps |a c2 - b c1|; the E^2 sat 1.41 floors from the exact levels
# when the floor was sized from c1 and c2 after they cancel
C1_CANCELS = PhysParams(
    v_f=0.8180723703928774, lam=0.026077848138812317, k1=0.04750887723521491,
    b0=13.030673549437026, hbar=4.164772326468675,
)


@pytest.mark.parametrize("valley", list(Valley))
def test_floor_covers_the_exact_levels_where_c1_cancels(valley):
    for seed in range(20):
        report, ratio = _floor_coverage(
            C1_CANCELS, draw_similarity(4, seed), Branch.II, valley
        )
        assert ratio <= 1.0, (seed, ratio)


def test_floor_covers_the_exact_levels_next_to_the_ep():
    # lambda or b0 within 1e-16 .. 1e-10 relative of its critical value (or
    # on it), lambda_c down to 1e-3 v_f where c1 cancels, n_tr 2 .. 12
    rng = random.Random(2210)
    worst, wrong = 0.0, []
    for _ in range(60):
        v_f, k1, hbar = (10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-3, 0),
                         10 ** rng.uniform(-1, 1))
        b0 = 2 * k1 * 137.0 / (1 - 10 ** rng.uniform(-6, -0.01))
        lam = v_f * rng.uniform(0.0, 0.9)
        points = [
            PhysParams(v_f=v_f, lam=0.0, k1=k1, b0=b0, hbar=hbar),
            PhysParams(v_f=v_f, lam=lam, k1=k1, b0=1.0, hbar=hbar),
        ]
        n_tr = rng.randint(2, 12)
        similarity = draw_similarity(n_tr, rng.randrange(2**31))
        for p, vary in zip(points, Vary):
            x = critical_point(p, vary)
            if rng.random() < 0.9:
                x *= 1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-16, -10)
            p = with_varied(p, vary, x)
            for branch in Branch:
                k = exact_k(p) * (1 if branch is Branch.I else -1)
                for valley in Valley:
                    report, ratio = _floor_coverage(p, similarity, branch, valley)
                    worst = max(worst, ratio)
                    if report.verdict is not PhaseVerdict.CRITICAL and (
                        (report.verdict is PhaseVerdict.UNBROKEN) != (k > 0) or k == 0
                    ):
                        wrong.append((p, branch.value, valley.value, n_tr))
    assert wrong == []
    assert worst <= 1.0


@pytest.mark.parametrize("valley", list(Valley))
def test_build_holds_where_the_envelope_exponent_is_subnormal(valley):
    # b0 = 0 and |k1| ~ 1e-312 make c1, c2 and d subnormal; d rounds on the
    # subnormal grid, and that error reaches the off-pattern keys times a hbar
    p = PhysParams(
        v_f=6.213256500335942, lam=-1.3667882447398596, k1=-1.34589730223e-312,
        b0=0.0, hbar=1.9398914851463105,
    )
    rep = build_truncated(derive_coeffs(p), 40, Branch.I, valley)
    assert rep.dropped_count == 1
    verdict = scrambled_eigensolve(rep, draw_similarity(40, 0)).verdict
    assert verdict in (classify_phase(p, Branch.I), PhaseVerdict.CRITICAL)


def test_floor_covers_the_subnormal_grid_next_to_the_ep():
    # c1, c2, d and hf round on the subnormal grid, and eps times the
    # cancelling terms underflows to 0; the grid's rounding reaches each
    # level times |a b hbar|, |a hbar b hbar| and |a hbar| + |b hbar|, and
    # k_scale carries that reach into the build floor and the closed form's
    # critical band alike.  k_coef is -3.1e-322 against an exact -5e-324 at
    # the first point, 1.5e-323 against an exact k just below 0 at the second.
    points = [
        PhysParams(
            v_f=7.531611281293586, lam=0.340574255291245, k1=1.503971745e-315,
            b0=4.1293261678e-313, hbar=2.9767150936456397,
        ),
        SUBNORMAL,
    ]
    wrong = []
    for p in points:
        for branch in Branch:
            k = exact_k(p) * (1 if branch is Branch.I else -1)
            closed = classify_phase(p, branch)
            if closed is not PhaseVerdict.CRITICAL and (
                (closed is PhaseVerdict.UNBROKEN) != (k > 0)
            ):
                wrong.append((p, branch.value, "closed form"))
            for n_tr in (2, 4, 8, 12):
                for seed in range(10):
                    for valley in Valley:
                        report, ratio = _floor_coverage(
                            p, draw_similarity(n_tr, seed), branch, valley
                        )
                        assert ratio <= 1.0, (p, n_tr, seed, branch, valley, ratio)
                        if report.verdict is not PhaseVerdict.CRITICAL and (
                            (report.verdict is PhaseVerdict.UNBROKEN) != (k > 0)
                        ):
                            wrong.append((p, n_tr, seed, branch.value, valley.value))
    assert wrong == []


def _near_ep_point(rng, box):
    """lambda or b0 on its critical value or 1e-16 .. 1e-9 relative from it.

    normal: v_f and hbar in 0.1 .. 10, k1 in 1e-3 .. 1; wide: v_f and |k1|
    in 1e-12 .. 1e12, hbar in 1e-5 .. 1e5, |lambda| up to 3 v_f; subnormal:
    |k1| in 1e-315 .. 1e-308, with b0 next to its critical value.
    """
    if box == "wide":
        v_f, k1, hbar = (10 ** rng.uniform(-12, 12), 10 ** rng.uniform(-12, 12),
                         10 ** rng.uniform(-5, 5))
        lam = v_f * rng.uniform(-3, 3)
    else:
        v_f, hbar = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-1, 1)
        k1 = 10 ** rng.uniform(*((-315, -308) if box == "subnormal" else (-3, 0)))
        lam = v_f * rng.uniform(-0.9, 0.9)
    vary = Vary.B0 if box == "subnormal" else rng.choice(list(Vary))
    if vary is Vary.LAMBDA:
        b0 = 2 * k1 * 137.0 / (1 - 10 ** rng.uniform(-6, -0.01))
    else:
        k1 *= rng.choice((-1, 1))
        b0 = 0.0
    p = PhysParams(v_f=v_f, lam=lam, k1=k1, b0=b0, hbar=hbar)
    x = critical_point(p, vary)
    if vary is Vary.LAMBDA:
        x *= rng.choice((-1, 1))  # k is even in lambda
    if rng.random() < 0.9:
        x *= 1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-16, -9)
    return with_varied(p, vary, x)


@pytest.mark.parametrize("box", ["normal", "wide", "subnormal"])
def test_both_routes_decide_next_to_the_ep(box):
    # against the exact sign of k: no definite closed-form verdict is wrong,
    # the closed form is definite wherever the oracle is, and verify fails
    # no row
    rng = random.Random(f"near-ep/{box}")
    wrong, undecided, failed = [], [], []
    for _ in range(50):
        p = _near_ep_point(rng, box)
        seed, valley = rng.randrange(1000), rng.choice(list(Valley))
        similarity = draw_similarity(12, seed)
        for branch in Branch:
            k = exact_k(p) * (1 if branch is Branch.I else -1)
            closed = classify_phase(p, branch)
            if closed is not PhaseVerdict.CRITICAL and (
                (closed is PhaseVerdict.UNBROKEN) != (k > 0) or k == 0
            ):
                wrong.append((p, branch.value))
            oracle = phase_verdict_numeric(p, similarity, branch=branch, valley=valley)
            if closed is PhaseVerdict.CRITICAL and oracle.verdict is not closed:
                undecided.append((p, branch.value, oracle.verdict.value))
        argv = ["verify", "--n_tr", "12", "--seed", str(seed),
                "--valley", valley.value] + flags(p)
        cfg = cli._resolve_config(cli._build_parser().parse_args(argv))
        failed += [(p, name, detail) for name, status, detail in cli.run_verify(cfg)
                   if status == "FAIL"]
    assert wrong == []
    assert undecided == []
    assert failed == []


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
    with pytest.raises(ValueError, match="dimension must be positive"):
        parse_matrix("0\n")
    with pytest.raises(ValueError, match="matrix must be square"):
        dump_matrix(np.zeros((2, 3)))


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


@pytest.mark.parametrize("branch, verdict", [("I", "broken"), ("II", "unbroken")])
def test_spectrum_at_large_couplings_agrees_with_analytic(capsys, branch, verdict):
    assert cli.main(["analytic", "--format", "json"] + LARGE_FLAGS) == 0
    closed = json.loads(capsys.readouterr().out)["branches"][branch]["verdict"]
    argv = ["spectrum", "--n_tr", "2", "--branch", branch, "--format", "json"]
    assert cli.main(argv + LARGE_FLAGS) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == closed == verdict


def _extreme_point(rng, low):
    """v_f from 10**(low + 1), k1 and |b0| from 10**low, up to 1e25 and 1e20."""

    def log_uniform(lo, hi):
        return 10 ** rng.uniform(lo, hi)

    def signed(lo, hi):
        return rng.choice((-1.0, 1.0)) * log_uniform(lo, hi)

    v_f = log_uniform(low + 1, 25)
    return PhysParams(
        v_f=v_f, lam=v_f * signed(-3, 12), k1=signed(low, 20), b0=signed(low, 20),
        hbar=log_uniform(-3, 3),
    )


@pytest.mark.parametrize("low", [-3, -12])
def test_numeric_verdicts_agree_with_the_closed_form_at_extreme_couplings(low):
    rng = random.Random(2024)
    for _ in range(60):
        p = _extreme_point(rng, low)
        n_tr = rng.choice((2, 3, 8))
        for branch in Branch:
            report = phase_verdict_numeric(p, draw_similarity(n_tr), branch=branch)
            assert report.verdict is classify_phase(p, branch), (p, branch, n_tr)


def _cancelling_scale(co, branch):
    """max(|c1|, |c2|, |a hbar d|, |b hbar d|), as the build derives it."""
    hbar_d = abs(float(co.hbar) * float(co.d1(branch)))
    return max(
        abs(float(co.c1)), abs(float(co.c2)),
        abs(float(co.a_coef)) * hbar_d, abs(float(co.b_coef)) * hbar_d,
    )


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize("rel, raises", [(1e-9, True), (1e-11, True), (2.2e-16, False)])
def test_off_pattern_scale_at_large_couplings_is_the_cancelling_terms(
    monkeypatch, branch, valley, rel, raises
):
    # A lower-to-upper term off the pattern (z^l -> z^l zbar on the
    # holomorphic tower, zbar^l -> z zbar^l on the other) of rel times the
    # cancelling terms' size: caught at 1e-9 and 1e-11, let through at
    # about 1 eps, which with the roundoff already there stays within the
    # tolerance of 8 eps.
    co = derive_coeffs(LARGE)
    holo = (branch is Branch.I) == (valley is Valley.PRIMARY)
    word = (Prim.MUL_ZBAR,) if holo else (Prim.MUL_Z,)
    t = rel * _cancelling_scale(co, branch)
    if raises:  # far above the leftover
        assert t > 1e4 * np.finfo(float).eps * abs(float(co.c1))
    tamper = OperatorExpr.from_word(t, ((0, 1), (0, 0)), word)
    original = spectral.build_hamiltonian
    monkeypatch.setattr(
        spectral, "build_hamiltonian", lambda c, v: original(c, v) + tamper
    )
    if raises:
        with pytest.raises(RuntimeError, match="image left the tower pattern"):
            build_truncated(co, 8, branch, valley)
    else:
        build_truncated(co, 8, branch, valley)


@pytest.mark.parametrize("branch, verdict", [("I", "broken"), ("II", "unbroken")])
def test_spectrum_at_small_couplings_agrees_with_analytic(capsys, branch, verdict):
    assert cli.main(["analytic", "--format", "json"] + SMALL_FLAGS) == 0
    closed = json.loads(capsys.readouterr().out)["branches"][branch]["verdict"]
    argv = ["spectrum", "--n_tr", "8", "--branch", branch, "--format", "json"]
    assert cli.main(argv + SMALL_FLAGS) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == closed == verdict


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_build_never_returns_a_non_finite_factor():
    # Seeded draws of all seven inputs, log-uniform over 1e-300..1e300
    # (lambda, k1 and b0 of either sign).  In every other draw hbar puts
    # |lead hbar| within 1e4 of the float range, where the lowering entries
    # lead hbar (l + 1) overflow from a finite lead hbar.  Every build
    # returns finite factors or refuses with ValueError, and warns nothing.
    rng = random.Random(36)
    built = refused = lowering = 0
    for draw in range(3000):
        v_f, lam, k1, b0, e, c, hbar = (10 ** rng.uniform(-300, 300) for _ in range(7))
        lam, k1, b0 = (rng.choice((-1.0, 1.0)) * x for x in (lam, k1, b0))
        branch, valley = rng.choice(list(Branch)), rng.choice(list(Valley))
        if draw % 2:
            lead = abs(2 * (v_f - lam) if branch is Branch.I else 2 * (v_f + lam))
            hbar = 10 ** rng.uniform(304, 308.2) / lead
        try:
            co = derive_coeffs(PhysParams(v_f, lam, k1, b0, e, c, hbar))
        except ValueError:
            continue
        for n_tr in (2, 3, 5, 40):
            try:
                rep = build_truncated(co, n_tr, branch, valley)
            except ValueError as exc:
                refused += 1
                lowering += str(exc).startswith("lowering entry")
                continue
            built += 1
            assert np.isfinite(rep.a).all() and np.isfinite(rep.b).all(), (co, n_tr)
    assert built > 100 and lowering > 10 and refused > lowering


@pytest.mark.parametrize("p", [K_UNDERFLOW, PRODUCT_UNDERFLOW], ids=["k", "a-c2"])
@pytest.mark.parametrize("branch", list(Branch))
def test_spectrum_builds_where_a_product_in_k_underflows(capsys, p, branch):
    # the closed-form check forms the raising amplitude without k, or a c2,
    # which underflow where the amplitude does not
    argv = ["spectrum", "--n_tr", "2", "--branch", branch.value, "--format", "json"]
    assert cli.main(argv + flags(p)) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == classify_phase(p, branch).value


SIGMA_PLUS = ((0, 1), (0, 0))  # lower component to upper
SIGMA_MINUS = ((0, 0), (1, 0))  # upper component to lower


@pytest.mark.parametrize(
    "tamper, message",
    [
        # off the tower pattern, 10 and 0.1 times the largest raising amplitude
        (
            lambda h: h + OperatorExpr.from_word(1e-11, SIGMA_PLUS, (Prim.MUL_ZBAR,)),
            "image left the tower pattern",
        ),
        (
            lambda h: h + OperatorExpr.from_word(1e-13, SIGMA_PLUS, (Prim.MUL_ZBAR,)),
            "image left the tower pattern",
        ),
        # on the pattern: every raising amplitude moves by 5e-15, about 0.3%
        (
            lambda h: h + OperatorExpr.from_word(5e-15j, SIGMA_MINUS, (Prim.MUL_Z,)),
            "disagrees with closed-form entries",
        ),
        # every entry moves by 1e-7 of itself
        (lambda h: h.scaled(1 + 1e-7), "disagrees with closed-form entries"),
    ],
    ids=["off-pattern-1e-11", "off-pattern-1e-13", "raising-5e-15", "scaled-1e-7"],
)
def test_build_checks_are_relative_at_small_couplings(monkeypatch, tamper, message):
    # An absolute floor of 1 on either check's scale lets each of these
    # through, since every entry of this truncation is far below 1.
    original = spectral.build_hamiltonian
    monkeypatch.setattr(
        spectral, "build_hamiltonian", lambda co, v: tamper(original(co, v))
    )
    with pytest.raises(RuntimeError, match=message):
        build_truncated(derive_coeffs(SMALL), 8, Branch.I, Valley.PRIMARY)


def _coupling_scale(co, n_tr):
    """The largest coupling size: max(n_tr |a hbar|, n_tr |b hbar|,
    |k / (a hbar)|, |k / (b hbar)|, |c1|, |c2|)."""
    a_h = abs(float(co.a_coef) * float(co.hbar))
    b_h = abs(float(co.b_coef) * float(co.hbar))
    k = abs(float(co.k_coef))
    return max(n_tr * a_h, n_tr * b_h, k / a_h, k / b_h, abs(float(co.c1)), abs(float(co.c2)))


LAMBDA_C = dataclasses.replace(BASE, lam=critical_point(BASE, Vary.LAMBDA))


@pytest.mark.parametrize(
    "p", [BASE, LARGE, SMALL, LAMBDA_C], ids=["base", "large", "small", "lambda_c"]
)
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("valley", list(Valley))
@pytest.mark.parametrize(
    "kind, units, message",
    [
        ("off-pattern", 1e3, "image left the tower pattern"),
        ("raising", 20.0, "disagrees with closed-form entries"),
        ("raising-cancelling", 20.0, "disagrees with closed-form entries"),
    ],
)
def test_build_checks_hold_to_a_few_eps_at_every_scale(
    monkeypatch, p, branch, valley, kind, units, message
):
    # A term of units eps of a check's scale, above the 8 eps that the check
    # allows.  Off the pattern (z^l -> z^l zbar on the holomorphic tower,
    # zbar^l -> z zbar^l on the other): 1000 eps of the cancelling terms'
    # size, which a tolerance of 1e-10 let through.  On each raising
    # amplitude (upper to lower on the holomorphic tower, lower to upper on
    # the other): 20 eps of the largest coupling size, which a tolerance of
    # 1e-14 (45 eps) let through, and 20 eps of the cancelling terms' size,
    # which a tolerance of 8 eps of the largest coupling size let through
    # everywhere but at LARGE.
    co = derive_coeffs(p)
    if kind == "raising":
        scale = _coupling_scale(co, 8)
    else:
        scale = _cancelling_scale(co, branch)
    t = units * np.finfo(float).eps * scale
    holo = (branch is Branch.I) == (valley is Valley.PRIMARY)
    if kind == "off-pattern":
        tamper = OperatorExpr.from_word(
            t, SIGMA_PLUS, (Prim.MUL_ZBAR,) if holo else (Prim.MUL_Z,)
        )
    elif holo:
        tamper = OperatorExpr.from_word(t * 1j, SIGMA_MINUS, (Prim.MUL_Z,))
    else:
        tamper = OperatorExpr.from_word(t * 1j, SIGMA_PLUS, (Prim.MUL_ZBAR,))
    original = spectral.build_hamiltonian
    monkeypatch.setattr(
        spectral, "build_hamiltonian", lambda c, v: original(c, v) + tamper
    )
    with pytest.raises(RuntimeError, match=f"{message}.*, tolerance "):
        build_truncated(co, 8, branch, valley)


@pytest.mark.parametrize("seed", range(5))
def test_invariance_check_catches_a_non_diagonal_ab_at_small_couplings(seed):
    # the tamper of test_invariance_check_catches_a_non_diagonal_ab, scaled
    # to the couplings: every |E^2| here is below 1e-19, so a budget with an
    # absolute floor of 1 lets it through
    rep = build_truncated(derive_coeffs(SMALL), 10)
    tampered = rep.a.copy()
    tampered[1, 1] = tampered[0, 2] = 0.5 * float(np.max(np.abs(rep.a)))
    with pytest.raises(RuntimeError, match="drifted the spectrum"):
        scrambled_eigensolve(
            dataclasses.replace(rep, a=tampered, b=rep.b), draw_similarity(10, seed)
        )


@pytest.mark.parametrize("p", [BASE, SMALL, LARGE], ids=["base", "small", "large"])
@pytest.mark.parametrize("factor, raises", [(2.0, True), (0.5, False)])
def test_invariance_budget_is_the_scramble_term_of_the_floor(
    monkeypatch, p, factor, raises
):
    # Every eigenvalue moved by a multiple of the floor's scramble term,
    # 16 eps cond(S)**2 ||X||_F: twice that is caught, half of it is not.
    rep = build_truncated(derive_coeffs(p), 12)
    similarity = draw_similarity(12, 3)
    radius = spectral._SCRAMBLE_FLOOR_UNITS * (
        spectral._EPS * similarity.cond**2
        * float(np.linalg.norm(scramble(rep, similarity)))
    )
    original = spectral.eigensolve

    def bumped(m):
        result = original(m)
        return spectral.EigenResult(result.values + factor * radius, result.residuals)

    monkeypatch.setattr(spectral, "eigensolve", bumped)
    if raises:
        with pytest.raises(RuntimeError, match="drifted the spectrum.*, tolerance "):
            scrambled_eigensolve(rep, similarity)
    else:
        scrambled_eigensolve(rep, similarity)


# ---------------------------------------------------------------------------
# the time-reversed valley and the envelope
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_tr", [2, 3, 8, 40])
@pytest.mark.parametrize("branch", list(Branch))
def test_time_reversed_valley_is_the_primary_valley_relabeled(branch, n_tr):
    # T = (i sigma_y) K relabels a <-> b and c1 <-> c2, which exchanges the
    # two envelopes and so the branches: the time-reversed truncation and
    # zero modes are the primary ones of the swapped coefficients, bit for bit
    other = Branch.II if branch is Branch.I else Branch.I
    lam_c = critical_point(BASE, Vary.LAMBDA)
    for p in (BASE, SMALL, LARGE, dataclasses.replace(BASE, lam=lam_c)):
        co = derive_coeffs(p)
        left = build_truncated(co, n_tr, branch, Valley.TIME_REVERSED)
        right = build_truncated(co.swapped(), n_tr, other, Valley.PRIMARY)
        assert left.a.tobytes() == right.a.tobytes()
        assert left.b.tobytes() == right.b.tobytes()
        assert left.dropped_count == right.dropped_count
        assert left.build_floor.hex() == right.build_floor.hex()
        for l in range(n_tr):
            left_mode = lll_state(l, co, Valley.TIME_REVERSED)
            right_mode = lll_state(l, co.swapped(), Valley.PRIMARY)
            assert repr((left_mode.d, left_mode.coeffs)) == repr(
                (right_mode.d, right_mode.coeffs)
            )


@pytest.mark.parametrize("sign", [1, -1])
def test_every_envelope_reader_raises_one_message(sign):
    # lambda = v_f leaves branch I without an envelope, -v_f branch II; the
    # zero modes read branch I's envelope in the primary valley, II's in the
    # time-reversed one
    p = dataclasses.replace(BASE, lam=sign * BASE.v_f)
    co = derive_coeffs(p)
    branch, modes = (
        (Branch.I, Valley.PRIMARY) if sign > 0 else (Branch.II, Valley.TIME_REVERSED)
    )
    calls = [lambda: normalizability(p, branch), lambda: lll_state(0, co, modes)]
    for valley in Valley:
        calls.append(lambda valley=valley: build_truncated(co, 4, branch, valley))
        calls.append(lambda valley=valley: analytic_state(branch, valley, 0, co))
    messages = set()
    for call in calls:
        with pytest.raises(DegenerateCoefficientsError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {f"branch {branch.value} envelope undefined at these coefficients"}
