"""Finite truncations, dense spectra and phase classification.

The closed-form machinery in opalg is exact but only reaches states it can
name.  This module drives the complementary numeric route: project the
Hamiltonian onto the first n_tr levels of the monomial-times-Gaussian tower
for one branch and valley, scramble the matrix by a similarity transform so
no analytic structure survives, then classify the dense spectrum purely from
its eigenvalues.  Agreement between that verdict and the closed-form one is
the cross-check the test suite leans on.

Truncation artefacts are contained: the projected matrix reproduces every
retained level exactly and adds two spurious zero rows, so classification
discards a thin edge of the spectrum before rendering a verdict.  The
Hamiltonian is chiral, so the truncation is a permuted direct sum of 2x2
blocks [[0, alpha_l], [beta_l, 0]] and two zero singletons; _tower_blocks is
the one place that says where they sit.  build_truncated checks the assembled
matrix against the closed-form blocks, and reference_spectrum and
signed_level read the blocks from the same layout.

One verdict makes two dense decompositions: the solve that applies the
similarity S and the eig inside eigensolve.  The reference spectrum and
cond(V) for the Bauer-Fike invariance budget come from the 2x2 blocks of
the unscrambled matrix (reference_spectrum), and the invariance check runs
on the eigenvalues eigensolve returns (scrambled_eigensolve).  S enters
the oracle one way: as a Similarity from draw_similarity, which also carries
cond(S), known from the construction.  S depends only on (dim, seed); every
command draws it once and drops it when it returns, and nothing is cached
across commands.  phase_verdict_numeric is the one place that draws S when
the caller passes none.

The exceptional point is found from the oracle's own numbers, not from the
closed form.  The Hamiltonian is chiral, so each level's pair squares to one
E^2 = +-(n+1) k; signed_level reads the level-0 pair's mean Re E^2 from the
eigenvalues scrambled_eigensolve returns, with a roundoff floor from eps,
cond(S) and the unscrambled matrix.  find_exceptional_point checks the
bracket ends with full verdicts, then runs Illinois regula falsi on that
level and stops at the first point whose level is within its floor.  Each
step is taken in the coordinate in which the level is affine, b0 itself
or lambda**2 (k is even in lambda), so one step lands on the root up to
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .params import (
    Branch,
    DegenerateCoefficientsError,
    DerivedCoeffs,
    PhaseVerdict,
    PhysParams,
    Valley,
    Vary,
    check_tol,
    classify_phase,
    critical_point,
    derive_coeffs,
    holomorphic_tower,
    with_varied,
)
from .opalg import (
    SpinorFunction,
    WeightedPolynomial,
    build_hamiltonian,
)

_CROSS_CHECK_REL = 1e-14
_OFF_PATTERN_REL = 1e-10


@dataclass(frozen=True)
class TruncatedRep:
    """Dense matrix of the Hamiltonian on the first n_tr tower levels.

    Basis vector 2*l is the upper-component level-l function, 2*l+1 the
    lower-component one; dropped_count records raising amplitudes that left
    the retained span (exactly one per truncation).
    """

    n_tr: int
    matrix: np.ndarray
    branch: Branch
    valley: Valley
    coeffs: DerivedCoeffs
    dropped_count: int


def _tower_blocks(
    n_tr: int, branch: Branch, valley: Valley
) -> Tuple[np.ndarray, np.ndarray]:
    """Where the truncation's 2x2 blocks and two zero singletons sit.

    The truncated matrix is a permuted direct sum of n_tr - 1 blocks
    [[0, alpha_l], [beta_l, 0]] and two singletons.  Row l of ``pairs`` is
    block l's (i, j): in the holomorphic pattern the upper level-l function
    pairs with the lower level-(l+1) one, otherwise the lower level-l
    function with the upper level-(l+1) one.  M[i, j] lowers level l + 1 to
    l and M[j, i] raises level l to l + 1.  ``singles`` holds the two
    indices that belong to no block.
    """
    holo = holomorphic_tower(branch, valley)
    first = 2 * np.arange(n_tr - 1) + (0 if holo else 1)
    pairs = np.stack([first, first + (3 if holo else 1)], axis=1)
    singles = np.array([1, 2 * n_tr - 2] if holo else [0, 2 * n_tr - 1])
    return pairs, singles


def _closed_form_matrix(
    coeffs: DerivedCoeffs, branch: Branch, valley: Valley, n_tr: int
) -> np.ndarray:
    """The truncated matrix from closed-form entries, filled block by block.

    Derived independently of ``apply``: block l lowers with
    -i lead hbar (l + 1) and raises with the coupling i k / (lead hbar)
    (its negative on branch II), lead being a on branch I and b on II.
    """
    k = complex(coeffs.k_coef)
    hbar = complex(coeffs.hbar)
    if branch is Branch.I:
        lead = complex(coeffs.a_coef)
        coupling = 1j * k / (lead * hbar)
    else:
        lead = complex(coeffs.b_coef)
        coupling = -1j * k / (lead * hbar)
    i, j = _tower_blocks(n_tr, branch, valley)[0].T
    out = np.zeros((2 * n_tr, 2 * n_tr), dtype=complex)
    out[i, j] = -1j * lead * hbar * np.arange(1, n_tr)
    out[j, i] = coupling
    return out


def _basis_function(
    level: int, component: int, coeffs: DerivedCoeffs, branch: Branch, valley: Valley
) -> SpinorFunction:
    d = coeffs.d1(branch)
    mono = (level, 0) if holomorphic_tower(branch, valley) else (0, level)
    wp = WeightedPolynomial.monomial(mono[0], mono[1], 1.0, float(d))
    zero = WeightedPolynomial.zero(float(d))
    if component == 0:
        return SpinorFunction(wp, zero)
    return SpinorFunction(zero, wp)


def _check_n_tr(n_tr: int) -> None:
    if not isinstance(n_tr, int) or isinstance(n_tr, bool) or n_tr < 2:
        raise ValueError("n_tr must be an integer >= 2")


def build_truncated(
    coeffs: DerivedCoeffs,
    n_tr: int,
    branch: Branch = Branch.I,
    valley: Valley = Valley.PRIMARY,
) -> TruncatedRep:
    """Project the valley Hamiltonian onto the first n_tr tower levels.

    Every image coefficient must land back on the tower pattern; the one
    raising amplitude out of level n_tr - 1 is discarded and counted.  The
    assembled matrix is cross-checked against the independent closed-form
    entries before it is returned.
    """
    _check_n_tr(n_tr)
    if coeffs.d1(branch) is None:
        raise DegenerateCoefficientsError(
            f"branch {branch.value} envelope undefined at these coefficients"
        )
    holo = holomorphic_tower(branch, valley)
    h = build_hamiltonian(coeffs, valley).to_complex()
    dim = 2 * n_tr
    matrix = np.zeros((dim, dim), dtype=complex)
    dropped = 0
    for level in range(n_tr):
        for component in (0, 1):
            col = 2 * level + component
            image = h.apply(_basis_function(level, component, coeffs, branch, valley))
            image_scale = max(1.0, image.max_abs_coeff())
            for out_component, poly in ((0, image.upper), (1, image.lower)):
                for (m, n), c in poly.sorted_items():
                    exp = m if holo else n
                    on_pattern = (n == 0 if holo else m == 0)
                    if on_pattern:
                        if exp < n_tr:
                            matrix[2 * exp + out_component, col] += complex(c)
                        else:
                            dropped += 1
                    elif abs(complex(c)) > _OFF_PATTERN_REL * image_scale:
                        raise RuntimeError(
                            "image left the tower pattern: "
                            f"coefficient {c!r} at z^{m} zbar^{n}"
                        )
    a_h = abs(complex(coeffs.a_coef) * complex(coeffs.hbar))
    b_h = abs(complex(coeffs.b_coef) * complex(coeffs.hbar))
    k_abs = abs(complex(coeffs.k_coef))
    scale = max(
        1.0,
        a_h * n_tr,
        b_h * n_tr,
        k_abs / a_h if a_h else 0.0,
        k_abs / b_h if b_h else 0.0,
        abs(complex(coeffs.c1)),
        abs(complex(coeffs.c2)),
    )
    check = _closed_form_matrix(coeffs, branch, valley, n_tr)
    worst = float(np.max(np.abs(matrix - check)))
    if worst > _CROSS_CHECK_REL * scale:
        raise RuntimeError(
            f"assembled matrix disagrees with closed-form entries by {worst:.3e}"
        )
    return TruncatedRep(n_tr, matrix, branch, valley, coeffs, dropped)


# ---------------------------------------------------------------------------
# eigensolver with certificates
# ---------------------------------------------------------------------------


class EigensolveError(RuntimeError):
    """Raised when a residual certificate fails; carries the partials."""

    def __init__(self, message: str, values: np.ndarray, residuals: np.ndarray):
        super().__init__(message)
        self.values = values
        self.residuals = residuals


@dataclass(frozen=True)
class EigenResult:
    values: np.ndarray
    residuals: np.ndarray


def eigensolve(m: np.ndarray, tol: float = 1e-9) -> EigenResult:
    """Dense nonsymmetric eigenvalues with per-eigenpair residual bounds.

    Each certificate is ||M v - w v||_2 / ||M||_F for the unit eigenvector
    v returned by the backend.  Values are sorted by (real, imag).  A
    certificate above tol raises EigensolveError with the partial results
    attached.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    values, vectors = np.linalg.eig(m.astype(complex))
    norm = max(float(np.linalg.norm(m, "fro")), np.finfo(float).tiny)
    defects = m @ vectors - vectors * values[np.newaxis, :]
    residuals = np.linalg.norm(defects, axis=0) / norm
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    residuals = residuals[order]
    worst = float(residuals.max())
    if worst > tol:
        raise EigensolveError(
            f"eigenpair residual {worst:.3e} exceeds tol {tol:.3e}",
            values,
            residuals,
        )
    return EigenResult(values, residuals)


# ---------------------------------------------------------------------------
# spectrum classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: Tuple[complex, ...]
    pairs: Tuple[Tuple[complex, complex], ...]
    retained_pairs: Tuple[Tuple[complex, complex], ...]
    unpaired: Tuple[complex, ...]
    n_real: int
    n_complex_pairs: int
    verdict: PhaseVerdict
    max_residual: Optional[float]
    discarded_edge_levels: int


def _canonical_pair(e: complex, f: complex, tol_abs: float) -> Tuple[complex, complex]:
    if abs(e.imag) <= tol_abs and abs(f.imag) <= tol_abs:
        plus, minus = (e, f) if e.real >= f.real else (f, e)
    else:
        plus, minus = (e, f) if e.imag >= f.imag else (f, e)
    return plus, minus


def classify_spectrum(
    eigenvalues: Sequence[complex],
    tol: float = 1e-8,
    residuals: Optional[Sequence[float]] = None,
) -> SpectrumReport:
    """Phase verdict from a raw spectrum of the off-diagonal Hamiltonian.

    The spectrum of the untruncated problem is symmetric under E -> -E, so
    eigenvalues are greedily matched into opposite pairs (largest magnitude
    first, partner chosen to minimize |e + f| within tol * scale).  Edge
    artefacts are then discarded: the two largest pairs when more than two
    pairs exist, plus any near-zero pairs (at most two of which are the
    expected truncation zero modes; more than two near-zero pairs means the
    spectrum collapsed and the verdict is critical).  The verdict over the
    retained pairs is broken if any has imaginary part above tol * scale,
    otherwise unbroken.  Values that find no partner are reported, not
    fatal.  tol must be finite and nonnegative.
    """
    eigs = [complex(e) for e in eigenvalues]
    if not eigs:
        raise ValueError("empty spectrum")
    check_tol("tol", tol)
    max_residual = None
    if residuals is not None:
        res = [float(r) for r in residuals]
        if len(res) != len(eigs):
            raise ValueError("residuals length does not match eigenvalues")
        max_residual = max(res) if res else None
    tol_abs = tol * max(abs(e) for e in eigs)
    remaining = sorted(eigs, key=abs, reverse=True)
    pairs: List[Tuple[complex, complex]] = []
    unpaired: List[complex] = []
    while remaining:
        e = remaining.pop(0)
        if not remaining:
            unpaired.append(e)
            break
        best_idx = min(range(len(remaining)), key=lambda i: abs(e + remaining[i]))
        if abs(e + remaining[best_idx]) <= tol_abs:
            f = remaining.pop(best_idx)
            pairs.append(_canonical_pair(e, f, tol_abs))
        else:
            unpaired.append(e)
    pairs.sort(key=lambda pf: abs(pf[0]))
    top_discard = min(2, max(0, len(pairs) - 2))
    kept = pairs[: len(pairs) - top_discard] if top_discard else list(pairs)
    zero_pairs = [p for p in kept if abs(p[0]) <= tol_abs]
    retained = [p for p in kept if abs(p[0]) > tol_abs]
    discarded_edge = top_discard + len(zero_pairs)
    if len(zero_pairs) > 2 or not retained:
        verdict = PhaseVerdict.CRITICAL
    else:
        broken = any(abs(p[0].imag) > tol_abs for p in retained)
        verdict = PhaseVerdict.BROKEN if broken else PhaseVerdict.UNBROKEN
    n_complex = sum(1 for p in retained if abs(p[0].imag) > tol_abs)
    n_real = 2 * sum(1 for p in retained if abs(p[0].imag) <= tol_abs)
    return SpectrumReport(
        eigenvalues=tuple(eigs),
        pairs=tuple(pairs),
        retained_pairs=tuple(retained),
        unpaired=tuple(unpaired),
        n_real=n_real,
        n_complex_pairs=n_complex,
        verdict=verdict,
        max_residual=max_residual,
        discarded_edge_levels=discarded_edge,
    )


# ---------------------------------------------------------------------------
# scrambling and the invariance check
# ---------------------------------------------------------------------------

_DENSITY_FLOOR = 0.9
_SPECTRUM_INVARIANCE_REL = 1e-9


@dataclass(frozen=True)
class Similarity:
    """A drawn similarity S (read-only) with its seed and cond(S)."""

    matrix: np.ndarray
    seed: int
    cond: float


def draw_similarity(dim: int, seed: int = 0) -> Similarity:
    """Draw the similarity that scramble applies for (dim, seed).

    S = Q1 diag(10**u) Q2 with Haar-ish unitary factors (QR of complex
    Gaussians) and u uniform in [-0.25, 0.25], which destroys the block
    pattern.  The singular values of S are the diagonal, so cond(S) is its
    max/min ratio, at most 10**0.5 by construction; no SVD is needed and no
    draw can be rejected.  S depends only on (dim, seed), so a command that
    runs several verdicts draws it once and passes it to each; the matrix is
    read-only so no verdict can alter what the next one uses.
    """
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )[0]
    q2 = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )[0]
    diag = 10.0 ** rng.uniform(-0.25, 0.25, size=dim)
    matrix = q1 @ (diag[:, np.newaxis] * q2)
    matrix.flags.writeable = False
    return Similarity(matrix, seed, float(diag.max() / diag.min()))


def scramble(rep: TruncatedRep, similarity: Similarity) -> np.ndarray:
    """Return S^-1 M S for the truncation's matrix M, so no sparsity survives.

    S must have been drawn for the matrix's dimension, else ValueError.
    Checks the density of the result.  Spectrum invariance is checked after
    the eigensolve, on its eigenvalues, by check_spectrum_invariance;
    scrambled_eigensolve runs all three.
    """
    dim = rep.matrix.shape[0]
    if similarity.matrix.shape != (dim, dim):
        raise ValueError("similarity was drawn for another dimension")
    s = similarity.matrix
    transformed = np.linalg.solve(s, rep.matrix @ s)
    scale = max(float(np.max(np.abs(transformed))), np.finfo(float).tiny)
    density = float(np.mean(np.abs(transformed) > 1e-12 * scale))
    if density < _DENSITY_FLOOR:
        raise RuntimeError(f"scrambled matrix too sparse: density {density:.3f}")
    return transformed


def reference_spectrum(rep: TruncatedRep) -> Tuple[np.ndarray, float]:
    """Eigenvalues and cond(V) of an unscrambled truncation, from its blocks.

    The blocks and singletons sit where _tower_blocks puts them.  One
    batched eig of the 2x2 stack and a batched SVD of its unit-column
    eigenvectors give the spectrum and eigenvector condition number of the
    whole matrix without a dense decomposition.  Raises RuntimeError if any
    nonzero entry lies outside that pattern.
    """
    m = rep.matrix
    n = rep.n_tr
    if m.shape != (2 * n, 2 * n):
        raise ValueError("matrix shape does not match n_tr")
    pairs, singles = _tower_blocks(n, rep.branch, rep.valley)
    rows, cols = pairs[:, :, np.newaxis], pairs[:, np.newaxis, :]
    on_pattern = np.zeros(m.shape, dtype=bool)
    on_pattern[rows, cols] = True
    on_pattern[singles, singles] = True
    if np.any(m[~on_pattern]):
        raise RuntimeError("matrix has nonzero entries outside the 2x2 tower blocks")
    values, vectors = np.linalg.eig(m[rows, cols])
    # Unit columns put each block's singular values on either side of 1,
    # where the singletons' sit, so the extremes over the blocks give cond(V).
    sv = np.linalg.svd(vectors, compute_uv=False)
    smallest = float(sv.min())
    cond_v = float(sv.max()) / smallest if smallest > 0.0 else math.inf
    return np.concatenate([values.ravel(), m[singles, singles]]), cond_v


def _matching_drift(before: np.ndarray, after: np.ndarray) -> float:
    """Largest distance between ``before`` and ``after`` matched one to one.

    Nearest-neighbour matching, largest ``|before|`` first; lexicographic
    sorting would misalign near-degenerate real parts (e.g. a purely
    imaginary spectrum).  A matched entry is overwritten with inf in a working
    copy, so it is never nearest while a finite one is left, and ``argmin``
    takes the lowest index on a tie.
    """
    if not (np.all(np.isfinite(before)) and np.all(np.isfinite(after))):
        raise RuntimeError("eigenvalues to match are not finite")
    unmatched = after.copy()
    drift = 0.0
    for value in sorted(before, key=abs, reverse=True):
        idx = int(np.argmin(np.abs(unmatched - value)))
        # the scalar abs, as np.abs can differ from it in the last bit
        drift = max(drift, float(abs(after[idx] - value)))
        unmatched[idx] = np.inf
    return drift


def check_spectrum_invariance(
    rep: TruncatedRep, values: Sequence[complex], cond_s: float
) -> None:
    """Raise RuntimeError unless ``values`` reproduce the spectrum of ``rep``.

    ``values`` are the eigenvalues of the scrambled matrix and ``cond_s``
    the cond(S) of the similarity; ``rep`` is the unscrambled
    truncation, whose spectrum and cond(V) come from reference_spectrum.
    """
    before, kappa_v = reference_spectrum(rep)
    after = np.asarray(values, dtype=complex)
    if after.shape != before.shape:
        raise ValueError("eigenvalue count does not match the matrix")
    spread = max(float(np.max(np.abs(before))), 1.0)
    # Bauer-Fike: roundoff in the similarity moves eigenvalues by up to
    # kappa(V) * kappa(S) * eps * ||M||, and kappa(V) diverges as the
    # parameters approach an exceptional point, so the drift budget has to
    # track the measured conditioning instead of being a flat threshold.
    budget = max(
        _SPECTRUM_INVARIANCE_REL * spread,
        100.0 * kappa_v * cond_s * float(np.linalg.norm(rep.matrix))
        * float(np.finfo(float).eps),
    )
    drift = _matching_drift(before, after)
    if drift > budget:
        raise RuntimeError(f"similarity drifted the spectrum by {drift:.3e}")


def scrambled_eigensolve(rep: TruncatedRep, similarity: Similarity) -> EigenResult:
    """Scramble ``rep`` by ``similarity``, eigensolve, check invariance.

    Eigenpair certificates must stay within eigensolve's default tol
    (1e-9), and the invariance budget takes cond(S) from
    ``similarity.cond``.  This is the one route from a truncation to
    certified scrambled eigenvalues: phase_verdict_numeric and the
    ``spectrum`` command both take it, so no caller can skip the invariance
    check.
    """
    result = eigensolve(scramble(rep, similarity))
    check_spectrum_invariance(rep, result.values, similarity.cond)
    return result


# ---------------------------------------------------------------------------
# end-to-end numeric verdicts
# ---------------------------------------------------------------------------


def phase_verdict_numeric(
    p: PhysParams,
    *,
    branch: Branch = Branch.I,
    valley: Valley = Valley.PRIMARY,
    n_tr: int = 40,
    seed: int = 0,
    class_tol: float = 1e-8,
    similarity: Optional[Similarity] = None,
) -> SpectrumReport:
    """Scrambled-truncation spectrum report straight from parameters.

    Builds the truncation, runs scrambled_eigensolve (which checks spectrum
    invariance on the eigensolve's eigenvalues) and classifies the result.
    A command that runs several verdicts passes one
    ``draw_similarity(2 * n_tr, seed)`` as ``similarity``; the eigenvalues
    are bit-identical to those from drawing S here, which is what happens
    when ``similarity`` is None.  A similarity drawn for another seed raises
    ValueError.
    """
    rep = build_truncated(derive_coeffs(p), n_tr, branch, valley)
    if similarity is None:
        similarity = draw_similarity(2 * n_tr, seed)
    elif similarity.seed != seed:
        raise ValueError("similarity was drawn for another seed")
    result = scrambled_eigensolve(rep, similarity)
    return classify_spectrum(result.values, class_tol, result.residuals)


# ---------------------------------------------------------------------------
# the signed lowest level and the exceptional point
# ---------------------------------------------------------------------------

# Multiple of eps * cond(S) * ||M||_F * mu_0 in the level floor (see
# signed_level).  Over parameter draws with hbar in [0.3, 10], n_tr in
# [2, 200], both branches and valleys and points within 1e-13 of the EP,
# the measured level error stayed below 1.4 of those units.
_LEVEL_FLOOR_UNITS = 16.0


@dataclass(frozen=True)
class SignedLevel:
    """Mean Re E^2 of the level-0 pair, read against its roundoff floor.

    The level-0 pair has E^2 = k_coef on branch I and -k_coef on branch
    II, so ``value`` is positive exactly where the spectrum is unbroken, on
    every branch and valley.  ``resolved`` is False when the sign of
    ``value`` cannot be told from roundoff: the two squares differ by more
    than ``floor``, an |Im E^2| exceeds it, or |value| <= floor.
    """

    value: float
    floor: float
    resolved: bool


def signed_level(
    rep: TruncatedRep, values: Sequence[complex], similarity: Similarity
) -> SignedLevel:
    """Signed lowest level of ``rep`` from its scrambled eigenvalues.

    ``values`` are the eigenvalues scrambled_eigensolve returns for ``rep``
    under ``similarity``.  They are squared, the two smallest |E^2| (the
    truncation zero modes) are dropped and the next two, the level-0 pair,
    are read.  The floor is 16 eps cond(S) ||M||_F mu_0, with M the
    unscrambled matrix and mu_0 the larger entry of its level-0 block
    [[0, alpha], [beta, 0]] (block 0 of _tower_blocks): the eigensolve is
    exact for M plus a perturbation D of order eps cond(S) ||M||_F, and
    E^2 = alpha * beta moves by alpha D_21 + beta D_12 at first order.
    This squared view needs no decomposition beyond the eigensolve, and
    unlike E itself, which splits by sqrt(|D| mu_0) near the exceptional
    point, E^2 moves only linearly in D.
    """
    m = rep.matrix
    squares = np.asarray(values, dtype=complex) ** 2
    if squares.shape != (m.shape[0],):
        raise ValueError("eigenvalue count does not match the matrix")
    pair = squares[np.argsort(np.abs(squares), kind="stable")[2:4]]
    i, j = _tower_blocks(rep.n_tr, rep.branch, rep.valley)[0][0]
    mu_0 = max(abs(m[i, j]), abs(m[j, i]))
    floor = (
        _LEVEL_FLOOR_UNITS * float(np.finfo(float).eps) * similarity.cond
        * float(np.linalg.norm(m)) * float(mu_0)
    )
    value = float(np.mean(pair.real))
    resolved = (
        abs(pair[0] - pair[1]) <= floor
        and float(np.max(np.abs(pair.imag))) <= floor
        and abs(value) > floor
    )
    return SignedLevel(value, floor, resolved)


class NoTransitionBracketedError(RuntimeError):
    pass


def find_exceptional_point(
    p: PhysParams,
    vary: Vary,
    lo: float,
    hi: float,
    tol: float = 1e-6,
    *,
    branch: Branch = Branch.I,
    valley: Valley = Valley.PRIMARY,
    n_tr: int = 40,
    seed: int = 0,
    class_tol: float = 1e-8,
) -> float:
    """Illinois regula falsi for the phase boundary on the oracle's level.

    Every point is one oracle run on the one drawn S: build the truncation,
    then scrambled_eigensolve with its residual certificates and invariance
    check, then signed_level.  The endpoints must produce distinct definite
    classify_spectrum verdicts, each agreeing with the sign of a resolved
    level, otherwise NoTransitionBracketedError is raised.  Inside, each
    step is regula falsi on the level, with the Illinois rule (Dowell &
    Jarratt 1971): when the same end of the bracket moves twice running,
    the level kept for the other end is halved.  The step is taken where
    the level is affine: in b0 for Vary.B0, and in lambda**2 for
    Vary.LAMBDA, mapped back with the sign of the bracket end farther from
    0.  The level is even in lambda, so on a bracket across 0 its root
    lies on that end's side, and the step stays inside the bracket.  One
    step lands on the root up to the roundoff in the levels, so a search
    typically takes 1 or 2 steps after the two ends.  The search
    returns the first point whose level is unresolved, i.e. within its
    floor of zero.  Otherwise it returns the bracket midpoint once the
    bracket is no wider than tol or neither the step nor the midpoint
    lands strictly inside it.  A point with no envelope basis
    (DegenerateCoefficientsError) counts as the far side, which steers the
    bracket onto the boundary from the lo side.  tol must be finite,
    nonnegative (0 runs down to adjacent floats unless a level falls
    within its floor first) and below hi - lo, so at least one step runs.
    """
    if not lo < hi:
        raise ValueError("require lo < hi")
    check_tol("tol", tol)
    if tol >= hi - lo:
        raise ValueError(
            f"tol {tol!r} must be below the bracket width {hi - lo!r}"
        )
    _check_n_tr(n_tr)
    similarity = draw_similarity(2 * n_tr, seed)

    def run(x: float) -> Tuple[EigenResult, SignedLevel]:
        rep = build_truncated(
            derive_coeffs(with_varied(p, vary, x)), n_tr, branch, valley
        )
        result = scrambled_eigensolve(rep, similarity)
        return result, signed_level(rep, result.values, similarity)

    ends = []
    for x in (lo, hi):
        try:
            result, level = run(x)
        except DegenerateCoefficientsError:
            # No envelope basis at a vanishing block coefficient.
            ends.append((PhaseVerdict.CRITICAL, None))
        else:
            report = classify_spectrum(result.values, class_tol, result.residuals)
            ends.append((report.verdict, level))
    (v_lo, level_lo), (v_hi, level_hi) = ends
    if v_lo == v_hi or PhaseVerdict.CRITICAL in (v_lo, v_hi):
        raise NoTransitionBracketedError(
            f"no transition bracketed on [{lo!r}, {hi!r}]: "
            f"verdicts {v_lo.value} / {v_hi.value}"
        )
    for x, (verdict, level) in zip((lo, hi), ends):
        unbroken = verdict is PhaseVerdict.UNBROKEN
        if not level.resolved or (level.value > 0) != unbroken:
            raise NoTransitionBracketedError(
                f"no transition bracketed on [{lo!r}, {hi!r}]: verdict "
                f"{verdict.value} at {x!r} but level {level.value!r} "
                f"(floor {level.floor!r})"
            )
    f_lo, f_hi = level_lo.value, level_hi.value
    moved = None  # the end that moved on the previous step
    while hi - lo > tol:
        r = f_lo / (f_lo - f_hi)
        if vary is Vary.LAMBDA:
            # The level is affine in lambda**2 and even in lambda, so step
            # in lambda**2; across 0 the root is on the side of the far end.
            x = math.copysign(
                math.sqrt(lo * lo + (hi * hi - lo * lo) * r),
                hi if abs(hi) > abs(lo) else lo,
            )
        else:
            x = lo + (hi - lo) * r
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        try:
            level = run(x)[1]
        except DegenerateCoefficientsError:
            level = None
        if level is not None and not level.resolved:
            return x
        if level is not None and (level.value > 0) == (f_lo > 0):
            lo, f_lo = x, level.value
            if moved == "lo":
                f_hi *= 0.5
            moved = "lo"
        else:
            hi = x
            if level is not None:
                f_hi = level.value
            if moved == "hi":
                f_lo *= 0.5
            moved = "hi"
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# matrix serialization
# ---------------------------------------------------------------------------


def dump_matrix(m: np.ndarray) -> str:
    """Text form: dimension line, then row-major 're im' lines (repr floats)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    lines = [str(m.shape[0])]
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            lines.append(f"{float(m[i, j].real)!r} {float(m[i, j].imag)!r}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty matrix text")
    dim = int(lines[0])
    if dim <= 0:
        raise ValueError("dimension must be positive")
    if len(lines) != 1 + dim * dim:
        raise ValueError(
            f"expected {dim * dim} entry lines, found {len(lines) - 1}"
        )
    out = np.zeros((dim, dim), dtype=complex)
    for idx, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed entry line: {line!r}")
        out[divmod(idx, dim)] = complex(float(parts[0]), float(parts[1]))
    return out
