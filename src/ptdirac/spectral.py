"""Finite truncations, scrambled spectra and phase classification.

The closed-form machinery in opalg is exact but only reaches states it can
name.  This module drives the complementary numeric route: project the
Hamiltonian onto the first n_tr levels of the monomial-times-Gaussian tower
for one branch and valley, scramble the result by a similarity transform so
no analytic structure survives, then classify the spectrum purely from its
eigenvalues.  Agreement between that verdict and the closed-form one is the
cross-check the test suite leans on.

The Hamiltonian is chiral: it anticommutes with the spin grading.  With the
upper-component functions on the even basis indices and the lower ones on
the odd, the truncation is M = [[0, A], [B, 0]], so M^2 = diag(AB, BA).  In
the tower basis AB is diagonal: its n_tr entries are the squared energies
E^2 = +-(l+1) k of levels l = 0 .. n_tr - 2, plus one structural zero
where the raising chain is cut.  The truncation adds nothing else, so every
level it keeps is exact and there is no edge to discard.

At real parameters every entry of the truncation is i times a real number
(-i lead hbar (l+1) lowering, +-i k / (lead hbar) raising), so A = i a and
B = -i b with a and b real n_tr x n_tr factors, and AB = ab.  build_truncated
writes a and b straight from H's images of the levels; no verdict forms M.
The images come from opalg's batch kernel, one run per spin component with
every level in its own window, so each element of an image belongs to its
level by position, bit-identical to applying H to that level alone; the
build reads the tower off those images as arrays, with no loop over
coefficients.
scramble forms X = S^-1 a b S with one random real similarity S, which
keeps the spectrum and destroys every pattern of ab.  (A spin-graded
diag(S1, S2) on M would give the same X, S1^-1 A S2 S2^-1 B S1, because S2
cancels; one S suffices.)
scrambled_eigensolve runs the certified eigensolve of X, checks its
eigenvalues against the diagonal of ab, sets one roundoff floor and returns
classify_spectrum's report on them.  One verdict makes one real n_tr x n_tr
solve and one real n_tr x n_tr eig.  A real eig still returns complex
eigenvalues, as conjugate pairs, so an E^2 off the real axis still shows
and reads as critical: the real arithmetic assumes nothing about the
verdict.  Near the exceptional point (EP) the pair +-E splits like
sqrt(delta) under a perturbation delta, while E^2 is a simple eigenvalue of
X and moves only linearly in delta, so the floor stays honest there.  One
per-level test against that floor decides both the verdict and whether
level 0's sign is resolved.

S enters the oracle one way: as a Similarity from draw_similarity, which
also carries cond(S), known from the construction.  S depends only on
(n_tr, seed); every command draws it once, passes it to each verdict and
drops it when it returns, and nothing is cached across commands.

The EP is found from the oracle's own numbers, not from the closed form.
Each report carries level 0's E^2, +-k, and whether it clears the floor.
find_exceptional_point checks the bracket ends' verdicts, then runs
Illinois regula falsi on that level and stops at the first point whose
level is within its floor.  Each step is taken in the coordinate in which
the level is affine, b0 itself or lambda**2 (k is even in lambda), so one
step lands on the root up to roundoff.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .params import (
    Branch,
    DegenerateCoefficientsError,
    DerivedCoeffs,
    PhaseVerdict,
    PhysParams,
    Valley,
    Vary,
    _EPS,
    _ROUNDINGS,
    _TINY,
    check_tol,
    derive_coeffs,
    with_varied,
)
from .opalg import _monomial_runs, _sizes, build_hamiltonian

_CERT_TOL = 1e-9
# Both build checks allow _ROUNDINGS roundings of their own scale, eps (scale
# + tiny), below tiny on a grid of spacing eps tiny (worst seen: 0.93 eps off
# the pattern, 2.8 eps against the closed form).  The build floor is
# _ROUNDINGS eps k_scale per level: the closed form's critical band
# (params.default_critical_tol), so build_floor is that band times n_tr.


@dataclass(frozen=True)
class TruncatedRep:
    """The Hamiltonian on the first n_tr tower levels, as two real factors.

    M = [[0, i a], [-i b, 0]]: index l of the read-only n_tr x n_tr ``a``
    and ``b`` is level l, a maps lower components to upper ones and b upper
    to lower.  dropped_count records raising amplitudes that left the
    retained span (exactly one per truncation).  build_floor bounds the
    roundoff of the build in each squared level (see build_truncated).
    """

    n_tr: int
    a: np.ndarray
    b: np.ndarray
    dropped_count: int
    build_floor: float

    @property
    def matrix(self) -> np.ndarray:
        """M on basis 2*l (upper level l) and 2*l+1 (lower), built per call.

        Every real part and every zero is +0.0: a bare -b would give -0.0.
        """
        m = np.zeros((2 * self.n_tr, 2 * self.n_tr), dtype=complex)
        m.imag[0::2, 1::2] = 0.0 + self.a
        m.imag[1::2, 0::2] = 0.0 - self.b
        return m


def _closed_form_factors(
    coeffs: DerivedCoeffs, branch: Branch, n_tr: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The factors a and b of the primary-valley truncation, closed form.

    Derived independently of ``apply``.  Level l + 1 lowers to level l with
    -i lead hbar (l + 1) and level l raises to level l + 1 with the coupling
    i k / (lead hbar) (its negative on branch II), lead being a on branch I
    and b on II.  With k = (a c2 - b c1) hbar that coupling is written
    without forming k, c2 - (b/a) c1 on branch I and (a/b) c2 - c1 on II:
    k, or a c2, can underflow where the coupling does not.  On branch I's
    z^l tower the lowering takes the lower component to the upper one, so
    it sits in A, and the raising in B; on branch II's zbar^l tower the two
    swap.
    """
    hbar = float(coeffs.hbar)
    a, b, c1, c2 = map(float, (coeffs.a_coef, coeffs.b_coef, coeffs.c1, coeffs.c2))
    lead = a if branch is Branch.I else b
    sign = 1.0 if branch is Branch.I else -1.0
    l = np.arange(n_tr - 1)
    lowering = np.zeros((n_tr, n_tr))
    lowering[l, l + 1] = -lead * hbar * (l + 1)
    raising = np.zeros((n_tr, n_tr))
    raising[l + 1, l] = -sign * (c2 - b / a * c1 if branch is Branch.I else a / b * c2 - c1)
    if branch is Branch.I:
        return lowering, raising
    return -raising, -lowering


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

    The valley is relabeled at entry (DerivedCoeffs.relabeled), so the
    build reads the primary valley only: branch I on z^l, II on zbar^l.
    H runs on every level at once in opalg's batch kernel
    (_monomial_runs), one run per spin component with each level in its
    own window, so each element of an image is its level's, bit for bit
    as in an application to that level alone.  The images are read as
    arrays: the tower is the window elements whose off-tower exponent is
    0.  Every coefficient must land back on the tower pattern, within 8
    roundings of its level's scale: the largest of the terms that cancel
    at the off-pattern keys (|c1|, |c2|, |a hbar d|, |b hbar d|) and every
    |c| over the level's keys in that image, a nan |c| left out; the
    first offender in (component, out component, level, m, n) order is
    reported.  The one raising amplitude out of level n_tr - 1 is
    discarded and counted.  Once all images passed that check, each
    image's tower is written into a or b at once; one with a coefficient
    inside a diagonal spin block, or one that is not exactly imaginary,
    raises RuntimeError instead.  The factors are
    cross-checked against the independent closed-form entries, within 8
    roundings of the largest coupling size, before they are returned.  A
    rounding is eps (scale + tiny), so both checks stay at the roundoff of
    their scale at every coupling size; off the pattern tiny grows to
    tiny (1 + |a hbar| + |b hbar|), as d's subnormal rounding reaches
    there times a or b hbar.
    The build floor is 8 eps k_scale n_tr, the closed form's critical band
    times n_tr: level l holds (l + 1) k, and each rounding of k is at most
    eps k_scale (derive_coeffs), so a level whose k is roundoff, at or next
    to the EP, does not read as definite.
    """
    _check_n_tr(n_tr)
    d = float(coeffs.envelope(branch))
    coeffs, branch = coeffs.relabeled(valley), branch.relabeled(valley)
    holo = branch is Branch.I
    h = build_hamiltonian(coeffs, Valley.PRIMARY).to_complex()
    a_h = abs(complex(coeffs.a_coef) * complex(coeffs.hbar))
    b_h = abs(complex(coeffs.b_coef) * complex(coeffs.hbar))
    # the terms that cancel at the off-pattern keys, i c1 zbar against
    # -i a hbar d zbar (and c2, b alike), leave roundoff of their size
    cancelling = max(
        abs(complex(coeffs.c1)),
        abs(complex(coeffs.c2)),
        a_h * abs(d),
        b_h * abs(d),
    )
    grid = _TINY * (1.0 + a_h + b_h)  # d's subnormal rounding, times a or b hbar
    monomials = [(l, 0) if holo else (0, l) for l in range(n_tr)]  # level l's
    dropped, kept = 0, []  # per image: (out component, component, rows, cols, re, im)
    for layout, index, runs in _monomial_runs(h, monomials, d, True):
        origin = np.stack((layout.om, layout.on))[:, None, None]
        keys = np.indices(layout.shape[:2])[..., None] + origin  # (m, n) of each element
        exp, off = keys if holo else keys[::-1]
        on_tower = off == 0
        inside = exp < n_tr
        level = np.broadcast_to(index, layout.shape)
        for component, outs in enumerate(runs):
            # an output that H leaves empty reads as zeros
            outs = [(np.zeros(layout.shape), None) if x is None else x for x in outs]
            sizes = np.stack([_sizes(x) for x in outs])
            # one scale per level, which a nan size never raises, as in max
            scales = np.fmax.reduce(sizes, axis=(0, 1, 2), initial=cancelling)
            tol = _ROUNDINGS * _EPS * (scales + grid)
            bad = ~on_tower & (sizes > tol)
            if bad.any():  # the first in (out component, level, m, n) order
                o, p, i, j = np.argwhere(bad.transpose(0, 3, 1, 2))[0]
                re, im = outs[o]
                c = re[i, j, p].item() if im is None else complex(re[i, j, p], im[i, j, p])
                raise RuntimeError(
                    f"image left the tower pattern: coefficient {c!r} at "
                    f"z^{keys[0, i, j, p]} zbar^{keys[1, i, j, p]}, tolerance {tol[p]:.3e}"
                )
            for o, ((re, im), size) in enumerate(zip(outs, sizes)):
                tower = on_tower & (size != 0)  # images hold no exact zeros
                dropped += int(np.count_nonzero(tower & ~inside))
                tower &= inside
                if tower.any():
                    kept.append((o, component, exp[tower], level[tower], re[tower],
                                 im if im is None else im[tower]))
    a, b = np.zeros((n_tr, n_tr)), np.zeros((n_tr, n_tr))
    for out_component, component, rows, cols, re, im in kept:
        if out_component == component:
            raise RuntimeError("truncation has entries inside a diagonal spin block")
        if im is None or re.any():
            raise RuntimeError("truncation has entries off the imaginary axis")
        if component:
            a[rows, cols] = im
        else:
            b[rows, cols] = -im
    k_abs = abs(complex(coeffs.k_coef))
    scale = max(
        a_h * n_tr,
        b_h * n_tr,
        k_abs / a_h if a_h else 0.0,
        k_abs / b_h if b_h else 0.0,
        abs(complex(coeffs.c1)),
        abs(complex(coeffs.c2)),
    )
    check = _closed_form_factors(coeffs, branch, n_tr)
    worst = max(float(np.max(np.abs(x - y))) for x, y in zip((a, b), check))
    if worst > (tol := _ROUNDINGS * _EPS * (scale + _TINY)):
        raise RuntimeError(
            f"assembled matrix disagrees with closed-form entries by {worst:.3e}, "
            f"tolerance {tol:.3e}"
        )
    a.flags.writeable = False
    b.flags.writeable = False
    build_floor = _ROUNDINGS * _EPS * float(coeffs.k_scale) * n_tr
    return TruncatedRep(n_tr, a, b, dropped, build_floor)


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


def eigensolve(m: np.ndarray) -> EigenResult:
    """Dense nonsymmetric eigenvalues with per-eigenpair residual bounds.

    Each certificate is ||M v - w v||_2 / ||M||_F for the unit eigenvector
    v returned by the backend.  The solve works in m's own arithmetic: a
    real m goes through real LAPACK, which still returns any complex
    eigenvalues as conjugate pairs (values and vectors are then complex),
    and a complex m through complex LAPACK.  Values are sorted by (real,
    imag).  Unless every certificate is at most 1e-9 (a nan one, from an
    overflow in the backend or in M v, is not), EigensolveError is raised
    with the partial results attached; such an overflow raises no numpy
    warning, so the error is the one report of it.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    values, vectors = np.linalg.eig(m)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = max(float(np.linalg.norm(m, "fro")), _TINY)
        defects = m @ vectors - vectors * values[np.newaxis, :]
        residuals = np.linalg.norm(defects, axis=0) / norm
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    residuals = residuals[order]
    worst = float(residuals.max())
    if not worst <= _CERT_TOL:
        raise EigensolveError(
            f"eigenpair residual {worst:.3e} exceeds tol {_CERT_TOL:.3e}",
            values,
            residuals,
        )
    return EigenResult(values, residuals)


# ---------------------------------------------------------------------------
# reading the squared levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    """Verdict over the levels of one squared spectrum.

    ``squares`` are the E^2 as given.  ``plus_roots`` holds E+ of every
    level but the structural zero, smallest |E^2| first; -E+ is the other
    root.  ``max_residual`` is the worst eigenpair certificate.
    ``level`` is Re E^2 of level 0, the first retained one: k_coef on
    branch I and -k_coef on branch II, so positive exactly where the
    spectrum is unbroken, on every branch and valley.  ``resolved`` says
    whether its sign clears the floor (False when there is no level).
    """

    squares: Tuple[complex, ...]
    plus_roots: Tuple[complex, ...]
    verdict: PhaseVerdict
    max_residual: float
    floor: float
    level: float
    resolved: bool


def _levels(squares: np.ndarray) -> np.ndarray:
    """The E^2 of the levels, smallest |E^2| first, structural zero dropped."""
    return squares[np.argsort(np.abs(squares), kind="stable")[1:]]


def _plus_root(square: complex) -> complex:
    """E+ for one E^2, in level_energy's principal-root convention.

    The E^2 of a level is real up to roundoff, so on the negative side the
    sign of its imaginary part is noise; E+ is then the root with
    nonnegative imaginary part, as for a radicand with imaginary part +0.
    """
    root = cmath.sqrt(square)
    return -root if square.real < 0 and root.imag < 0 else root


def classify_spectrum(
    squares: Sequence[complex],
    floor: float,
    residuals: Sequence[float],
) -> SpectrumReport:
    """Phase verdict from the squared spectrum E^2 of a truncation.

    ``squares`` are the eigenvalues of AB (or of its scrambled image), one
    per level plus the structural zero, ``floor`` their roundoff floor
    (see scrambled_eigensolve) and ``residuals`` their certificates, one
    per value.  The smallest |E^2| is the structural zero
    and is dropped.  A level is resolved when |E^2| > floor and
    |Im E^2| <= floor.  The verdict is critical if any level is not, or if
    the levels' signs are mixed; otherwise it is unbroken when every
    E^2 > 0 and broken when every E^2 < 0.  floor must be finite and
    nonnegative.
    """
    values = np.asarray(squares, dtype=complex).ravel()
    if values.size == 0:
        raise ValueError("empty spectrum")
    check_tol("floor", floor)
    res = [float(r) for r in residuals]
    if len(res) != values.size:
        raise ValueError("residuals length does not match eigenvalues")
    levels = _levels(values)
    resolved = (np.abs(levels) > floor) & (np.abs(levels.imag) <= floor)
    positive = levels.real > 0
    if levels.size == 0 or not resolved.all() or positive.any() != positive.all():
        verdict = PhaseVerdict.CRITICAL
    else:
        verdict = PhaseVerdict.UNBROKEN if positive[0] else PhaseVerdict.BROKEN
    return SpectrumReport(
        squares=tuple(complex(e) for e in values),
        plus_roots=tuple(_plus_root(complex(e)) for e in levels),
        verdict=verdict,
        max_residual=max(res),
        floor=floor,
        level=float(levels[0].real) if levels.size else 0.0,
        resolved=bool(resolved[0]) if levels.size else False,
    )


# ---------------------------------------------------------------------------
# scrambling and the invariance check
# ---------------------------------------------------------------------------

_DENSITY_FLOOR = 0.9
# Multiples of the scramble unit in the level floor (see
# scrambled_eigensolve).  Over 7500 draws with v_f, |k1|, |b0| log-uniform
# in [1e-12, 1e12], hbar in [1e-5, 1e5], n_tr in [2, 120], every branch and
# valley, 45% at or within 1e-10 of the EP and 20% next to lambda = +-v_f,
# the eigenvalues of X stayed within 5.5 scramble units of the diagonal of
# AB; 3000 more draws with k1 down to the subnormal floats stayed within 4.0.
_SCRAMBLE_FLOOR_UNITS = 16.0


@dataclass(frozen=True)
class Similarity:
    """The similarity S that scramble applies for one (n_tr, seed).

    ``matrix`` is the read-only n_tr x n_tr S and ``cond`` is cond(S).
    """

    matrix: np.ndarray
    cond: float


def draw_similarity(n_tr: int, seed: int = 0) -> Similarity:
    """Draw S = Q1 diag(10**u) Q2 for (n_tr, seed).

    Q1 and Q2 are Haar-ish orthogonal matrices (QR of real Gaussians), so S
    is real like the AB it scrambles, and u is uniform in [-0.25, 0.25],
    all from one generator seeded with ``seed``.
    The singular values of S are the diagonal, so cond(S) is its max/min
    ratio, at most 10**0.5 by construction; no SVD is needed and no draw
    can be rejected.  S depends only on (n_tr, seed), so a command that
    runs several verdicts draws it once and passes it to each; the matrix
    is read-only so no verdict can alter what the next one uses.
    """
    _check_n_tr(n_tr)
    rng = np.random.default_rng(seed)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n_tr, n_tr)))[0] for _ in range(2))
    diag = 10.0 ** rng.uniform(-0.25, 0.25, size=n_tr)
    matrix = q1 @ (diag[:, np.newaxis] * q2)
    matrix.flags.writeable = False
    return Similarity(matrix, float(diag.max() / diag.min()))


def scramble(rep: TruncatedRep, similarity: Similarity) -> np.ndarray:
    """Return the real X = S^-1 (a (b S)) for rep's factors, AB = ab.

    S must have been drawn for rep's n_tr, else ValueError.  Chirality and
    the imaginary axis were checked exactly where the factors were built
    (build_truncated); this checks that X is dense.  An X that is exactly
    zero (b at k = 0 exactly) has no pattern to hide and is exempt.
    Spectrum invariance is checked after the eigensolve, by
    scrambled_eigensolve.
    """
    s = similarity.matrix
    if s.shape != (rep.n_tr, rep.n_tr):
        raise ValueError("similarity was drawn for another dimension")
    x = np.linalg.solve(s, rep.a @ (rep.b @ s))
    scale = float(np.max(np.abs(x)))
    density = float(np.mean(np.abs(x) > 1e-12 * scale))
    if scale > 0.0 and density < _DENSITY_FLOOR:
        raise RuntimeError(f"scrambled matrix too sparse: density {density:.3f}")
    return x


def check_spectrum_invariance(
    reference: Sequence[complex], values: Sequence[complex], budget: float
) -> None:
    """Raise RuntimeError unless ``values`` reproduce ``reference``.

    Both are sorted by (real, imag) and compared entry by entry; the
    largest distance must not exceed ``budget`` (a nan distance fails).
    The squared levels are real up to roundoff and distinct levels lie |k|
    apart, so sorting pairs each value with its own level; for real parts,
    sorted matching is the one with the least largest distance.
    """
    before = np.sort_complex(np.asarray(reference, dtype=complex))
    after = np.sort_complex(np.asarray(values, dtype=complex))
    if before.shape != after.shape:
        raise ValueError("eigenvalue count does not match the matrix")
    drift = float(np.max(np.abs(after - before)))
    if not drift <= budget:
        raise RuntimeError(
            f"similarity drifted the spectrum by {drift:.3e}, tolerance {budget:.3e}"
        )


def scrambled_eigensolve(rep: TruncatedRep, similarity: Similarity) -> SpectrumReport:
    """Scramble ``rep``, eigensolve X = S^-1 AB S, check invariance, classify.

    Eigenpair certificates must stay within eigensolve's 1e-9.  This is
    the one route from a truncation to a report: phase_verdict_numeric
    (and through it find_exceptional_point) and the ``spectrum`` command
    all take it, so no caller can skip the check.

    The floor bounds the roundoff in each returned E^2.  It has two parts.

    - Building the truncation: rep.build_floor, which build_truncated
      sizes from the terms that cancel in k.
    - The similarity.  AB is diagonal, so the eigenvectors of X are the
      columns of S^-1 and Bauer-Fike bounds each eigenvalue's move by
      cond(S) times the perturbation of X.  A and B hold at most one
      entry per row, so A (B S) is exact to a few eps per entry; carried
      through S^-1 that perturbs X by a few eps cond(S) ||AB||, and
      ||AB||_2 = max |E^2| <= ||X||_2.  The solve's backward error adds
      eps cond(S) ||X|| and the eig eps ||X||.  With cond(S) at most
      10**0.5, each E^2 moves by a small multiple of the unit
      eps cond(S)**2 ||X||_F.  The largest move measured was 5.5 units;
      the floor takes 16.  X holds the couplings, so this term scales
      with |k| and vanishes at the EP, where the E^2 are a simple
      eigenvalue crossing 0 and not the Jordan block that the pair +-E
      sees.

    The invariance check holds the eigenvalues to the similarity part of
    the floor, 16 units: the reference, the diagonal of AB, is formed from
    the same entries, so only the scramble separates the two, and every
    run checks the term that the floor assumes.
    """
    # a factor below 2**-240 is scaled up by a power of two, exactly, so no
    # product leaves the normal floats; eigenvalues and radius scale back
    exps = [math.frexp(float(np.max(np.abs(f))))[1] for f in (rep.a, rep.b)]
    a, b = (np.ldexp(f, -e) if e < -240 else f for f, e in zip((rep.a, rep.b), exps))
    back = math.prod(2.0**e for e in exps if e < -240)
    x = scramble(replace(rep, a=a, b=b), similarity)
    result = eigensolve(x)
    unit = _EPS * similarity.cond**2
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
        if math.isinf(norm):  # the sum of squares overflows: scale X by 2**-e
            e = math.frexp(float(np.max(np.abs(x))))[1]
            scramble_unit = math.ldexp(unit * float(np.linalg.norm(np.ldexp(x, -e))), e)
        else:
            scramble_unit = unit * norm
    radius = _SCRAMBLE_FLOOR_UNITS * scramble_unit
    check_spectrum_invariance(np.einsum("ij,ji->i", a, b), result.values, radius)
    floor = rep.build_floor + radius * back
    return classify_spectrum(result.values * back, floor, result.residuals)


# ---------------------------------------------------------------------------
# end-to-end numeric verdicts
# ---------------------------------------------------------------------------


def phase_verdict_numeric(
    p: PhysParams,
    similarity: Similarity,
    *,
    branch: Branch = Branch.I,
    valley: Valley = Valley.PRIMARY,
) -> SpectrumReport:
    """Scrambled-truncation spectrum report straight from parameters.

    Builds the truncation on as many levels as S has rows, so
    ``draw_similarity(n_tr, seed)`` fixes both numbers, and runs
    scrambled_eigensolve, which checks spectrum invariance on the
    eigensolve's eigenvalues and classifies them.
    """
    n_tr = similarity.matrix.shape[0]
    rep = build_truncated(derive_coeffs(p), n_tr, branch, valley)
    return scrambled_eigensolve(rep, similarity)


# ---------------------------------------------------------------------------
# the exceptional point
# ---------------------------------------------------------------------------


class NoTransitionBracketedError(RuntimeError):
    pass


def find_exceptional_point(
    p: PhysParams,
    vary: Vary,
    lo: float,
    hi: float,
    similarity: Similarity,
    tol: float = 1e-6,
    *,
    branch: Branch = Branch.I,
    valley: Valley = Valley.PRIMARY,
) -> float:
    """Illinois regula falsi for the phase boundary on the oracle's level.

    Every point is one phase_verdict_numeric run on the given S, so
    ``draw_similarity(n_tr, seed)`` fixes the truncation size and the
    scramble of the whole search.  The endpoints must produce distinct
    definite verdicts, otherwise NoTransitionBracketedError is raised.  Inside, each step is regula
    falsi on the reports' level 0, with the Illinois rule (Dowell & Jarratt
    1971): when the same end of the bracket moves twice running, the level
    kept for the other end is halved.  The step is taken where
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

    def run(x: float) -> Optional[SpectrumReport]:
        try:
            return phase_verdict_numeric(
                with_varied(p, vary, x), similarity, branch=branch, valley=valley
            )
        except DegenerateCoefficientsError:
            return None  # no envelope basis at a vanishing block coefficient

    ends = [run(x) for x in (lo, hi)]
    v_lo, v_hi = (PhaseVerdict.CRITICAL if end is None else end.verdict for end in ends)
    if v_lo == v_hi or PhaseVerdict.CRITICAL in (v_lo, v_hi):
        raise NoTransitionBracketedError(
            f"no transition bracketed on [{lo!r}, {hi!r}]: "
            f"verdicts {v_lo.value} / {v_hi.value}"
        )
    f_lo, f_hi = (end.level for end in ends)
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
        report = run(x)
        if report is not None and not report.resolved:
            return x
        if report is not None and (report.level > 0) == (f_lo > 0):
            lo, f_lo = x, report.level
            if moved == "lo":
                f_hi *= 0.5
            moved = "lo"
        else:
            hi = x
            if report is not None:
                f_hi = report.level
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
