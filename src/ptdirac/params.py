"""Closed-form analytic layer: coefficients, energies, critical points.

The model is a massless two-dimensional Dirac particle carrying three
couplings: a linear-in-position oscillator term of strength ``k1``, a
spin-orbit term of strength ``lam`` entering with an imaginary coefficient
(which makes the problem non-Hermitian), and a transverse magnetic field
``b0`` in symmetric gauge.  Factoring the first-order problem on the complex
plane leaves four block coefficients (a_coef, b_coef, c1, c2) and one number
that controls the whole spectrum:

    k_coef = hbar * (2*(v_f**2 - lam**2)*b0*e/c - 4*k1*v_f**2)

Level energies are ``sqrt((n+1)*k_coef)`` on branch I and
``sqrt(-(n+1)*k_coef)`` on branch II, so the sign of ``k_coef`` decides which
branch has a real spectrum.  The sign change is the phase transition; its
numerical twin (an exceptional point of the truncated matrices) lives in
``spectral``.

Everything here is a pure function, generic over ``float`` and
``fractions.Fraction`` field values.  The Fraction path feeds the
exact-arithmetic checks in ``opalg``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple, Union

from .exact import ComplexRational, exact_sqrt

Real = Union[float, Fraction]

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # the smallest normal float; below it the grid is eps tiny
# A rounding of k_coef is at most eps k_scale (derive_coeffs), and this many
# of them is the one answer to "is k_coef distinguishable from 0?": the
# closed form's critical band is _ROUNDINGS eps k_scale and spectral's build
# floor the same per level (worst seen: k_coef 0.98 eps k_scale from the
# exact k of its float inputs next to the EP, 2.1 at subnormal couplings).
_ROUNDINGS = 8.0


class Branch(Enum):
    """Which Gaussian envelope closes the factored first-order system."""

    I = "I"
    II = "II"

    def relabeled(self, valley: Valley) -> Branch:
        """This branch of ``valley`` in DerivedCoeffs.relabeled(valley)."""
        if valley is Valley.PRIMARY:
            return self
        return Branch.II if self is Branch.I else Branch.I


class Valley(Enum):
    """Primary sector, or the one generated from it by time reversal."""

    PRIMARY = "primary"
    TIME_REVERSED = "time_reversed"


class PhaseVerdict(Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"
    CRITICAL = "critical"


class Vary(Enum):
    """Parameter direction along which a transition is searched."""

    LAMBDA = "lambda"
    B0 = "b0"


class DegenerateCoefficientsError(ValueError):
    """A block coefficient 2*(v_f -+ lam) vanished; the factorization degenerates."""


@dataclass(frozen=True)
class PhysParams:
    """Physical inputs in natural units (e = 1, hbar = 1, c = 137 by default).

    ``lam`` is the spin-orbit strength (the name avoids the Python keyword).
    All fields must be finite; v_f, e, c and hbar must be positive.
    """

    v_f: Real
    lam: Real
    k1: Real
    b0: Real
    e: Real = 1.0
    c: Real = 137.0
    hbar: Real = 1.0

    def __post_init__(self) -> None:
        for name in ("v_f", "lam", "k1", "b0", "e", "c", "hbar"):
            value = getattr(self, name)
            if not math.isfinite(float(value)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.v_f > 0:
            raise ValueError("v_f must be positive")
        for name in ("e", "c", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class DerivedCoeffs:
    """Block coefficients of the factored Hamiltonian plus both envelope exponents.

    k_scale is the roundoff size of k_coef: each rounding moves k_coef by at
    most eps k_scale (see derive_coeffs), and eight of them are the one
    answer to "is k_coef distinguishable from 0?".  The closed form's
    critical band is 8 eps k_scale, the numeric oracle's build floor the
    same per level, and verify's critical skips read the band.
    d1_branch_i and d1_branch_ii are None when the corresponding block
    coefficient vanishes (v_f = lam, respectively v_f = -lam); every other
    field still evaluates there, and envelope(branch) is the reader that
    raises.  The time-reversed valley is the primary valley of
    relabeled(valley) on branch.relabeled(valley).
    """

    a_coef: Real
    b_coef: Real
    c1: Real
    c2: Real
    k_coef: Real
    k_scale: Real
    d1_branch_i: Optional[Real]
    d1_branch_ii: Optional[Real]
    hbar: Real

    def d1(self, branch: Branch) -> Optional[Real]:
        return self.d1_branch_i if branch is Branch.I else self.d1_branch_ii

    def envelope(self, branch: Branch) -> Real:
        """d1(branch), or DegenerateCoefficientsError where it is undefined."""
        d = self.d1(branch)
        if d is None:
            raise DegenerateCoefficientsError(
                f"branch {branch.value} envelope undefined at these coefficients"
            )
        return d

    def relabeled(self, valley: Valley) -> DerivedCoeffs:
        """Coefficients whose primary valley is ``valley``: T = (i sigma_y) K
        maps the primary blocks onto the time-reversed ones by swapped()."""
        return self if valley is Valley.PRIMARY else self.swapped()

    def swapped(self) -> "DerivedCoeffs":
        """Relabeling a_coef <-> b_coef, c1 <-> c2.

        This is the map that turns the primary-valley operator blocks into
        the time-reversed ones; it negates k_coef and exchanges the two
        envelope exponents.
        """
        return DerivedCoeffs(
            a_coef=self.b_coef,
            b_coef=self.a_coef,
            c1=self.c2,
            c2=self.c1,
            k_coef=-self.k_coef,
            k_scale=self.k_scale,
            d1_branch_i=self.d1_branch_ii,
            d1_branch_ii=self.d1_branch_i,
            hbar=self.hbar,
        )


def _require_finite(what: str, values: dict) -> None:
    """Raise ValueError naming the first float in ``values`` that is inf or nan."""
    for name, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(
                f"{what} {name} is {value!r}: the parameters overflow floating point"
            )


def derive_coeffs(p: PhysParams) -> DerivedCoeffs:
    """Evaluate the block coefficients from the physical inputs.

    The shared subexpression b0*e/(2c) is deliberate: with it, the float
    identities c1(-lam) == -c2(lam) and c2(-lam) == -c1(lam) hold bitwise,
    which the operator-adjoint tests rely on.  k_scale sums the size of
    every term that cancels on the way to k_coef, inside c1 and c2 too, so
    each rounding here moves k_coef by at most eps k_scale (Higham 2002,
    sec. 3.3).  Below tiny a rounding errs by up to eps tiny / 2 at any
    size, so k_scale adds tiny / 2 times each rounding's reach into k_coef:
    |a b hbar| for half_field, |a hbar b hbar| for the build's envelope
    exponent d, and at most |a hbar| + |b hbar| for each of the other five
    (drive, lower or upper, c1 or c2, and the build's product and sum).
    That term is written symmetric in a <-> b, so k_scale is bitwise the
    same in both valleys, and it is 0 when c1 = c2 = 0, where every level
    is an exact 0.
    Finite float inputs can still overflow here, or underflow a hbar or
    b hbar to 0; a coefficient that comes out inf or nan raises ValueError
    instead of reaching a verdict.
    """
    half_field = p.b0 * p.e / (2 * p.c)
    a_coef = 2 * (p.v_f - p.lam)
    b_coef = 2 * (p.v_f + p.lam)
    drive = p.k1 * p.v_f
    lower = (p.v_f - p.lam) * half_field
    upper = (p.v_f + p.lam) * half_field
    c1 = drive - lower
    c2 = upper - drive
    k_coef = (a_coef * c2 - b_coef * c1) * p.hbar
    k_scale = abs(p.hbar) * (abs(a_coef) * (abs(drive) + abs(upper))
                             + abs(b_coef) * (abs(drive) + abs(lower)))
    if c1 or c2:  # tiny first, so no product of couplings overflows
        a_h, b_h = abs(a_coef * p.hbar), abs(b_coef * p.hbar)
        quarter = 0.25 * _TINY
        k_scale += (quarter * a_h * (b_h + abs(b_coef))
                    + quarter * b_h * (a_h + abs(a_coef)) + 2.5 * _TINY * (a_h + b_h))
    # a float a hbar that underflows to 0 divides as nan, refused below
    d1_i = None if a_coef == 0 else c1 / (a_coef * p.hbar or math.nan)
    d1_ii = None if b_coef == 0 else c2 / (b_coef * p.hbar or math.nan)
    _require_finite("derived coefficient", {
        "a": a_coef, "b": b_coef, "c1": c1, "c2": c2, "k": k_coef,
        "d1": d1_i, "d2": d1_ii})
    return DerivedCoeffs(a_coef, b_coef, c1, c2, k_coef, k_scale, d1_i, d1_ii, p.hbar)


def with_varied(p: PhysParams, vary: Vary, x: Real) -> PhysParams:
    """p with the field named by vary (lam or b0) set to x."""
    return replace(p, **{"lam" if vary is Vary.LAMBDA else "b0": x})


def _exact_principal_sqrt(radicand: Fraction) -> Optional[ComplexRational]:
    """Principal square root as a ComplexRational, or None if irrational."""
    if radicand >= 0:
        root = exact_sqrt(radicand)
        return None if root is None else ComplexRational(root, Fraction(0))
    root = exact_sqrt(-radicand)
    return None if root is None else ComplexRational(Fraction(0), root)


def level_energy_from_coeffs(
    coeffs: DerivedCoeffs, n: int, branch: Branch
) -> Union[complex, ComplexRational]:
    """Positive-root level energy from already-derived coefficients.

    Branch I: E = sqrt((n+1)*k_coef); branch II: E = sqrt(-(n+1)*k_coef).
    Principal square root, so the member with positive real part (or, for a
    negative radicand, +i times a positive number) is the one returned.
    Fraction k_coef with a perfect-square radicand gives an exact
    ComplexRational; anything else falls back to a complex float.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("level index must be a nonnegative integer")
    k = coeffs.k_coef
    radicand = (n + 1) * k if branch is Branch.I else -((n + 1) * k)
    if isinstance(radicand, (int, Fraction)):
        exact = _exact_principal_sqrt(Fraction(radicand))
        if exact is not None:
            return exact
    return cmath.sqrt(complex(radicand))


def level_energy(p: PhysParams, n: int, branch: Branch) -> Tuple[complex, complex]:
    """Energies (+E, -E) of level n: level_energy_from_coeffs as complex floats.

    An exact root (Fraction inputs, perfect-square radicand) is rounded once.
    """
    plus = complex(level_energy_from_coeffs(derive_coeffs(p), n, branch))
    return plus, -plus


def mass_gap(p: PhysParams) -> complex:
    """The n = 0 spectral gap on branch I: sqrt(k_coef) as principal root."""
    return level_energy(p, 0, Branch.I)[0]


def critical_point(p: PhysParams, vary: Vary) -> Optional[Real]:
    """Parameter value where k_coef crosses zero along the chosen direction.

    Vary.LAMBDA: returns v_f*sqrt(1 - 2*k1*c/(b0*e)), or None when the
    radicand is negative (no real critical coupling).  Requires b0*e > 0.

    Vary.B0: returns 2*k1*v_f**2*c/((v_f**2 - lam**2)*e); raises
    DegenerateCoefficientsError when v_f**2 == lam**2.

    Either direction raises ValueError where a float term of its quotient
    overflows, for the quotient would read 0, inf or nan.  Vary.B0 raises
    it too where the quotient underflows to 0 from a nonzero k1: the true
    critical field is then nonzero, only below the float range.
    """
    if vary is Vary.LAMBDA:
        drive = p.b0 * p.e
        if not drive > 0:
            raise ValueError("critical coupling needs b0*e > 0")
        numerator = 2 * p.k1 * p.c
        _require_finite("critical lambda term", {"2 k1 c": numerator, "b0 e": drive})
        radicand = 1 - numerator / drive
        if radicand < 0:
            return None
        return p.v_f * math.sqrt(radicand)
    denom = (p.v_f - p.lam) * (p.v_f + p.lam) * p.e
    if denom == 0:
        raise DegenerateCoefficientsError(
            "v_f**2 == lam**2: critical field undefined"
        )
    try:
        numerator = 2 * p.k1 * p.v_f**2 * p.c
    except OverflowError:  # a float ** raises where * gives inf
        numerator = math.inf
    _require_finite("critical b0 term",
                    {"2 k1 v_f**2 c": numerator, "(v_f**2 - lam**2) e": denom})
    quotient = numerator / denom
    if not quotient and p.k1:
        raise ValueError(
            f"critical b0 is {quotient!r} although k1 is {p.k1!r}: "
            "the parameters underflow floating point"
        )
    return quotient


def _critical_band(coeffs: DerivedCoeffs) -> float:
    """default_critical_tol from coefficients already derived."""
    scale = float(coeffs.k_scale)
    if not math.isfinite(scale):
        raise ValueError("critical band overflows floating point at these parameters")
    return _ROUNDINGS * _EPS * scale


def default_critical_tol(p: PhysParams) -> float:
    """Half-width of the default critical band: 8 eps k_scale.

    k_scale bounds each rounding of k_coef (derive_coeffs), so a k_coef that
    is zero only through roundoff falls inside the band.  It is the build
    floor's count of roundings per level, so spectral's build_floor is this
    band times n_tr.  Raises ValueError when k_scale overflows.
    """
    return _critical_band(derive_coeffs(p))


def check_tol(name: str, tol: float) -> None:
    """Raise ValueError unless tol is finite and nonnegative.

    A nan tolerance would fail every comparison and an infinite one would
    swallow every value, so either would turn a verdict into a default.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")


def classify_phase(p: PhysParams, branch: Branch) -> PhaseVerdict:
    """Sign test on k_coef with a critical band of half-width tol around zero.

    tol is default_critical_tol(p), 8 eps k_scale: eight roundings of k_coef.
    Branch I is unbroken for k_coef > tol and broken for k_coef < -tol;
    branch II is the mirror image, so both branches read critical at the
    same points.
    """
    coeffs = derive_coeffs(p)
    tol = _critical_band(coeffs)
    k = coeffs.k_coef if branch is Branch.I else -coeffs.k_coef
    if k > tol:
        return PhaseVerdict.UNBROKEN
    if k < -tol:
        return PhaseVerdict.BROKEN
    return PhaseVerdict.CRITICAL


def normalizability(p: PhysParams, branch: Branch) -> bool:
    """True when the branch's Gaussian envelope decays at infinity (d1 < 0).

    A vanishing exponent (constant envelope) is not square-integrable and
    reports False.  Raises DegenerateCoefficientsError when the envelope is
    undefined (v_f = -+lam).
    """
    return derive_coeffs(p).envelope(branch) < 0
