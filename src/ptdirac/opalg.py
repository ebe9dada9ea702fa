"""Operator algebra on polynomial-times-Gaussian spinor functions.

Functions are finite sums of monomials z^m zbar^n multiplying a shared
Gaussian envelope exp(d*z*zbar).  That space is closed under the four
primitive operations the model needs (d/dz, d/dzbar, multiply by z, multiply
by zbar), so everything an operator does to such a function is computed
without discretization error: in float mode the only error is coefficient
round-off, and with Fraction/ComplexRational coefficients there is none at
all.  The literal-zero assertions in the test suite run on the exact path.

Operators are sums of (scalar coefficient) x (2x2 spin matrix) x (word of
primitives); composition concatenates words, so commutators, adjoints and
similarity under antilinear symmetries are all finite bookkeeping.

Application is compiled: each operator, on first use, turns its terms into
a plan of per-term factors (coefficient times spin entry, computed once) and
the primitive steps its words need, with shared word tails stepped once.
Each primitive has one dict-level rule (``_step_*``) that the plan and the
WeightedPolynomial methods both run, in the float and the exact mode alike,
so both modes take one code path and float round-off does not depend on it.
An application is one pass: coefficient dicts are read in insertion order,
never sorted, and both spin outputs fill in one sweep over the plan; the
primitive-steps comment below says why no order can move a bit.  The
antilinear maps are one pass too, with no intermediate polynomial: each
output key gets one term per nonzero spin entry, in entry order, exactly as
conjugating, mapping and mixing as separate polynomials adds them.

The residuals of ``jc_verify`` take one driver in both modes, and the
exact one runs that same kernel on Python ints: the substitution z = q u,
with q the denominator of the probes' envelope exponent, and one lcm clear
every denominator before the first step, and each nonzero image key's size
is read back from two correctly rounded int quotients.

Layout:
  - WeightedPolynomial / SpinorFunction: the function space.
  - OperatorExpr: linear operators, composition, formal adjoint, collected
    canonical form.
  - residue_groups / owner_rule: one application for a group of
    monomials whose images cannot meet, and the source of each image key.
  - build_hamiltonian / block_operators: the model's first-order blocks for
    either valley.
  - AntilinearOp and the PT machinery: transforms, eigenfactors, commutator
    residuals, time-reversal conjugation.
  - analytic_state / eigen_residual: closed-form level states and their
    defect under the full first-order eigen-equation.
  - lll_state / ladder_raise / jc_verify: zero modes, the pseudo-bosonic
    ladder and the spin-ladder factorization check.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .exact import ONE, ComplexRational
from .params import Branch, DerivedCoeffs, Valley, level_energy_from_coeffs

Coeff = Union[int, float, complex, Fraction, ComplexRational]
Monomial = Tuple[int, int]

_EXACT_TYPES = (int, Fraction, ComplexRational)


def _times_i(x: Coeff) -> Coeff:
    """i*x without leaving the operand's arithmetic."""
    if isinstance(x, ComplexRational):
        # i(a + b*i)/q = (-b + a*i)/q, still a canonical triple
        return ComplexRational(-x._b, x._a, x._q)
    if isinstance(x, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(x, (int, Fraction)):
        return ComplexRational(0, x.numerator, x.denominator)
    return 1j * x


def _is_exact_scalar(x: object) -> bool:
    return isinstance(x, _EXACT_TYPES) and not isinstance(x, bool)


def _acc(table: Dict, key, value) -> None:
    # Seeding with a typed zero would force a mixed-mode addition; avoid it.
    prev = table.get(key)
    table[key] = value if prev is None else prev + value


def _nan_max(values: Sequence[float]) -> float:
    """Largest of nonnegative ``values`` (0.0 if none), nan once any is nan.

    Builtin max keeps a nan only when it comes first, so a residual's nan
    would hang on key order.  Over nonnegative values the sum is nan
    exactly when some value is.
    """
    return math.nan if math.isnan(sum(values)) else max(values, default=0.0)


# ---------------------------------------------------------------------------
# primitive steps
# ---------------------------------------------------------------------------
# One rule per primitive, on coefficient tables: a step maps the
# (monomial, coefficient) items of a function, in any order, to the
# coefficient dict of its image, with exact zeros pruned.  The order cannot
# change a bit of the image: a key gets at most two terms (for d/dz, the
# derivative of (m+1, n) and the envelope term of (m, n-1); the shifts are
# injective), and a sum of two terms is commutative.  WeightedPolynomial's
# methods and the compiled OperatorExpr kernel both run these.


def _step_dz(items, d) -> Dict[Monomial, Coeff]:
    out: Dict[Monomial, Coeff] = {}
    get = out.get
    envelope = bool(d)  # tested once: an exact d's test is a Fraction call
    for (m, n), c in items:
        if m > 0:
            key = (m - 1, n)
            prev = get(key)
            out[key] = c * m if prev is None else prev + c * m
        if envelope:
            key = (m, n + 1)
            prev = get(key)
            out[key] = c * d if prev is None else prev + c * d
    return {k: c for k, c in out.items() if c}


def _step_dzbar(items, d) -> Dict[Monomial, Coeff]:
    out: Dict[Monomial, Coeff] = {}
    get = out.get
    envelope = bool(d)  # tested once: an exact d's test is a Fraction call
    for (m, n), c in items:
        if n > 0:
            key = (m, n - 1)
            prev = get(key)
            out[key] = c * n if prev is None else prev + c * n
        if envelope:
            key = (m + 1, n)
            prev = get(key)
            out[key] = c * d if prev is None else prev + c * d
    return {k: c for k, c in out.items() if c}


# Shifts are injective; nonzero in, nonzero out.
def _step_z(items, d) -> Dict[Monomial, Coeff]:
    return {(m + 1, n): c for (m, n), c in items}


def _step_zbar(items, d) -> Dict[Monomial, Coeff]:
    return {(m, n + 1): c for (m, n), c in items}


# ---------------------------------------------------------------------------
# function space
# ---------------------------------------------------------------------------


class WeightedPolynomial:
    """Finite sum of z^m zbar^n monomials times an envelope exp(d*z*zbar).

    Coefficients are complex numbers or ComplexRational; d is real (float or
    Fraction).  Exact zeros are pruned on construction, so round-off that is
    merely tiny survives and can be measured.
    """

    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs: Dict[Monomial, Coeff], d: Union[float, Fraction]):
        clean: Dict[Monomial, Coeff] = {}
        for (m, n), c in coeffs.items():
            if m < 0 or n < 0:
                raise ValueError("monomial exponents must be nonnegative")
            if c:
                clean[(m, n)] = c
        self.coeffs = clean
        self.d = d

    @classmethod
    def zero(cls, d) -> "WeightedPolynomial":
        return cls({}, d)

    @classmethod
    def monomial(cls, m: int, n: int, coeff: Coeff = 1, d=0.0) -> "WeightedPolynomial":
        return cls({(m, n): coeff}, d)

    def is_zero(self) -> bool:
        return not self.coeffs

    def sorted_items(self):
        return sorted(self.coeffs.items())

    def _require_same_d(self, other: "WeightedPolynomial") -> None:
        if not self.d == other.d:
            raise ValueError("envelope exponents differ")

    def add(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        self._require_same_d(other)
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            _acc(out, mono, c)
        return WeightedPolynomial(out, self.d)

    def sub(self, other: "WeightedPolynomial") -> "WeightedPolynomial":
        return self.add(other.neg())

    def neg(self) -> "WeightedPolynomial":
        return WeightedPolynomial({k: -c for k, c in self.coeffs.items()}, self.d)

    def scaled(self, value: Coeff) -> "WeightedPolynomial":
        return WeightedPolynomial({k: value * c for k, c in self.coeffs.items()}, self.d)

    def diff_z(self) -> "WeightedPolynomial":
        return WeightedPolynomial(_step_dz(self.sorted_items(), self.d), self.d)

    def diff_zbar(self) -> "WeightedPolynomial":
        return WeightedPolynomial(_step_dzbar(self.sorted_items(), self.d), self.d)

    def shift_z(self) -> "WeightedPolynomial":
        return WeightedPolynomial(_step_z(self.sorted_items(), self.d), self.d)

    def shift_zbar(self) -> "WeightedPolynomial":
        return WeightedPolynomial(_step_zbar(self.sorted_items(), self.d), self.d)

    def max_abs_coeff(self) -> float:
        return _nan_max([float(abs(c)) for c in self.coeffs.values()])

    def is_exact(self) -> bool:
        return _is_exact_scalar(self.d) and all(
            _is_exact_scalar(c) for c in self.coeffs.values()
        )

    def to_complex(self) -> "WeightedPolynomial":
        return WeightedPolynomial(
            {k: complex(c) for k, c in self.coeffs.items()}, float(self.d)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedPolynomial):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.d, tuple(self.sorted_items())))

    def __repr__(self) -> str:
        return f"WeightedPolynomial({self.coeffs!r}, d={self.d!r})"


class SpinorFunction:
    """Two WeightedPolynomial components sharing one envelope.

    A spinor carries no energy: a closed-form state's energy is
    level_energy_from_coeffs of its level, read where it is needed.
    """

    __slots__ = ("upper", "lower")

    def __init__(self, upper: WeightedPolynomial, lower: WeightedPolynomial):
        if not upper.d == lower.d:
            raise ValueError("component envelopes differ")
        self.upper = upper
        self.lower = lower

    @property
    def d(self):
        return self.upper.d

    def is_zero(self) -> bool:
        return self.upper.is_zero() and self.lower.is_zero()

    def add(self, other: "SpinorFunction") -> "SpinorFunction":
        return SpinorFunction(self.upper.add(other.upper), self.lower.add(other.lower))

    def sub(self, other: "SpinorFunction") -> "SpinorFunction":
        return SpinorFunction(self.upper.sub(other.upper), self.lower.sub(other.lower))

    def scaled(self, value: Coeff) -> "SpinorFunction":
        return SpinorFunction(self.upper.scaled(value), self.lower.scaled(value))

    def max_abs_coeff(self) -> float:
        parts = (self.upper.coeffs, self.lower.coeffs)
        return _nan_max([float(abs(c)) for coeffs in parts for c in coeffs.values()])

    def is_exact(self) -> bool:
        return self.upper.is_exact() and self.lower.is_exact()

    def to_complex(self) -> "SpinorFunction":
        return SpinorFunction(self.upper.to_complex(), self.lower.to_complex())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinorFunction):
            return NotImplemented
        return self.upper == other.upper and self.lower == other.lower

    def __hash__(self):
        return hash((self.upper, self.lower))

    def __repr__(self) -> str:
        return f"SpinorFunction(upper={self.upper!r}, lower={self.lower!r})"


def standard_probes(
    d=-0.25, *, max_degree: int = 6, random_count: int = 50, seed: int = 1234
) -> List[SpinorFunction]:
    """Deterministic probe set: every monomial of total degree <= max_degree
    in each spin component, plus seeded random-coefficient spinors."""
    probes: List[SpinorFunction] = []
    zero = WeightedPolynomial.zero(d)
    for total in range(max_degree + 1):
        for m in range(total + 1):
            mono = WeightedPolynomial.monomial(m, total - m, 1.0, d)
            probes.append(SpinorFunction(mono, zero))
            probes.append(SpinorFunction(zero, mono))
    rng = random.Random(seed)
    exponents = [
        (m, n) for m in range(max_degree + 1) for n in range(max_degree + 1 - m)
    ]
    for _ in range(random_count):
        comps = []
        for _component in range(2):
            coeffs: Dict[Monomial, Coeff] = {}
            for key in rng.sample(exponents, 6):
                coeffs[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            comps.append(WeightedPolynomial(coeffs, d))
        probes.append(SpinorFunction(comps[0], comps[1]))
    return probes


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


class Prim(Enum):
    DZ = "dz"
    DZBAR = "dzbar"
    MUL_Z = "z"
    MUL_ZBAR = "zbar"


_ADJOINT_MAP = {
    Prim.DZ: (Prim.DZBAR, -1),
    Prim.DZBAR: (Prim.DZ, -1),
    Prim.MUL_Z: (Prim.MUL_ZBAR, 1),
    Prim.MUL_ZBAR: (Prim.MUL_Z, 1),
}

_TIME_REVERSAL_MAP = {
    Prim.DZ: Prim.DZBAR,
    Prim.DZBAR: Prim.DZ,
    Prim.MUL_Z: Prim.MUL_ZBAR,
    Prim.MUL_ZBAR: Prim.MUL_Z,
}


_STEPS = {
    Prim.DZ: _step_dz,
    Prim.DZBAR: _step_dzbar,
    Prim.MUL_Z: _step_z,
    Prim.MUL_ZBAR: _step_zbar,
}


Matrix = Tuple[Tuple[Coeff, Coeff], Tuple[Coeff, Coeff]]

IDENTITY2: Matrix = ((1, 0), (0, 1))
E01: Matrix = ((0, 1), (0, 0))
E10: Matrix = ((0, 0), (1, 0))


def _mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    return tuple(
        tuple(
            m1[i][0] * m2[0][j] + m1[i][1] * m2[1][j] for j in (0, 1)
        )
        for i in (0, 1)
    )  # type: ignore[return-value]


def _mat_conj(m: Matrix) -> Matrix:
    return tuple(tuple(e.conjugate() for e in row) for row in m)  # type: ignore[return-value]


def _mat_conj_t(m: Matrix) -> Matrix:
    return (
        (m[0][0].conjugate(), m[1][0].conjugate()),
        (m[0][1].conjugate(), m[1][1].conjugate()),
    )


@dataclass(frozen=True)
class OperatorTerm:
    coeff: Coeff
    matrix: Matrix
    word: Tuple[Prim, ...]


class _Plan(NamedTuple):
    """An operator compiled for application.

    Images are (monomial, coefficient) items.  Images 0 and 1 are the
    input's upper and lower component; ``nodes[k] = (source, step)`` makes
    image 2 + k by one primitive step from an earlier image, so a word tail
    that several terms share is stepped through once.  ``entries`` are
    ``(out_component, image, factor)`` in the order the terms accumulate,
    one per nonzero spin entry, with ``factor = term.coeff * entry``.
    ``spin_scalar`` says whether every matrix is a multiple of the identity.
    ``reach`` is the longest word: no image key, and no key of an image on
    the way, lies farther than that from its source in either exponent.
    """

    nodes: Tuple[Tuple[int, Callable], ...]
    entries: Tuple[Tuple[int, int, Coeff], ...]
    spin_scalar: bool
    reach: int


def _word_image(nodes: List, index: Dict, component: int, word) -> int:
    """Image index of ``word`` (applied right to left) on an input
    component, appending to ``nodes`` the steps not already planned."""
    src = component
    for k, prim in enumerate(reversed(word), 1):
        key = (component, word[len(word) - k :])
        if key not in index:
            index[key] = 2 + len(nodes)
            nodes.append((src, _STEPS[prim]))
        src = index[key]
    return src


def _compile(terms: Sequence[OperatorTerm]) -> _Plan:
    nodes: List = []
    index: Dict = {}
    entries = []
    for t in terms:
        for out, row in enumerate(t.matrix):
            for inp, entry in enumerate(row):
                if entry:
                    image = _word_image(nodes, index, inp, t.word)
                    entries.append((out, image, t.coeff * entry))
    spin_scalar = all(
        not (m01 or m10) and m00 == m11
        for (m00, m01), (m10, m11) in (t.matrix for t in terms)
    )
    reach = max((len(t.word) for t in terms), default=0)
    return _Plan(tuple(nodes), tuple(entries), spin_scalar, reach)


def _run(plan: _Plan, upper, lower, d) -> Tuple[Dict, Dict]:
    """Both output components' coefficients, in one sweep over the entries.

    A key gets at most one term per entry, added in ``plan.entries`` order
    whatever order the images' items come in.
    """
    images = [upper, lower]
    for src, step in plan.nodes:
        images.append(step(images[src], d).items())
    outs: Tuple[Dict, Dict] = ({}, {})
    for o, image, factor in plan.entries:
        acc = outs[o]
        get = acc.get
        for mono, c in images[image]:
            prev = get(mono)
            acc[mono] = factor * c if prev is None else prev + factor * c
    return outs


class OperatorExpr:
    """Finite sum of scalar x (2x2 matrix) x (word of primitives) terms.

    Words act on the function space and are applied right to left; the
    matrix mixes spin components; the scalar multiplies everything.  The
    terms are fixed at construction, and the first application compiles
    them once into a plan (``_Plan``) that later applications reuse; the
    float form from ``to_complex`` is likewise made once and kept.
    """

    __slots__ = ("terms", "_plan", "_complex")

    def __init__(self, terms: Sequence[OperatorTerm]):
        self.terms = tuple(t for t in terms if t.coeff)
        self._plan: Optional[_Plan] = None
        self._complex: Optional[OperatorExpr] = None

    def _compiled(self) -> _Plan:
        if self._plan is None:
            self._plan = _compile(self.terms)
        return self._plan

    # -- constructors -------------------------------------------------

    @classmethod
    def from_word(cls, coeff: Coeff, matrix: Matrix, word) -> "OperatorExpr":
        return cls([OperatorTerm(coeff, matrix, tuple(word))])

    @classmethod
    def identity(cls) -> "OperatorExpr":
        return cls.from_word(1, IDENTITY2, ())

    @classmethod
    def scalar(cls, c: Coeff) -> "OperatorExpr":
        return cls.from_word(c, IDENTITY2, ())

    @classmethod
    def spin(cls, matrix: Matrix) -> "OperatorExpr":
        return cls.from_word(1, matrix, ())

    @classmethod
    def dz(cls) -> "OperatorExpr":
        return cls.from_word(1, IDENTITY2, (Prim.DZ,))

    @classmethod
    def dzbar(cls) -> "OperatorExpr":
        return cls.from_word(1, IDENTITY2, (Prim.DZBAR,))

    @classmethod
    def mul_z(cls) -> "OperatorExpr":
        return cls.from_word(1, IDENTITY2, (Prim.MUL_Z,))

    @classmethod
    def mul_zbar(cls) -> "OperatorExpr":
        return cls.from_word(1, IDENTITY2, (Prim.MUL_ZBAR,))

    @classmethod
    def pi_z(cls, hbar) -> "OperatorExpr":
        """Kinetic momentum -i*hbar*d/dz."""
        return cls.from_word(_times_i(-hbar), IDENTITY2, (Prim.DZ,))

    @classmethod
    def pi_zbar(cls, hbar) -> "OperatorExpr":
        return cls.from_word(_times_i(-hbar), IDENTITY2, (Prim.DZBAR,))

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        return OperatorExpr(self.terms + other.terms)

    def __neg__(self) -> "OperatorExpr":
        return self.scaled(-1)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def scaled(self, c: Coeff) -> "OperatorExpr":
        return OperatorExpr(
            [OperatorTerm(c * t.coeff, t.matrix, t.word) for t in self.terms]
        )

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(
                    OperatorTerm(
                        t1.coeff * t2.coeff,
                        _mat_mul(t1.matrix, t2.matrix),
                        t1.word + t2.word,
                    )
                )
        return OperatorExpr(out)

    # -- application ----------------------------------------------------

    def apply(self, s: SpinorFunction) -> SpinorFunction:
        """The operator's image of a spinor, exact in exact arithmetic.

        Runs the compiled plan: each distinct word tail steps once per input
        component through the dict-level primitive rules (``_step_*``),
        then one sweep over the plan's entries adds ``factor * c`` over
        each entry's image into its output component.  Every key sums its
        terms in term order, whatever the order of the items, so float
        round-off follows the term-by-term reference bit for bit; the float
        and the exact mode share this one path.
        """
        d = s.d
        upper, lower = _run(
            self._compiled(), s.upper.coeffs.items(), s.lower.coeffs.items(), d
        )
        return SpinorFunction(WeightedPolynomial(upper, d), WeightedPolynomial(lower, d))

    def apply_poly(self, wp: WeightedPolynomial) -> WeightedPolynomial:
        """Apply a spin-scalar operator to a single component.

        The same plan as ``apply``, run on ``(wp, 0)``: the upper output.
        """
        plan = self._compiled()
        if not plan.spin_scalar:
            raise ValueError(
                "operator mixes spin components; apply it to a SpinorFunction"
            )
        upper, _ = _run(plan, wp.coeffs.items(), (), wp.d)
        return WeightedPolynomial(upper, wp.d)

    # -- structural maps -------------------------------------------------

    def adjoint(self) -> "OperatorExpr":
        """Formal adjoint under the flat inner product: (d/dz)* = -d/dzbar,
        (z.)* = (zbar.), matrices go to conjugate transpose."""
        out = []
        for t in self.terms:
            sign = 1
            word = []
            for prim in reversed(t.word):
                mapped, s = _ADJOINT_MAP[prim]
                word.append(mapped)
                sign *= s
            coeff = t.coeff.conjugate()
            if sign < 0:
                coeff = -coeff
            out.append(OperatorTerm(coeff, _mat_conj_t(t.matrix), tuple(word)))
        return OperatorExpr(out)

    def collected(self) -> Dict[Tuple[int, int, Tuple[Prim, ...]], Coeff]:
        """Canonical form: coefficient per (matrix position, word)."""
        table: Dict[Tuple[int, int, Tuple[Prim, ...]], Coeff] = {}
        for t in self.terms:
            for i in (0, 1):
                for j in (0, 1):
                    entry = t.matrix[i][j]
                    if not entry:
                        continue
                    _acc(table, (i, j, t.word), t.coeff * entry)
        return {k: v for k, v in table.items() if v}

    def max_collected_diff(self, other: "OperatorExpr") -> float:
        a = self.collected()
        b = other.collected()
        worst = 0.0
        for key in set(a) | set(b):
            va = a.get(key)
            vb = b.get(key)
            if va is None:
                diff = abs(vb)
            elif vb is None:
                diff = abs(va)
            else:
                diff = abs(va - vb)
            worst = max(worst, float(diff))
        return worst

    def is_exact(self) -> bool:
        return all(
            _is_exact_scalar(t.coeff)
            and all(_is_exact_scalar(e) for row in t.matrix for e in row)
            for t in self.terms
        )

    def to_complex(self) -> "OperatorExpr":
        if self._complex is None:
            self._complex = OperatorExpr(
                [
                    OperatorTerm(
                        complex(t.coeff),
                        tuple(tuple(complex(e) for e in row) for row in t.matrix),
                        t.word,
                    )
                    for t in self.terms
                ]
            )
        return self._complex

    def __repr__(self) -> str:
        return f"OperatorExpr({len(self.terms)} terms)"


# ---------------------------------------------------------------------------
# application to groups of monomials with disjoint images
# ---------------------------------------------------------------------------
# Each primitive moves each exponent by at most 1, so a word of length w moves
# a monomial's keys by at most w, in every intermediate image as in the
# final one.  Two monomials more than 2w apart in some exponent therefore
# never meet, and one application to their sum gives every key the terms it
# gets from its own monomial, added in the same order: each image is
# bit-identical to a separate application.  This is the column grouping of
# sparse Jacobian estimation (Curtis, Powell & Reid 1974; Coleman & More
# 1983): columns with disjoint row supports cost one evaluation together.


def residue_groups(op: OperatorExpr, sources: Sequence[Monomial]) -> List[List[Monomial]]:
    """``sources`` split by residue mod 2w + 1 of both exponents.

    w is the longest word of ``op`` (``_Plan.reach``), so the monomials of
    one group are at least 2w + 1 apart in some exponent and their images
    under ``op`` are disjoint.  Groups, and the monomials within each, keep
    the order of first appearance in ``sources``.
    """
    p = 2 * op._compiled().reach + 1
    groups: Dict[Monomial, List[Monomial]] = {}
    for m, n in sources:
        groups.setdefault((m % p, n % p), []).append((m, n))
    return list(groups.values())


def owner_rule(
    op: OperatorExpr, group: Sequence[Monomial]
) -> Callable[[Monomial], Monomial]:
    """The map from a key of ``op``'s image of the sum over ``group`` to
    the monomial of ``group`` that the key came from.

    With w the longest word of ``op`` and p = 2w + 1, the exponent
    congruent to r mod p nearest to e is ``e - (e - r + w) % p + w``, at
    most w away; a key's source is that monomial for both exponents.  The
    group must be one class of ``residue_groups(op, ...)``, distinct
    monomials congruent mod p in both exponents so that no two images
    share a key, else ValueError.  A key with no source raises RuntimeError.
    """
    w = op._compiled().reach
    p = 2 * w + 1
    rm, rn = group[0][0] % p, group[0][1] % p
    members = set(group)
    if len(members) < len(group) or any((m % p, n % p) != (rm, rn) for m, n in group):
        raise ValueError(
            f"monomials {list(group)} are not distinct and congruent mod {p}, "
            "which keeps two images from sharing a key"
        )

    def owner(key: Monomial) -> Monomial:
        m, n = key
        source = (m - (m - rm + w) % p + w, n - (n - rn + w) % p + w)
        if source not in members:
            raise RuntimeError(f"image key z^{m} zbar^{n} has no source within {w}")
        return source

    return owner


# ---------------------------------------------------------------------------
# the model Hamiltonian
# ---------------------------------------------------------------------------


def block_operators(
    coeffs: DerivedCoeffs, valley: Valley = Valley.PRIMARY
) -> Tuple[OperatorExpr, OperatorExpr]:
    """The two spin-scalar first-order blocks (upper-right, lower-left).

    (a*Pi_z + i*c1*zbar, b*Pi_zbar + i*c2*z) of coeffs.relabeled(valley):
    the time-reversed valley swaps a <-> b and c1 <-> c2.
    """
    coeffs = coeffs.relabeled(valley)
    hbar = coeffs.hbar
    ur = OperatorExpr.pi_z(hbar).scaled(coeffs.a_coef) + OperatorExpr.mul_zbar().scaled(
        _times_i(coeffs.c1)
    )
    ll = OperatorExpr.pi_zbar(hbar).scaled(coeffs.b_coef) + OperatorExpr.mul_z().scaled(
        _times_i(coeffs.c2)
    )
    return ur, ll


def build_hamiltonian(
    coeffs: DerivedCoeffs, valley: Valley = Valley.PRIMARY
) -> OperatorExpr:
    """Off-diagonal first-order Hamiltonian: spin-raising times the
    upper-right block plus spin-lowering times the lower-left block."""
    ur, ll = block_operators(coeffs, valley)
    return OperatorExpr.spin(E01) @ ur + OperatorExpr.spin(E10) @ ll


def time_reversal_conjugate(expr: OperatorExpr) -> OperatorExpr:
    """T expr T^{-1} with T = TIME_REVERSAL = (i sigma_y) K, whose inverse
    is -T: conjugate scalars, swap z with zbar (hence d/dz with d/dzbar),
    sandwich the matrix.  verify checks the relabeled build against it."""
    s = TIME_REVERSAL.matrix
    s_inv = tuple(tuple(-x for x in row) for row in s)
    out = []
    for t in expr.terms:
        word = tuple(_TIME_REVERSAL_MAP[p] for p in t.word)
        matrix = _mat_mul(s, _mat_mul(_mat_conj(t.matrix), s_inv))
        out.append(OperatorTerm(t.coeff.conjugate(), matrix, word))
    return OperatorExpr(out)


def _relative_defect(x: SpinorFunction, y: SpinorFunction) -> float:
    """Largest coefficient of x - y over the largest of x and y (0 if both
    vanish): no absolute floor, so it stays relative at any coupling size.

    One pass over each function's items with two running maxima and no
    lists: ``x_k - y_k`` is bit for bit the ``x_k + (-y_k)`` of
    ``x.sub(y)``, a key in one function only contributes its own magnitude,
    and the maximum of nonnegative floats does not depend on their order.
    nan as soon as any defect or size is nan, whatever the key order.
    """
    if not x.d == y.d:
        raise ValueError("envelope exponents differ")
    worst = scale = 0.0
    for xs, ys in ((x.upper.coeffs, y.upper.coeffs), (x.lower.coeffs, y.lower.coeffs)):
        get = ys.get
        for key, xv in xs.items():
            size = float(abs(xv))
            yv = get(key)
            defect = size if yv is None else float(abs(xv - yv))
            if not defect <= worst:
                if defect != defect:
                    return math.nan
                worst = defect
            if not size <= scale:
                if size != size:
                    return math.nan
                scale = size
        for key, yv in ys.items():
            size = float(abs(yv))
            if not size <= scale:
                if size != size:
                    return math.nan
                scale = size
            if size > worst and key not in xs:  # a shared key's defect is above
                worst = size
    return worst / (scale or 1.0)


def operator_residual_on_probes(
    x: OperatorExpr, y: OperatorExpr, probes: Sequence[SpinorFunction]
) -> float:
    """Worst relative coefficient defect of (x - y) over the probes."""
    return _nan_max([_relative_defect(x.apply(s), y.apply(s)) for s in probes])


# ---------------------------------------------------------------------------
# antilinear symmetries
# ---------------------------------------------------------------------------


class CoordMap(Enum):
    NEGATE = "negate"  # z -> -z (and zbar -> -zbar)
    FIX = "fix"
    SWAP = "swap"  # z <-> zbar


@dataclass(frozen=True)
class AntilinearOp:
    """Spin matrix times a coordinate map times complex conjugation."""

    name: str
    matrix: Matrix
    coord_map: CoordMap


P1T = AntilinearOp("P1T", ((1j, 0), (0, 1j)), CoordMap.NEGATE)
P2T = AntilinearOp("P2T", ((-1, 0), (0, 1)), CoordMap.FIX)
TIME_REVERSAL = AntilinearOp("T", ((0, 1), (-1, 0)), CoordMap.SWAP)


def _scale_entry(entry, value):
    """entry * value where entry is drawn from {+-1, +-i}; exactness of the
    operand is preserved for those entries."""
    if entry == 1:
        return value
    if entry == -1:
        return -value
    if entry == 1j:
        return _times_i(value)
    if entry == -1j:
        return -_times_i(value)
    return entry * value


def pt_transform(op: AntilinearOp, s: SpinorFunction) -> SpinorFunction:
    """Apply an antilinear symmetry to a spinor function.

    One pass: each input component is read once into its conjugated,
    coordinate-mapped items (``c.conjugate()``, then the sign (-1)**(m+n)
    of z -> -z or the key swap of z <-> zbar; the envelope is real and
    symmetric, so it stays).  Each output component is then one dict: for
    each nonzero spin entry of its row, in entry order, ``_scale_entry``
    of each item is added at its key.  A key gets at most one term per
    entry, so every coefficient is bit for bit the one that conjugating,
    mapping and mixing as separate polynomials gives.
    """
    negate = op.coord_map is CoordMap.NEGATE
    swap = op.coord_map is CoordMap.SWAP
    parts = [
        [
            ((n, m) if swap else (m, n),
             -c.conjugate() if negate and (m + n) % 2 else c.conjugate())
            for (m, n), c in comp.coeffs.items()
        ]
        for comp in (s.upper, s.lower)
    ]
    outs = []
    for row in op.matrix:
        acc: Dict[Monomial, Coeff] = {}
        get = acc.get
        for entry, items in zip(row, parts):
            if entry == 0:
                continue
            for key, c in items:
                v = _scale_entry(entry, c)
                prev = get(key)
                acc[key] = v if prev is None else prev + v
        outs.append(WeightedPolynomial(acc, s.d))
    return SpinorFunction(*outs)


_PT_FACTOR_REL = 1e-10


def pt_eigenfactor(op: AntilinearOp, s: SpinorFunction) -> Optional[complex]:
    """The scalar c with op(s) == c*s on the spatial form, or None.

    c is read at the largest coefficient.  Every monomial of each component
    is compared, within 1e-10 of that component's own largest coefficient:
    for the spin-diagonal P1T and P2T, op(s) == c*s is one equation per
    component, and a broken-branch state whose lower component is far
    smaller than its upper one fails only in the lower.  Failure of the
    spatial eigenrelation is exactly what distinguishes the broken phase.
    Each component is one pass over its keys, folding the largest defect
    and the largest size; a nan in either fails the component, so a spinor
    with a nan coefficient has no factor, whatever its key order.  Raises
    ValueError on the zero spinor and on an exact one whose largest
    coefficient lies outside the float range.
    """
    if s.is_zero():
        raise ValueError("zero spinor has no eigenfactor")
    t = pt_transform(op, s)
    ref_comp = ref_key = None
    ref_mag = 0.0
    try:
        for idx, comp in enumerate((s.upper, s.lower)):
            for mono, c in comp.sorted_items():
                mag = float(abs(c))
                if not mag <= ref_mag:  # a nan is taken too, and fails the fold below
                    ref_comp, ref_key, ref_mag = idx, mono, mag
    except OverflowError:  # an exact size above the float range
        ref_key = None
    if ref_key is None:  # or every size below it
        raise ValueError("spinor's largest coefficient lies outside the float range")
    s_parts = (s.upper.coeffs, s.lower.coeffs)
    t_parts = (t.upper.coeffs, t.lower.coeffs)
    t_ref = t_parts[ref_comp].get(ref_key)
    if t_ref is None:
        return None
    factor = complex(t_ref) / complex(s_parts[ref_comp][ref_key])
    for sc, tc in zip(s_parts, t_parts):
        worst = scale = 0.0
        for key in sc.keys() | tc.keys():
            sv, tv = complex(sc.get(key, 0)), complex(tc.get(key, 0))
            worst = _nan_max((worst, abs(tv - factor * sv)))
            scale = _nan_max((scale, abs(sv), abs(tv)))
        if not worst <= _PT_FACTOR_REL * scale:
            return None
    return factor


def pt_commutator_residual(
    h: OperatorExpr, op: AntilinearOp, probes: Sequence[SpinorFunction]
) -> float:
    """Worst relative coefficient norm of (op o H - H o op) over the probes."""
    return pt_commutator_residuals(h, [op], probes)[0]


def pt_commutator_residuals(
    h: OperatorExpr, ops: Sequence[AntilinearOp], probes: Sequence[SpinorFunction]
) -> List[float]:
    """pt_commutator_residual of each op, with H applied once per probe."""
    if not probes:
        raise ValueError("at least one probe is required")
    defects = []  # one row per probe, one column per op
    for s in probes:
        image = h.apply(s)
        defects.append(
            [
                _relative_defect(pt_transform(op, image), h.apply(pt_transform(op, s)))
                for op in ops
            ]
        )
    return [_nan_max(column) for column in zip(*defects)]


# ---------------------------------------------------------------------------
# closed-form states
# ---------------------------------------------------------------------------


def analytic_state(
    branch: Branch, valley: Valley, n: int, coeffs: DerivedCoeffs
) -> SpinorFunction:
    """Closed-form level-n bound state for the requested branch and valley.

    The two components carry a fixed relative weight, energy over
    (n+1) times the block coefficient; with that weight the state solves the
    full first-order eigen-equation, not only the squared one.  At
    k_coef = 0 the weight vanishes and the single-component zero-energy
    state survives.

    The valley is relabeled at entry (DerivedCoeffs.relabeled); branch I
    states are then z-monomials and branch II ones zbar-monomials.  The
    weight uses the positive principal root, level_energy_from_coeffs, and
    the leading coefficient is 1.  With Fraction coefficients and a
    perfect-square radicand the state is exact; otherwise it is built in
    floats.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("level index must be a nonnegative integer")
    d = coeffs.envelope(branch)
    coeffs, branch = coeffs.relabeled(valley), branch.relabeled(valley)
    block_coef = coeffs.a_coef if branch is Branch.I else coeffs.b_coef
    energy = level_energy_from_coeffs(coeffs, n, branch)
    denom = (n + 1) * block_coef * coeffs.hbar
    exact_ok = (
        isinstance(energy, ComplexRational)
        and _is_exact_scalar(denom)
        and _is_exact_scalar(d)
    )
    a_n = 1  # the leading coefficient
    if not exact_ok:
        # irrational energy (or any float input) forces the state into floats
        energy = complex(energy)
        denom = complex(denom)
        d = float(d)
        # kept as a factor: complex(1) * ratio can differ from ratio in the
        # sign of a zero real part
        a_n = complex(1)
    ratio = energy / denom
    if branch is Branch.I:
        upper = WeightedPolynomial({(n, 0): a_n}, d)
        lower = WeightedPolynomial({(n + 1, 0): _times_i(a_n * ratio)}, d)
    else:
        upper = WeightedPolynomial({(0, n + 1): -(a_n * ratio)}, d)
        lower = WeightedPolynomial({(0, n): _times_i(a_n)}, d)
    return SpinorFunction(upper, lower)


def eigen_residual(h: OperatorExpr, s: SpinorFunction, energy: Coeff) -> float:
    """Relative coefficient norm of H s - E s.

    Zero (literally, on the exact path) for the analytic states with their
    own energies; order one for a wrong energy.
    """
    if not (h.is_exact() and s.is_exact() and _is_exact_scalar(energy)):
        h = h.to_complex()
        s = s.to_complex()
        energy = complex(energy)
    return _relative_defect(h.apply(s), s.scaled(energy))


# ---------------------------------------------------------------------------
# zero modes and the ladder
# ---------------------------------------------------------------------------


def lll_state(
    l: int, coeffs: DerivedCoeffs, valley: Valley = Valley.PRIMARY
) -> WeightedPolynomial:
    """Degree-l member of the infinitely degenerate zero-mode family.

    zbar^l exp((c1/(a hbar)) z zbar) of DerivedCoeffs.relabeled(valley),
    so the time-reversed valley reads branch II's envelope.  Each is
    annihilated by the upper-right block of its valley Hamiltonian.
    """
    if not isinstance(l, int) or isinstance(l, bool) or l < 0:
        raise ValueError("degree must be a nonnegative integer")
    d = coeffs.envelope(Branch.I.relabeled(valley))
    return WeightedPolynomial.monomial(0, l, 1, d)


def lll_annihilation_residual(
    wp: WeightedPolynomial, coeffs: DerivedCoeffs, valley: Valley = Valley.PRIMARY
) -> float:
    """Size of (annihilating block applied to wp), relative to wp's scale."""
    return lll_annihilation_residuals([wp], coeffs, valley)[0]


def lll_annihilation_residuals(
    states: Sequence[WeightedPolynomial],
    coeffs: DerivedCoeffs,
    valley: Valley = Valley.PRIMARY,
) -> List[float]:
    """lll_annihilation_residual of each state, with the block built once."""
    ur, _ = block_operators(coeffs, valley)
    return [
        ur.apply_poly(wp).max_abs_coeff() / (wp.max_abs_coeff() or 1.0)
        for wp in states
    ]


def ladder_raise(
    wp: WeightedPolynomial, k: int, coeffs: DerivedCoeffs
) -> WeightedPolynomial:
    """Apply the normalized raising block (lower-left over sqrt(k_coef)) k times."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("k must be a positive integer")
    if not coeffs.k_coef:
        raise ValueError("k_coef = 0: ladder normalization undefined")
    sqrt_k = cmath.sqrt(complex(coeffs.k_coef))
    _, ll = block_operators(coeffs, Valley.PRIMARY)
    op = ll.to_complex().scaled(1 / sqrt_k)
    out = wp.to_complex()
    for _ in range(k):
        out = op.apply_poly(out)
    return out


@dataclass(frozen=True)
class JCReport:
    commutator_residual: float
    factorization_residual: float


def _probe_envelope(coeffs: DerivedCoeffs, fallback):
    """Branch I's envelope exponent, else branch II's, else ``fallback``."""
    for d in (coeffs.d1_branch_i, coeffs.d1_branch_ii):
        if d is not None:
            return d
    return fallback


def _ladder_defects(coeffs: DerivedCoeffs) -> Tuple[OperatorExpr, OperatorExpr, Coeff]:
    """jc_verify's two defect operators and its probes' envelope exponent."""
    lower_b, raise_b = block_operators(coeffs, Valley.PRIMARY)
    exact = isinstance(coeffs.k_coef, (int, Fraction)) and not isinstance(
        coeffs.k_coef, bool
    )
    if exact:
        inv_k = Fraction(1) / Fraction(coeffs.k_coef)
        comm = (lower_b @ raise_b - raise_b @ lower_b).scaled(
            inv_k
        ) - OperatorExpr.identity()
        fact = build_hamiltonian(coeffs, Valley.PRIMARY) - (
            OperatorExpr.spin(E01) @ lower_b + OperatorExpr.spin(E10) @ raise_b
        )
    else:
        sqrt_k = cmath.sqrt(complex(coeffs.k_coef))
        q1 = lower_b.to_complex().scaled(1 / sqrt_k)
        q2d = raise_b.to_complex().scaled(1 / sqrt_k)
        comm = q1 @ q2d - q2d @ q1 - OperatorExpr.identity().to_complex()
        fact = build_hamiltonian(coeffs, Valley.PRIMARY).to_complex() - (
            OperatorExpr.spin(E01).to_complex() @ q1
            + OperatorExpr.spin(E10).to_complex() @ q2d
        ).scaled(sqrt_k)
        if any(cmath.isinf(t.coeff) for t in comm.terms):
            # (block coefficient)^2 / k_coef: at a subnormal k_coef the
            # commutator's terms are inf and its images inf - inf = nan
            raise OverflowError(
                f"ladder normalization 1/k_coef overflows at k_coef = {coeffs.k_coef!r}"
            )
    return comm, fact, _probe_envelope(coeffs, Fraction(0) if exact else -0.25)


def _cleared(op: OperatorExpr, q: int) -> Tuple[int, OperatorExpr, OperatorExpr]:
    """An exact ``op`` in u = z/q as ``(L, re, im)``: (re + i im)/L, with
    ``re`` and ``im`` holding int coefficients.

    z = q u makes d/dz (1/q) d/du and z. q u., so a word of w primitives,
    s of them multiplications, takes the factor q^(2s - w).  L is the lcm
    of the scaled coefficients' denominators.  The spin matrices are kept,
    so their entries must be real (ints, in the ladder defects).
    """
    scaled = []
    for t in op.terms:
        muls = sum(p is Prim.MUL_Z or p is Prim.MUL_ZBAR for p in t.word)
        power = 2 * muls - len(t.word)
        c = ONE * t.coeff
        scaled.append((c * q**power if power >= 0 else c / q**-power, t))
    lcm = math.lcm(*(c._q for c, _ in scaled))
    re = [OperatorTerm(c._a * (lcm // c._q), t.matrix, t.word) for c, t in scaled]
    im = [OperatorTerm(c._b * (lcm // c._q), t.matrix, t.word) for c, t in scaled]
    return lcm, OperatorExpr(re), OperatorExpr(im)


def _images(
    op: OperatorExpr, total: WeightedPolynomial, zero: Optional[WeightedPolynomial]
) -> List[Dict]:
    """The coefficient dicts of ``op`` on ``total``: one by ``apply_poly``
    when ``zero`` is None, else the upper and lower by ``apply`` of
    ``total`` in each spin component beside ``zero``.  An operator with no
    terms is not applied."""
    if not op.terms:
        return [{}] * (1 if zero is None else 4)
    if zero is None:
        return [op.apply_poly(total).coeffs]
    out = []
    for s in (SpinorFunction(total, zero), SpinorFunction(zero, total)):
        image = op.apply(s)
        out += [image.upper.coeffs, image.lower.coeffs]
    return out


def _residual(op: OperatorExpr, d_env, probes, spinor: bool) -> float:
    """Largest coefficient size of ``op``'s images of the probes.

    The probes of each group of ``residue_groups(op)`` are summed and
    applied at once by ``_images``.  A float d_env applies ``op`` to probes
    of coefficient 1.  A ``Fraction`` d_env = p/q runs on ints: with z = q u
    the envelope exponent in u is the int p q and the probe z^a zbar^b is
    q^(a+b) u^a ubar^b, and the int parts of ``_cleared(op, q)`` are applied
    in its place, an empty part not at all.  An image key (m, n) in u holds
    re + i im; its coefficient in z is (re + i im)/(L q^(m+n)), and its size
    is ``hypot`` of the two correctly rounded quotients, bit for bit the
    ``abs`` of that value as a ``ComplexRational``, so the residual is the
    one ``ComplexRational`` probes give.

    A float residual that is not finite although ``op``'s coefficients and
    d_env are raises OverflowError: the images overflowed.
    """
    exact = isinstance(d_env, Fraction)
    if exact:
        q = d_env.denominator
        lcm, re, im = _cleared(op, q)
        d = d_env.numerator * q
    else:
        q, re, im, d = 1, op, OperatorExpr([]), d_env
    zero = WeightedPolynomial.zero(d) if spinor else None
    sizes = []
    for group in residue_groups(op, probes):
        total = WeightedPolynomial({(m, n): q ** (m + n) for m, n in group}, d)
        for re_c, im_c in zip(_images(re, total, zero), _images(im, total, zero)):
            if not exact:
                sizes += map(abs, re_c.values())
                continue
            for key in re_c.keys() | im_c.keys():
                den = lcm * q ** (key[0] + key[1])
                sizes.append(math.hypot(re_c.get(key, 0) / den, im_c.get(key, 0) / den))
    worst = _nan_max(sizes)
    inputs = [d_env] + [t.coeff for t in op.terms]
    if exact or math.isfinite(worst) or not all(map(cmath.isfinite, inputs)):
        return worst
    raise OverflowError(f"ladder residual overflows at envelope exponent {d_env!r}")


def _ladder_residuals(
    comm: OperatorExpr, fact: OperatorExpr, d_env, degree: int
) -> JCReport:
    """jc_verify's report from its defect operators, on the monomial probes
    of total degree at most ``degree`` with envelope exponent ``d_env``
    (``_residual``: ints for a ``Fraction`` d_env, floats otherwise)."""
    probes = [(m, n) for m in range(degree + 1) for n in range(degree + 1 - m)]
    return JCReport(
        _residual(comm, d_env, probes, False), _residual(fact, d_env, probes, True)
    )


def jc_verify(coeffs: DerivedCoeffs, degree: int = 30) -> JCReport:
    """Check the pseudo-bosonic pair and the spin-ladder form of H.

    With Q1 = (upper-right block)/sqrt(k_coef) and Q2dag = (lower-left
    block)/sqrt(k_coef), the commutator [Q1, Q2dag] must be the identity and
    H must equal sqrt(k_coef) * (sigma_plus Q1 + sigma_minus Q2dag), where
    sigma_plus/sigma_minus are the matrix units ((0,1),(0,0)) and
    ((0,0),(1,0)).  That normalization (half of sigma_x +- i sigma_y) is
    fixed by matching the lowest-level matrix element; the 1/sqrt(2)
    convention would leave a factor sqrt(2) behind.

    Residuals are worst-case over all monomial probes of total degree at
    most ``degree``.  The probes are applied by residue class
    (residue_groups): the commutator's words have length 2, so one
    application per class mod 5 of (m, n), 25 in all, and the
    factorization's length 1, so one per class mod 3 and spin component,
    18 in all.  The probes of a class have disjoint images whose keys
    partition the image of their sum, each bit-identical to applying the
    operator to its probe alone, so the largest coefficient of the sum's
    image is the largest over the probes.  Both modes take one residual
    driver (``_residual``).  On the exact path the square roots cancel
    symbolically and both residuals are literal zeros.  There the kernel
    runs on Python ints: z = q u, with q the denominator of the probes'
    envelope exponent, clears every denominator once; the commutator is all
    real and the factorization all imaginary, so each runs one int
    operator, and no ``ComplexRational`` or ``Fraction`` operation runs per
    coefficient.  A float k_coef so small that the normalized commutator's
    coefficients overflow raises OverflowError, and so does a float
    residual that overflows from finite coefficients and envelope exponent;
    a nan coefficient makes its residual nan.
    """
    if not isinstance(degree, int) or degree < 2:
        raise ValueError("degree must be an integer >= 2")
    if not coeffs.k_coef:
        raise ValueError("k_coef = 0: ladder normalization undefined")
    return _ladder_residuals(*_ladder_defects(coeffs), degree)
