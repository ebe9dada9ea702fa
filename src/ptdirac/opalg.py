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

Float probe residuals (the float ``jc_verify``, ``operator_residual_on_probes``
and ``pt_commutator_residuals``) run a plan on a whole batch of probes at
once: the batch kernel, numpy arrays with the probe axis last, bit for bit
the dict kernel while every value is finite.  Exact inputs keep the dict
kernel, and the exact ``jc_verify`` runs it on Python ints: the
substitution z = q u, with q the denominator of the probes' envelope
exponent, and one lcm clear every denominator before the first step, and
each nonzero image key's size is read back from two correctly rounded int
quotients.

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
  - the batch kernel: a plan and the antilinear maps on arrays of float
    probes, and the driver that sends every other probe to the dict kernel.
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
    """Worst relative coefficient defect (``_relative_defect``) of x s
    against y s over the probes s.

    Float probes run through the batch kernel, a batch per envelope
    exponent; any other probe takes one ``apply`` of each operator
    (``_worst_over_probes``).
    """

    def on_batch(layout: "_Layout", comps) -> List[float]:
        return [_batch_defect(*(_batch_run(e._compiled(), comps, layout) for e in (x, y)))]

    def on_probe(s: SpinorFunction) -> List[float]:
        return [_relative_defect(x.apply(s), y.apply(s))]

    return _worst_over_probes(probes, (x, y), True, on_batch, on_probe, 1)[0]


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
    """pt_commutator_residual of each op, with H applied once per probe.

    Float probes run through the batch kernel, a batch per envelope
    exponent, with each op's antilinear map on arrays (``_batch_pt``) when
    every spin entry of the ops is 0, +-1 or +-i.  Any other probe takes
    ``apply`` once for H s and once per op for H (op s)
    (``_worst_over_probes``).
    """
    if not probes:
        raise ValueError("at least one probe is required")
    plan = h._compiled()
    units = all(e in _UNIT_ENTRIES for op in ops for row in op.matrix for e in row)

    def on_batch(layout: "_Layout", comps) -> List[float]:
        image = _batch_run(plan, comps, layout)
        row = []
        for op in ops:
            mapped, mapped_layout = _batch_pt(op, comps, layout)
            want, _ = _batch_pt(op, image, layout)
            row.append(_batch_defect(want, _batch_run(plan, mapped, mapped_layout)))
        return row

    def on_probe(s: SpinorFunction) -> List[float]:
        image = h.apply(s)
        return [
            _relative_defect(pt_transform(op, image), h.apply(pt_transform(op, s)))
            for op in ops
        ]

    return _worst_over_probes(probes, (h,), units, on_batch, on_probe, len(ops))


# ---------------------------------------------------------------------------
# the batch kernel
# ---------------------------------------------------------------------------
# A compiled plan run on a batch of float probes at once, with numpy.  Probe
# p gets its own window of the (m, n) exponent plane, its support plus the
# plan's reach on each side, clamped at exponent 0: element (i, j, p) holds
# the coefficient of z^(om[p] + i) zbar^(on[p] + j).  No key of an image,
# nor of an image on the way, leaves the window (the reach argument of
# residue_groups), and the probe axis comes last, so each primitive step is
# one shifted slice over every probe together.  An image is a pair (re, im)
# of float64 arrays, im None while every value is real, or None when empty;
# a key the dict kernel does not hold holds 0.
#
# While every value is finite this is the dict kernel bit for bit, up to
# the signs of zeros, which no size or defect reads:
#  - each value is formed by the same correctly rounded float64 operations,
#    one ufunc call each, so none is fused.  A product with a complex
#    factor is written out as CPython forms it, re = fr*xr - fi*xi and
#    im = fr*xi + fi*xr: numpy's complex multiply rounds differently;
#  - CPython promotes a real operand x of a complex operation to (x, 0.0),
#    and the products with that 0.0 are signed zeros;
#  - a key takes its terms in the dict kernel's order (at most two in a
#    step, where order cannot matter, and one per plan entry, in entry
#    order), and a 0 stays 0 under every step and finite factor;
#  - a derivative of exponent 0 has no term: the only window row (or
#    column) at that exponent is the first, which no derivative reads.
# An inf or a nan breaks the second and third points (inf * 0.0 is nan),
# and values then differ.  Which values are finite does not: the first
# inf or nan comes from the same operation on the same finite values, and
# both kernels carry it into every value that reads it (a factor of 0
# gives nan) and drop it only where a derivative of exponent 0 or a zero
# envelope has no term.  No residual reads more than that:
#  - a relative defect is nan wherever an image holds an inf or a nan,
#    for its size, its defect and so the scale are inf or nan (inf / inf);
#    an inf from finite images is an overflowed difference, formed alike;
#  - the float jc_verify's residual raises OverflowError as soon as it is
#    not finite from finite inputs, and a non-finite input makes it nan.

_UNIT_ENTRIES = (0, 1, -1, 1j, -1j)


class _Layout(NamedTuple):
    """A batch's windows: element (i, j, p) is the key (om[p] + i, on[p] + j).

    ``m_exp`` (shape (Wm - 1, 1, P)) and ``n_exp`` ((1, Wn - 1, P)) hold the
    exponents of rows and columns 1 and up, the multipliers of d/dz and
    d/dzbar; ``d`` is the probes' envelope exponent.
    """

    om: object
    on: object
    shape: Tuple[int, int, int]
    d: float
    m_exp: object
    n_exp: object


def _layout(om, on, wm: int, wn: int, d: float) -> _Layout:
    import numpy as np

    m_exp = (np.arange(1, wm)[:, None, None] + om).astype(float)
    n_exp = (np.arange(1, wn)[None, :, None] + on).astype(float)
    return _Layout(om, on, (wm, wn, len(om)), d, m_exp, n_exp)


def _swapped(layout: _Layout) -> _Layout:
    """The layout of the key swap (m, n) -> (n, m) of its images."""
    wm, wn, p = layout.shape
    return layout._replace(
        om=layout.on, on=layout.om, shape=(wn, wm, p),
        m_exp=layout.n_exp.transpose(1, 0, 2), n_exp=layout.m_exp.transpose(1, 0, 2),
    )


_FLOAT_TYPES = {float, complex}


# The most window elements one batch holds.  The kernel keeps an image of
# that many elements for every node of a plan, so this bounds its memory
# (512 KiB an array), however many probes there are or however far apart a
# probe's keys lie.
_BATCH_CELLS = 1 << 16


def _batches(probes: Sequence[SpinorFunction], reach: int) -> Tuple[List, List]:
    """The float probes laid out in batches of one envelope exponent and at
    most ``_BATCH_CELLS`` window elements, as (layout, (upper, lower)
    images) pairs, and the rest.

    A float probe is a nonzero spinor with a finite float envelope exponent
    and float or complex coefficients, whose own window fits a batch.
    """
    groups: Dict[float, List[SpinorFunction]] = {}
    rest = []
    for s in probes:
        d, u, l = s.upper.d, s.upper.coeffs, s.lower.coeffs
        if (
            type(d) is float
            and math.isfinite(d)
            and {*map(type, u.values()), *map(type, l.values())} <= _FLOAT_TYPES
            and (u or l)
        ):
            groups.setdefault(d, []).append(s)
        else:
            rest.append(s)
    batches: List = []
    for d, group in groups.items():
        _lay_out(group, reach, d, batches, rest)
    return batches, rest


def _lay_out(group: Sequence[SpinorFunction], reach: int, d: float, batches, rest) -> None:
    """Append the batches of float probes of envelope exponent ``d`` to
    ``batches``, and to ``rest`` each probe whose own window exceeds
    ``_BATCH_CELLS``.

    A batch's windows are as wide as its widest support plus ``reach`` on
    each side.  A group too large for one batch is split, its probes taken
    in order of window size until the next would overflow the batch.
    """
    import numpy as np

    parts = ([s.upper.coeffs for s in group], [s.lower.coeffs for s in group])
    # every key of the group, the upper component's first, with its probe
    keys = np.array([k for dicts in parts for c in dicts for k in c]).reshape(-1, 2)
    owner = np.array([p for dicts in parts for p, c in enumerate(dicts) for _ in c])
    lo = np.full((len(group), 2), keys.max())
    hi = np.zeros((len(group), 2), dtype=keys.dtype)
    np.minimum.at(lo, owner, keys)
    np.maximum.at(hi, owner, keys)
    spans = hi - lo + 1 + 2 * reach
    wm, wn = (int(w) for w in spans.max(axis=0))
    if wm * wn * len(group) > _BATCH_CELLS:
        batch, bm, bn = [], 0, 0
        for p in np.argsort(spans.prod(axis=1), kind="stable"):
            m, n = (int(w) for w in spans[p])
            if m * n > _BATCH_CELLS:
                rest.append(group[p])
                continue
            if max(bm, m) * max(bn, n) * (len(batch) + 1) > _BATCH_CELLS:
                _lay_out(batch, reach, d, batches, rest)
                batch, bm, bn = [], 0, 0
            batch.append(group[p])
            bm, bn = max(bm, m), max(bn, n)
        if batch:
            _lay_out(batch, reach, d, batches, rest)
        return
    origin = np.maximum(lo - reach, 0)
    layout = _layout(origin[:, 0], origin[:, 1], wm, wn, d)
    at = (*(keys - origin[owner]).T, owner)  # each key's element
    comps = []
    start = 0
    for dicts in parts:
        values = np.array([c for coeffs in dicts for c in coeffs.values()])
        stop = start + len(values)
        comps.append(_filled(layout, values, tuple(i[start:stop] for i in at)))
        start = stop
    batches.append((layout, tuple(comps)))


def _filled(layout: _Layout, values, at):
    """The image holding ``values`` at the elements ``at`` of ``layout``."""
    import numpy as np

    if not len(values):
        return None
    re = np.zeros(layout.shape)
    re[at] = values.real
    if values.dtype.kind != "c":  # complex128 as soon as one value is complex
        return re, None
    im = np.zeros(layout.shape)
    im[at] = values.imag
    return re, im


def _float_factors(plan: _Plan) -> bool:
    """Whether every factor of ``plan`` is a finite int, float or complex."""
    try:
        return all(
            type(f) in (int, float, complex) and cmath.isfinite(f)
            for _, _, f in plan.entries
        )
    except OverflowError:  # an int beyond the float range
        return False


def _worst_over_probes(
    probes: Sequence[SpinorFunction],
    exprs: Sequence[OperatorExpr],
    batchable: bool,
    on_batch: Callable[..., List[float]],
    on_probe: Callable[[SpinorFunction], List[float]],
    width: int,
) -> List[float]:
    """Column by column, the worst over the probes of ``on_probe``'s rows.

    When ``batchable`` and every factor of ``exprs`` is a finite float
    (``_float_factors``), the float probes run as batches through
    ``on_batch(layout, comps)``, which gives the worst row of a batch laid
    out with the windows that ``exprs``' longest reach needs; every other
    probe runs through ``on_probe``.  The worst of nonnegative values does
    not depend on their order, and it is nan as soon as one is.
    """
    import numpy as np

    batches, rest = [], list(probes)
    plans = [e._compiled() for e in exprs]
    if batchable and all(map(_float_factors, plans)):
        batches, rest = _batches(probes, max(plan.reach for plan in plans))
    rows = [on_probe(s) for s in rest]
    with np.errstate(all="ignore"):  # an overflow shows in the rows
        rows += [on_batch(*batch) for batch in batches]
    return [_nan_max([row[k] for row in rows]) for k in range(width)]


def _derivative_m(x, layout: _Layout):
    """d/dz of one part of an image: (m, n) -> m (m-1, n) + d (m, n+1)."""
    import numpy as np

    out = np.zeros(layout.shape)
    np.multiply(x[1:], layout.m_exp, out=out[:-1])
    if layout.d:
        out[:, 1:] += x[:, :-1] * layout.d
    return out


def _derivative_n(x, layout: _Layout):
    """d/dzbar of one part of an image: (m, n) -> n (m, n-1) + d (m+1, n)."""
    import numpy as np

    out = np.zeros(layout.shape)
    np.multiply(x[:, 1:], layout.n_exp, out=out[:, :-1])
    if layout.d:
        out[1:] += x[:-1] * layout.d
    return out


def _shift_m(x, layout: _Layout):
    import numpy as np

    out = np.zeros(layout.shape)
    out[1:] = x[:-1]
    return out


def _shift_n(x, layout: _Layout):
    import numpy as np

    out = np.zeros(layout.shape)
    out[:, 1:] = x[:, :-1]
    return out


_BATCH_STEPS = {
    _step_dz: _derivative_m,
    _step_dzbar: _derivative_n,
    _step_z: _shift_m,
    _step_zbar: _shift_n,
}


def _times(factor: Coeff, image):
    """factor * image as CPython forms each coefficient (see above)."""
    re, im = image
    if type(factor) is complex:
        fr, fi = factor.real, factor.imag
        if im is None:
            return re * fr, re * fi
        return re * fr - im * fi, im * fr + re * fi
    f = float(factor)
    return re * f, None if im is None else im * f


def _plus(a, b):
    (ar, ai), (br, bi) = a, b
    return ar + br, (bi if ai is None else ai if bi is None else ai + bi)


def _minus(a, b):
    (ar, ai), (br, bi) = a, b
    if bi is None:
        return ar - br, ai
    return ar - br, -bi if ai is None else ai - bi


def _sizes(image):
    import numpy as np

    re, im = image
    return np.abs(re) if im is None else np.hypot(re, im)


def _batch_run(plan: _Plan, comps, layout: _Layout):
    """``_run`` on a batch: the (upper, lower) images of the plan.

    An empty input component is never stepped, and an entry of an empty
    image adds nothing; the first term of an output is its value, and
    later ones are added in ``plan.entries`` order.
    """
    images = list(comps)
    for src, step in plan.nodes:
        x = images[src]
        if x is not None:
            rule = _BATCH_STEPS[step]
            x = (rule(x[0], layout), None if x[1] is None else rule(x[1], layout))
        images.append(x)
    outs = [None, None]
    for o, image, factor in plan.entries:
        x = images[image]
        if x is not None:
            term = _times(factor, x)
            outs[o] = term if outs[o] is None else _plus(outs[o], term)
    return outs


def _batch_pt(op: AntilinearOp, comps, layout: _Layout):
    """``pt_transform`` on a batch whose spin entries are 0, +-1 or +-i,
    and the layout of the result (swapped for z <-> zbar).

    Conjugation negates im; z -> -z multiplies by the parity sign
    (-1)**(m+n); i (xr + i xi) is -xi + i xr.
    """
    import numpy as np

    sign = None
    if op.coord_map is CoordMap.NEGATE:
        wm, wn, _ = layout.shape
        parity = np.arange(wm)[:, None, None] + layout.om + np.arange(wn)[None, :, None]
        sign = 1.0 - 2.0 * ((parity + layout.on) % 2)
    swap = op.coord_map is CoordMap.SWAP
    parts = []
    for x in comps:
        if x is not None:
            re, im = x[0], None if x[1] is None else -x[1]
            if sign is not None:
                re, im = re * sign, None if im is None else im * sign
            if swap:
                re, im = re.transpose(1, 0, 2), None if im is None else im.transpose(1, 0, 2)
            x = (re, im)
        parts.append(x)
    outs = []
    for row in op.matrix:
        acc = None
        for entry, x in zip(row, parts):
            if entry == 0 or x is None:
                continue
            re, im = x
            if entry == -1:
                x = (-re, None if im is None else -im)
            elif entry == 1j or entry == -1j:
                x = (np.zeros_like(re) if im is None else -im, re)
                if entry == -1j:
                    x = (-x[0], -re)
            acc = x if acc is None else _plus(acc, x)
        outs.append(acc)
    return outs, _swapped(layout) if swap else layout


def _batch_defect(x, y) -> float:
    """The worst over a batch's probes of ``_relative_defect`` of the
    spinor images x and y: a key in one image only has its own size as
    defect, as a 0 in the other gives."""
    import numpy as np

    worst = scale = 0.0
    for a, b in zip(x, y):
        for image in (a, b):
            if image is not None:
                scale = np.maximum(scale, _sizes(image).max(axis=(0, 1)))
        diff = a if b is None else b if a is None else _minus(a, b)
        if diff is not None:
            worst = np.maximum(worst, _sizes(diff).max(axis=(0, 1)))
    return float(np.max(worst / np.where(scale == 0.0, 1.0, scale)))


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


def _batch_residual(op: OperatorExpr, d_env: float, probes, spinor: bool) -> float:
    """Largest coefficient size of ``op``'s images of the monomial probes of
    coefficient 1.0, in runs of the batch kernel of at most
    ``_BATCH_CELLS`` window elements, one per spin component (the upper
    output alone when ``spinor`` is false, as ``apply_poly``)."""
    import numpy as np

    plan = op._compiled()
    width = 2 * plan.reach + 1
    step = max(1, _BATCH_CELLS // width**2)
    sizes = []
    for start in range(0, len(probes), step):
        ms, ns = (np.array(e) for e in zip(*probes[start : start + step]))
        om, on = np.maximum(ms - plan.reach, 0), np.maximum(ns - plan.reach, 0)
        layout = _layout(om, on, width, width, d_env)
        probe = np.zeros(layout.shape)
        probe[ms - om, ns - on, np.arange(len(ms))] = 1.0
        runs = [((probe, None), None), (None, (probe, None))][: 2 if spinor else 1]
        for comps in runs:
            with np.errstate(all="ignore"):  # an overflow is read off the sizes
                outs = _batch_run(plan, comps, layout)[: 2 if spinor else 1]
                sizes += [float(_sizes(out).max()) for out in outs if out]
    return _nan_max(sizes)


def _residual(op: OperatorExpr, d_env, probes, spinor: bool) -> float:
    """Largest coefficient size of ``op``'s images of the probes.

    A float d_env applies ``op`` to probes of coefficient 1 in the batch
    kernel (``_batch_residual``).  A residual that is not finite although
    ``op``'s coefficients and d_env are raises OverflowError: the images
    overflowed, and with finite inputs the batch kernel's residual is
    finite exactly when the dict kernel's is.  A non-finite coefficient or
    d_env makes the residual nan (a factor or d_env of inf times a 0 of
    the window is nan).

    A ``Fraction`` d_env = p/q runs the dict kernel on ints, the probes of
    each group of ``residue_groups(op)`` summed and applied at once by
    ``_images``: with z = q u the envelope exponent in u is the int p q and
    the probe z^a zbar^b is q^(a+b) u^a ubar^b, and the int parts of
    ``_cleared(op, q)`` are applied in its place, an empty part not at all.
    An image key (m, n) in u holds re + i im; its coefficient in z is
    (re + i im)/(L q^(m+n)), and its size is ``hypot`` of the two correctly
    rounded quotients, bit for bit the ``abs`` of that value as a
    ``ComplexRational``, so the residual is the one ``ComplexRational``
    probes give.
    """
    if not isinstance(d_env, Fraction):
        worst = _batch_residual(op, d_env, probes, spinor)
        if math.isfinite(worst) or not all(
            map(cmath.isfinite, [d_env, *(t.coeff for t in op.terms)])
        ):
            return worst
        raise OverflowError(f"ladder residual overflows at envelope exponent {d_env!r}")
    q = d_env.denominator
    lcm, re, im = _cleared(op, q)
    d = d_env.numerator * q
    zero = WeightedPolynomial.zero(d) if spinor else None
    sizes = []
    for group in residue_groups(op, probes):
        total = WeightedPolynomial({(m, n): q ** (m + n) for m, n in group}, d)
        for re_c, im_c in zip(_images(re, total, zero), _images(im, total, zero)):
            for key in re_c.keys() | im_c.keys():
                den = lcm * q ** (key[0] + key[1])
                sizes.append(math.hypot(re_c.get(key, 0) / den, im_c.get(key, 0) / den))
    return _nan_max(sizes)


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
    most ``degree`` (``_residual``).  In floats the probes ride runs of the
    batch kernel, each bit-identical to applying the operator to its probe
    alone while the inputs are finite.  On the exact path the probes are
    applied by residue class (residue_groups): the commutator's words have
    length 2, so one application per class mod 5 of (m, n), 25 in all, and
    the factorization's length 1, so one per class mod 3 and spin
    component, 18 in all.  The probes of a class have disjoint images whose
    keys partition the image of their sum, each bit-identical to applying
    the operator to its probe alone, so the largest coefficient of the
    sum's image is the largest over the probes.  There the square roots
    cancel symbolically and both residuals are literal zeros, and the
    kernel runs on Python ints: z = q u, with q the denominator of the
    probes' envelope exponent, clears every denominator once; the
    commutator is all real and the factorization all imaginary, so each
    runs one int operator, and no ``ComplexRational`` or ``Fraction``
    operation runs per coefficient.  A float k_coef so small that the
    normalized commutator's coefficients overflow raises OverflowError, and
    so does a float residual that overflows from finite coefficients and
    envelope exponent; a nan or inf coefficient makes its residual nan.
    """
    if not isinstance(degree, int) or degree < 2:
        raise ValueError("degree must be an integer >= 2")
    if not coeffs.k_coef:
        raise ValueError("k_coef = 0: ladder normalization undefined")
    return _ladder_residuals(*_ladder_defects(coeffs), degree)
