"""ComplexRational against a two-Fraction reference, with the module loaded by path.

``src/ptdirac/exact.py`` imports only ``math`` and ``fractions``, so this
script loads that one file, not the package, and runs under any Python the
package supports, with or without numpy:

    python tests/exact_reference.py

Every ``+``, ``-``, ``*`` and ``/`` of a ``ComplexRational`` with an ``int``,
``bool``, ``Fraction`` or ``ComplexRational`` operand, on either side, must
equal the same operation on two ``Fraction`` parts and come out canonical
(``q > 0`` and ``gcd(a, b, q) == 1``); ``float`` and ``complex`` operands
must raise ``TypeError``.  The draws are seeded, so a failure repeats.  The
script exits nonzero on the first mismatch.  ``tests/test_exact.py`` runs it
under the interpreter of the test suite.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

EXACT_PY = Path(__file__).resolve().parents[1] / "src" / "ptdirac" / "exact.py"
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)
KINDS = ("int", "bool", "Fraction", "ComplexRational")
INEXACT = (0.5, -0.0, float("nan"), 2j, complex(3, 0))


def load_exact():
    """``exact.py`` as a standalone module, without importing the package."""
    spec = importlib.util.spec_from_file_location("exact_by_path", EXACT_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parts(x):
    """The (re, im) Fraction pair of an exact operand."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    return x.re, x.im


def reference(op, x, y):
    """op on two-Fraction complex numbers, as (re, im)."""
    (a, b), (c, d) = _parts(x), _parts(y)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return a * c - b * d, a * d + b * c
    norm = c * c + d * d
    if norm == 0:
        raise ZeroDivisionError
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def check(exact, draws: int = 1500, seed: int = 0) -> int:
    """Compare ``draws`` random values against the reference; returns the
    number of results checked."""
    cr = exact.ComplexRational
    rng = random.Random(seed)

    def fraction():
        if rng.random() < 0.5:
            return Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**20))

    def operand(kind):
        if kind == "int":
            return rng.choice((0, 1, -1, rng.randint(-(10**25), 10**25)))
        if kind == "bool":
            return rng.random() < 0.5
        if kind == "Fraction":
            return fraction()
        return cr(fraction(), rng.choice((Fraction(0), fraction())))

    checked = 0
    for _ in range(draws):
        z = operand("ComplexRational")
        for kind in KINDS:
            x = operand(kind)
            for op in OPS:
                for left, right in ((z, x), (x, z)):
                    try:
                        want = reference(op, left, right)
                    except ZeroDivisionError:
                        try:
                            op(left, right)
                        except ZeroDivisionError:
                            continue
                        raise AssertionError(f"{op.__name__}{(left, right)} did not raise")
                    got = op(left, right)
                    assert type(got) is cr, (op, left, right, got)
                    assert got._q > 0 and math.gcd(got._a, got._b, got._q) == 1, got
                    assert (got.re, got.im) == want, (op, left, right, got, want)
                    checked += 1
        for bad in INEXACT:
            for op in OPS:
                for left, right in ((z, bad), (bad, z)):
                    try:
                        op(left, right)
                    except TypeError:
                        continue
                    raise AssertionError(f"{op.__name__}{(left, right)} accepted")
    return checked


def main() -> int:
    checked = check(load_exact())
    print(f"{checked} results match the two-Fraction reference on Python "
          f"{sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
