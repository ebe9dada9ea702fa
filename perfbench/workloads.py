"""Workload generators, operation runners and output checkers.

Every operation goes through the public entry points a user has:
``ptdirac.cli.main`` with a command line, or ``ptdirac.opalg.jc_verify`` for
the exact path.  The workload seed only drives the generator here; the
program sees nothing but the generated parameters.  Each workload alternates
two kinds of call, named "a" and "b" in the metrics.

Checkers compare each output with the closed form in ``ptdirac.params`` and
return one of four statuses:

- ``agree``: the output is consistent and matches the closed form;
- ``flagged``: the program reported its own disagreement (``critical`` or
  ``verify`` exiting 1) and the output is consistent with that report;
- ``failed``: the call raised, exited 2, or printed output that cannot be
  parsed;
- ``wrong``: the output contradicts the closed form without the program
  saying so, or contradicts itself.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Tuple

from ptdirac import cli, opalg
from ptdirac.params import (
    Branch,
    PhysParams,
    Vary,
    classify_phase,
    critical_point,
    derive_coeffs,
    level_energy,
)

AGREE, FLAGGED, FAILED, WRONG = "agree", "flagged", "failed", "wrong"
KINDS = ("a", "b")

BISECT_TOL = 1e-6
CRITICAL_AGREE_TOL = 1e-4  # the CLI's own |bisected - analytic| tolerance
LEVEL_REL_TOL = 1e-8  # the tolerance ``verify`` applies to numeric levels
SPECTRUM_N_TR = 200
EXACT_DEGREE = 20


@dataclass(frozen=True)
class FloatPoint:
    vf: float
    lam: float
    k1: float
    b0: float

    def params(self) -> PhysParams:
        return PhysParams(v_f=self.vf, lam=self.lam, k1=self.k1, b0=self.b0)

    def flags(self) -> List[str]:
        return ["--vf", repr(self.vf), "--lambda", repr(self.lam),
                "--k1", repr(self.k1), "--b0", repr(self.b0)]


# The package's documented reference point, used for the fixed warm-up calls.
REFERENCE_POINT = FloatPoint(vf=1.37, lam=0.5, k1=0.02, b0=100.0)


def draw_point(rng: random.Random) -> FloatPoint:
    """Base parameters; lambda up to 0.8*v_f puts both phases in range."""
    vf = rng.uniform(1.0, 2.0)
    return FloatPoint(
        vf=vf,
        lam=rng.uniform(0.0, 0.8 * vf),
        k1=rng.uniform(0.005, 0.05),
        b0=rng.uniform(20.0, 200.0),
    )


def draw_exact_params(rng: random.Random) -> PhysParams:
    """Rational counterpart of ``draw_point`` with bounded denominators.

    ``jc_verify`` is undefined at k_coef = 0, so such a draw is replaced by
    the next one; the float workloads never re-draw.
    """
    while True:
        vf = Fraction(rng.randint(100, 200), 100)
        p = PhysParams(
            v_f=vf,
            lam=vf * Fraction(rng.randint(0, 80), 100),
            k1=Fraction(rng.randint(5, 50), 1000),
            b0=Fraction(rng.randint(20, 200)),
            e=Fraction(1),
            c=Fraction(137),
            hbar=Fraction(1),
        )
        if derive_coeffs(p).k_coef != 0:
            return p


def _scramble_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------


@dataclass
class CallResult:
    seconds: float
    rc: Optional[int]  # None when the call raised
    stdout: str = ""
    value: object = None


def call_cli(argv: List[str]) -> CallResult:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a raise is a failed operation, counted by the runner
        return CallResult(time.perf_counter() - start, None)
    return CallResult(time.perf_counter() - start, rc, out.getvalue())


def call_exact_check(p: PhysParams) -> CallResult:
    start = time.perf_counter()
    try:
        report = opalg.jc_verify(derive_coeffs(p), degree=EXACT_DEGREE)
    except Exception:  # a raise is a failed operation, counted by the runner
        return CallResult(time.perf_counter() - start, None)
    return CallResult(time.perf_counter() - start, 0, value=report)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

_FLOAT = r"([-+0-9.eEinfa]+)"
_CRITICAL_RE = re.compile(
    rf"^analytic: {_FLOAT}\nbisected: {_FLOAT}\ndifference: {_FLOAT}\n$"
)
_VERIFY_ROW_RE = re.compile(r"^(?P<name>.+?)\s+(?P<status>PASS|FAIL|SKIP)  ")
_VERIFY_SUMMARY_RE = re.compile(
    r"^(\d+) checks: (\d+) passed, (\d+) failed, (\d+) skipped$"
)


def check_critical(
    p: PhysParams, vary: Vary, rc: Optional[int], stdout: str,
    bisect_tol: float = BISECT_TOL,
) -> str:
    if rc not in (0, 1):
        return FAILED
    m = _CRITICAL_RE.match(stdout)
    if m is None:
        return FAILED
    try:
        analytic, bisected, diff = (float(g) for g in m.groups())
    except ValueError:
        return FAILED
    if analytic != critical_point(p, vary):
        return WRONG
    if diff != abs(bisected - analytic):
        return WRONG
    if not 0.5 * analytic <= bisected <= 1.5 * analytic:
        return WRONG
    expected_rc = 0 if diff <= max(CRITICAL_AGREE_TOL, bisect_tol) else 1
    if rc != expected_rc:
        return WRONG
    return AGREE if rc == 0 else FLAGGED


def check_spectrum(p: PhysParams, branch: Branch, rc: Optional[int], stdout: str) -> str:
    if rc != 0:
        return FAILED
    try:
        payload = json.loads(stdout)
        verdict = payload["verdict"]
        levels = [
            complex(float(lv["re_E_plus"]), float(lv["im_E_plus"]))
            for lv in payload["levels"]
        ]
    except (ValueError, KeyError, TypeError):
        return FAILED
    if verdict != classify_phase(p, branch).value:
        return WRONG
    for n, num in enumerate(levels[:11]):
        plus, _ = level_energy(p, n, branch)
        if abs(num - plus) / max(1.0, abs(plus)) > LEVEL_REL_TOL:
            return WRONG
    return AGREE


def check_verify(rc: Optional[int], stdout: str) -> str:
    if rc not in (0, 1):
        return FAILED
    lines = stdout.splitlines()
    if not lines:
        return FAILED
    summary = _VERIFY_SUMMARY_RE.match(lines[-1])
    statuses = [_VERIFY_ROW_RE.match(line) for line in lines[:-1]]
    if summary is None or None in statuses:
        return FAILED
    total, passed, failed, skipped = (int(g) for g in summary.groups())
    found = [s.group("status") for s in statuses]
    if (total, passed, failed, skipped) != (
        len(found), found.count("PASS"), found.count("FAIL"), found.count("SKIP")
    ):
        return WRONG
    if rc != (1 if failed else 0):
        return WRONG
    return AGREE if rc == 0 else FLAGGED


def check_exact(rc: Optional[int], report) -> str:
    if rc != 0:
        return FAILED
    if report.commutator_residual == 0 and report.factorization_residual == 0:
        return AGREE
    return WRONG


def combine(statuses: List[str]) -> str:
    for status in (FAILED, WRONG, FLAGGED):
        if status in statuses:
            return status
    return AGREE


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float  # whole operation
    kind_seconds: Tuple[Tuple[str, float], ...]
    check: Callable[[], str]  # run after the timed loop


@dataclass(frozen=True)
class Op:
    index: int
    inputs: tuple  # everything the program receives for this operation
    run: Callable[[], Outcome]


class Workload:
    name = ""

    def ops(self, seed: int) -> Iterator[Op]:
        """Endless, deterministic operation stream for one seed."""
        rng = random.Random(f"ptdirac-bench/{self.name}/{seed}")
        index = 0
        while True:
            yield Op(index, *self.make(index, rng))
            index += 1

    def make(self, index: int, rng: random.Random) -> Tuple[tuple, Callable[[], Outcome]]:
        """Draw one operation's inputs; return them with the call that runs it."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """One fixed call at the package defaults; raises if it misbehaves."""
        raise NotImplementedError


class CliWorkload(Workload):
    """One ``cli.main`` call per operation on a fresh draw; kinds alternate."""

    def command(self, kind: int, point: FloatPoint, seed: int) -> Tuple[List[str], Callable]:
        """Command line for one call, and its checker taking (rc, stdout)."""
        raise NotImplementedError

    def make(self, index, rng):
        point = draw_point(rng)
        argv, check = self.command(index % 2, point, _scramble_seed(rng))
        kind = KINDS[index % 2]

        def run() -> Outcome:
            r = call_cli(argv)
            return Outcome(r.seconds, ((kind, r.seconds),), lambda: check(r.rc, r.stdout))

        return tuple(argv), run

    def warm_up(self):
        argv, check = self.command(0, REFERENCE_POINT, 0)
        r = call_cli(argv)
        if check(r.rc, r.stdout) != AGREE:
            raise RuntimeError(f"warm-up call {argv} did not agree")


class EpBisect(CliWorkload):
    """``critical --vary lambda|b0`` at n_tr=40, bisect_tol=1e-6."""

    name = "ep_bisect"

    def command(self, kind, point, seed):
        vary = (Vary.LAMBDA, Vary.B0)[kind]
        argv = ["critical", "--vary", vary.value, "--bisect_tol", repr(BISECT_TOL),
                "--seed", str(seed)] + point.flags()
        return argv, functools.partial(check_critical, point.params(), vary)


class SpectrumWide(CliWorkload):
    """``spectrum --n_tr 200 --format json`` on branch I, then II."""

    name = "spectrum_wide"

    def command(self, kind, point, seed):
        branch = (Branch.I, Branch.II)[kind]
        argv = ["spectrum", "--n_tr", str(SPECTRUM_N_TR), "--format", "json",
                "--branch", branch.value, "--seed", str(seed)] + point.flags()
        return argv, functools.partial(check_spectrum, point.params(), branch)


class Algebra(Workload):
    """One ``verify`` on float parameters, then one exact ``jc_verify``."""

    name = "algebra"

    def make(self, index, rng):
        point = draw_point(rng)
        seed = _scramble_seed(rng)
        exact_p = draw_exact_params(rng)
        argv = ["verify", "--seed", str(seed)] + point.flags()
        return (tuple(argv), exact_p), lambda: self._run(argv, exact_p)

    def _run(self, argv, exact_p) -> Outcome:
        v = call_cli(argv)
        x = call_exact_check(exact_p)
        return Outcome(
            v.seconds + x.seconds,
            ((KINDS[0], v.seconds), (KINDS[1], x.seconds)),
            lambda: combine([check_verify(v.rc, v.stdout), check_exact(x.rc, x.value)]),
        )

    def warm_up(self):
        exact_p = PhysParams(v_f=Fraction(1), lam=Fraction(0), k1=Fraction(1, 4),
                             b0=Fraction(5, 2), e=Fraction(1), c=Fraction(1),
                             hbar=Fraction(1))
        if self._run(["verify"] + REFERENCE_POINT.flags(), exact_p).check() != AGREE:
            raise RuntimeError("warm-up verify / exact check did not agree")


WORKLOADS = {w.name: w for w in (EpBisect(), SpectrumWide(), Algebra())}
