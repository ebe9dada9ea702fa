"""Tests of the benchmark's own code: generators, statistics, checkers and
tracer hygiene.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

import itertools
import os
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from ptdirac import cli, exact, opalg, params, spectral  # noqa: E402
from ptdirac.opalg import JCReport  # noqa: E402
from ptdirac.params import Branch, Vary  # noqa: E402


# -- generators ---------------------------------------------------------------


def _draws(workload, seed, count=6):
    return [op.inputs for op in itertools.islice(wl.WORKLOADS[workload].ops(seed), count)]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _draws(workload, 7) == _draws(workload, 7)
    assert _draws(workload, 7) != _draws(workload, 8)


def test_runner_offers_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(wl.WORKLOADS)


def test_draws_stay_in_their_ranges():
    rng = random.Random(0)
    for _ in range(200):
        p = wl.draw_point(rng)
        assert 1.0 <= p.vf <= 2.0 and 0.0 <= p.lam <= 0.8 * p.vf
        assert 0.005 <= p.k1 <= 0.05 and 20.0 <= p.b0 <= 200.0
        q = wl.draw_exact_params(rng)
        assert all(isinstance(getattr(q, f), Fraction) for f in ("v_f", "lam", "k1", "b0"))
        assert params.derive_coeffs(q).k_coef != 0


# -- statistics -----------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond_it():
    value, pct, n = run.tail(list(range(1, 101)))
    assert (value, n) == (90, 100) and pct == pytest.approx(90.0)
    value, pct, n = run.tail(list(range(30, 0, -1)))
    assert value == 20 and pct == pytest.approx(200 / 3)
    assert sum(1 for x in range(1, 31) if x > value) == 10


def test_tail_never_drops_below_the_median():
    value, pct, _ = run.tail(list(range(1, 12)))
    assert value == 6 and pct == pytest.approx(600 / 11)
    assert run.tail([3.0]) == (3.0, 100.0, 1)


def test_self_time_subtracts_merged_children():
    spans = [
        ("root", 0.0, 10.0, None, 0),
        ("a", 1.0, 3.0, 0, 0),
        ("b", 2.0, 4.0, 0, 0),  # overlaps a: covered once
        ("c", 9.0, 12.0, 0, 0),  # overhangs the parent: clipped at 10
        ("a.child", 1.5, 2.0, 1, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 2.0, 3.0, 0.5])


# -- checkers -------------------------------------------------------------------

POINT = wl.FloatPoint(vf=1.37, lam=0.5, k1=0.02, b0=100.0)


def test_spectrum_checker_rejects_a_flipped_verdict():
    r = wl.call_cli(["spectrum", "--n_tr", "12", "--format", "json"] + POINT.flags())
    assert wl.check_spectrum(POINT.params(), Branch.I, r.rc, r.stdout) == wl.AGREE
    flipped = r.stdout.replace('"verdict": "unbroken"', '"verdict": "broken"')
    assert flipped != r.stdout
    assert wl.check_spectrum(POINT.params(), Branch.I, r.rc, flipped) == wl.WRONG
    assert wl.check_spectrum(POINT.params(), Branch.I, r.rc, "{") == wl.FAILED
    assert wl.check_spectrum(POINT.params(), Branch.I, 2, r.stdout) == wl.FAILED


def test_exact_checker_requires_literal_zeros():
    assert wl.check_exact(0, JCReport(0.0, 0.0)) == wl.AGREE
    assert wl.check_exact(0, JCReport(0.0, 1e-300)) == wl.WRONG
    assert wl.check_exact(0, JCReport(1e-300, 0.0)) == wl.WRONG
    assert wl.check_exact(None, None) == wl.FAILED


def test_critical_checker_rejects_an_inconsistent_report():
    p = POINT.params()
    a = params.critical_point(p, Vary.LAMBDA)
    good = f"analytic: {a!r}\nbisected: {a + 2e-7!r}\ndifference: {abs((a + 2e-7) - a)!r}\n"
    assert wl.check_critical(p, Vary.LAMBDA, 0, good) == wl.AGREE
    assert wl.check_critical(p, Vary.LAMBDA, 1, good) == wl.WRONG  # exit code lies
    far = a + 3e-4
    missed = f"analytic: {a!r}\nbisected: {far!r}\ndifference: {abs(far - a)!r}\n"
    assert wl.check_critical(p, Vary.LAMBDA, 1, missed) == wl.FLAGGED
    assert wl.check_critical(p, Vary.LAMBDA, 0, missed) == wl.WRONG
    shifted = good.replace(repr(a), repr(a * 1.01), 1)
    assert wl.check_critical(p, Vary.LAMBDA, 0, shifted) == wl.WRONG
    assert wl.check_critical(p, Vary.LAMBDA, 2, "") == wl.FAILED


def test_verify_checker_rejects_a_miscounted_summary():
    r = wl.call_cli(["verify"] + POINT.flags())
    assert wl.check_verify(r.rc, r.stdout) == wl.AGREE
    row = next(line for line in r.stdout.splitlines() if "  PASS  " in line)
    failing = r.stdout.replace(row, row.replace("  PASS  ", "  FAIL  "), 1)
    assert wl.check_verify(r.rc, failing) == wl.WRONG  # summary still says 0 failed
    assert wl.check_verify(2, r.stdout) == wl.FAILED


# -- tracer ---------------------------------------------------------------------


def _bindings():
    names = [(cli, "main"), (cli, "scramble"), (spectral, "scramble"),
             (cli, "derive_coeffs"), (spectral, "derive_coeffs"),
             (params, "derive_coeffs"), (opalg.OperatorExpr, "apply"),
             (np.linalg, "qr"), (np.linalg, "eigvals"),
             (opalg.WeightedPolynomial, "__init__"),
             (exact.ComplexRational, "__init__")]
    return {(id(owner), attr): getattr(owner, attr) for owner, attr in names}


def test_tracer_rebinds_every_alias_and_restores_them():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.scramble is spectral.scramble
        assert cli.scramble is not before[(id(cli), "scramble")]
        assert cli.main is not before[(id(cli), "main")]
    finally:
        tracer.restore()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_traced_verdict_counts_eight_decompositions():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        r = wl.call_cli(["spectrum", "--n_tr", "12", "--format", "json"] + POINT.flags())
    finally:
        tracer.restore()
    assert r.rc == 0
    m = tracing.layer_metrics(tracer)
    assert m["spectral.verdicts_per_op"][0] == 1
    assert m["spectral.decomps_per_verdict"][0] == 8
    assert [m[f"spectral.linalg.{n}"][0] for n in tracing.LINALG_CALLS] == [2, 2, 1, 2, 1]
    assert m["opalg.apply.calls"][0] == 24
    assert m["params.calls"][0] >= 1
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"]
    assert all(s[4] == 0 for s in tracer.spans)
