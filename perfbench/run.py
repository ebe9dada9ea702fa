#!/usr/bin/env python3
"""ptdirac benchmark: one closed-loop caller, one process, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload ep_bisect --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced operations, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds provenance and the detail behind the tail percentiles.  A summary
for people goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 3  # this process plus two fresh interpreters
MIN_OPS = 4  # both kinds, and in a traced run both halves, however short
SETUP_TIMEOUT_S = 120
# Nominal duration of the speed probe; adjusted times are scaled to it.
PROBE_REFERENCE_S = 0.040

WORKLOAD_NAMES = ("ep_bisect", "spectrum_wide", "algebra")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the highest order statistic that
    still has at least ten samples above it, never below the median."""
    xs = sorted(values)
    n = len(xs)
    idx = max(n - 11, (n - 1) // 2)
    return xs[idx], 100.0 * (idx + 1) / n, n


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------


def prepare_import_path() -> None:
    """Point imports at this checkout's sources, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "ptdirac", "__init__.py")):
        sys.stderr.write(f"error: no ptdirac sources at {SRC}\n")
        sys.exit(3)
    # One caller and one BLAS thread unless the caller chose otherwise; this
    # must happen before numpy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [SRC, BENCH_DIR]


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


class SpeedProbe:
    """Fixed reference work that shares no code with ptdirac.

    On a shared machine, speed drifts by 20-40% over seconds to minutes
    (other tenants share the cores), and the drift moves LAPACK and interpreted
    Python work together.  The probe runs one dense complex eigenproblem and
    one loop of dict, complex and Fraction arithmetic, the two kinds of work
    ptdirac does, between operations.  Each operation's time is scaled by
    PROBE_REFERENCE_S over the mean of the probes around it, which gives
    "seconds at reference speed"; a change to ptdirac moves the operation
    and not the probe.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(20151019)
        self._eig = numpy.linalg.eig
        self._matrix = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))

    def seconds(self) -> float:
        from fractions import Fraction

        start = time.perf_counter()
        self._eig(self._matrix)
        acc: Dict[Tuple[int, int], complex] = {}
        total = Fraction(0)
        for i in range(4000):
            key = (i % 37, i % 11)
            acc[key] = acc.get(key, 0) + complex(i, 1) * 0.5
            total += Fraction(i % 7, 3)
        return time.perf_counter() - start


def adjusted(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REFERENCE_S / probe_s


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].warm_up()
print(repr(time.perf_counter() - start))
"""


def fresh_setup_seconds(name: str) -> float:
    """Import plus the first warm-up call, timed inside a new interpreter."""
    code = _SETUP_CHILD.format(src=SRC, bench=BENCH_DIR, name=name)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Results:
    """Outcomes of every operation in a run, with the probe time around each."""

    def __init__(self) -> None:
        self.outcomes = []  # (outcome, traced, probe seconds)
        self.traced_scale: Dict[int, float] = {}  # op index -> speed adjustment

    def add(self, index: int, outcome, traced: bool, probe_s: float) -> None:
        self.outcomes.append((outcome, traced, probe_s))
        if traced:
            self.traced_scale[index] = adjusted(1.0, probe_s)

    def statuses(self) -> List[str]:
        return [o.check() for o, _, _ in self.outcomes]

    def seconds(self, traced: bool, raw: bool = False) -> List[float]:
        return [o.seconds if raw else adjusted(o.seconds, p)
                for o, t, p in self.outcomes if t == traced]

    def kind_seconds(self, kind: str) -> List[float]:
        return [adjusted(s, p) for o, t, p in self.outcomes if not t
                for k, s in o.kind_seconds if k == kind]

    def probe_seconds(self) -> List[float]:
        return [p for _, _, p in self.outcomes]


def run_loop(workload, seed: int, seconds: float, results: Results, probe,
             tracer=None) -> None:
    """Closed loop with one caller for ``seconds``, probing between operations.

    With a tracer, operations alternate in pairs between untraced and
    traced, so both halves see the same machine load and their ratio is the
    tracing overhead; the tracer is installed only around traced operations.
    """
    ops = workload.ops(seed)
    deadline = time.perf_counter() + seconds
    before = probe.seconds()
    while time.perf_counter() < deadline or len(results.outcomes) < MIN_OPS:
        op = next(ops)
        traced = tracer is not None and (op.index // 2) % 2 == 1
        if traced:
            tracer.install()
            try:
                tracer.begin_op(op.index)
                outcome = op.run()
            finally:
                tracer.restore()
        else:
            outcome = op.run()
        after = probe.seconds()
        results.add(op.index, outcome, traced, (before + after) / 2)
        before = after


def end_to_end_metrics(
    results: Results, statuses: List[str], setup: List[float], kinds: Sequence[str]
) -> Tuple[Dict[str, dict], Dict[str, dict]]:
    times = results.seconds(traced=False)
    tail_s, tail_pct, tail_n = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "kind_a_s_p50": (median(results.kind_seconds(kinds[0])), "s"),
        "kind_b_s_p50": (median(results.kind_seconds(kinds[1])), "s"),
        "agree_frac": (statuses.count("agree") / len(statuses), "ratio"),
    }
    raw = results.seconds(traced=False, raw=True)
    detail = {
        "op_s_tail": {"percentile": tail_pct, "samples": tail_n},
        "setup_s_samples": setup,
        "raw_op_s_p50": median(raw),
        "raw_op_s_tail": tail(raw)[0],
        "probe_s_p50": median(results.probe_seconds()),
    }
    for kind in kinds:
        k_tail, k_pct, k_n = tail(results.kind_seconds(kind))
        detail[f"kind_{kind}_s_tail"] = {"value": k_tail, "percentile": k_pct, "samples": k_n}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    prepare_import_path()
    start = time.perf_counter()
    import workloads  # imports ptdirac and numpy

    workload = workloads.WORKLOADS[args.workload]
    workload.warm_up()
    setup_raw = time.perf_counter() - start
    probe = SpeedProbe()
    probe_s = probe.seconds()
    setup = [adjusted(setup_raw, probe_s)]
    for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
        child_s = fresh_setup_seconds(args.workload)
        after = probe.seconds()
        setup.append(adjusted(child_s, (probe_s + after) / 2))
        probe_s = after

    results = Results()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    run_loop(workload, args.seed, args.seconds, results, probe, tracer)
    statuses = results.statuses()
    if tracer is None:
        metrics, detail = end_to_end_metrics(results, statuses, setup, workloads.KINDS)
    else:
        metrics = tracing.layer_metrics(tracer, results.traced_scale)
        overhead = median(results.seconds(True)) / median(results.seconds(False))
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path, {
            "provenance": provenance(args.workload, args.seed),
            "traced_ops": tracer.ops,
            "counts": dict(tracer.counts),
        })
        detail = {"spans_file": os.path.relpath(spans_path, ROOT),
                  "spans": len(tracer.spans), "traced_ops": tracer.ops}

    counts = {s: statuses.count(s) for s in ("agree", "flagged", "failed", "wrong")}
    detail["statuses"] = counts
    for name, (value, unit) in sorted(metrics.items()):
        sys.stderr.write(f"{args.workload:>14} {name:<36} {value:14.6g} {unit}\n")
    sys.stderr.write(f"{args.workload:>14} statuses {counts}\n")
    print(json.dumps({"provenance": provenance(args.workload, args.seed), "detail": detail}))
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": len(statuses),
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
