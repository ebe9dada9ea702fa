"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer rebinds the public functions of each ptdirac layer (``params``,
``exact``, ``opalg``, ``spectral``) and ``cli.main`` with wrappers that record
a span per call: name, start, end, parent span and operation id.  Because
``cli`` and ``spectral`` import many of these functions by name, every module
attribute that holds the original function object is rebound, not just the
defining one.  Counting-only wrappers (no span) sit on the five
``numpy.linalg`` decompositions that ``spectral`` calls and on the
constructors of ``WeightedPolynomial`` and ``ComplexRational``, where a span
per call would cost more than the work it measures.

``install`` and ``restore`` are symmetric: after ``restore`` every rebound
name holds its original object again.  Spans stay in memory until
``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ptdirac import cli, exact, opalg, params, spectral
import ptdirac

# (name, start, end, parent span index or None, operation id)
Span = Tuple[str, float, float, Optional[int], int]

LAYER_MODULES = (params, exact, opalg, spectral)
NAMESPACES = (ptdirac, params, exact, opalg, spectral, cli)
TRACED_METHODS = (
    (opalg.OperatorExpr, "apply"),
    (opalg.OperatorExpr, "apply_poly"),
)
LINALG_CALLS = ("qr", "cond", "solve", "eig", "eigvals")
COUNTED_CONSTRUCTORS = (
    ("opalg.wp_built", opalg.WeightedPolynomial),
    ("exact.cr_built", exact.ComplexRational),
)


def decomposition_flops(name: str, args: Sequence) -> float:
    """Leading-order flop count of one dense decomposition, from shapes.

    Textbook counts for an n-by-n input (Golub and Van Loan): Householder
    QR with the Q factor 8/3 n^3, singular values only (``cond``) 8/3 n^3,
    LU plus k right-hand sides 2/3 n^3 + 2 n^2 k, nonsymmetric eigenproblem
    25 n^3 with vectors and 10 n^3 without.  Complex inputs count 4 real
    flops per complex one.  The figure is computed, not measured.
    """
    a = np.asarray(args[0])
    n = a.shape[-1]
    if name == "qr":
        flops = 8 / 3 * n**3
    elif name == "cond":
        flops = 8 / 3 * n**3
    elif name == "solve":
        b = np.asarray(args[1])
        k = b.shape[-1] if b.ndim == a.ndim else 1
        flops = 2 / 3 * n**3 + 2 * n**2 * k
    elif name == "eig":
        flops = 25 * n**3
    else:
        flops = 10 * n**3
    return 4 * flops if np.iscomplexobj(a) else flops


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted
    twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters for the operations run while it is installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.jc_seconds: Dict[str, List[Tuple[int, float]]] = {"exact": [], "float": []}
        self.op_id = -1
        self.ops = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- operation boundaries --------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.ops += 1

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, observe=None) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(args, result, end - start)
            return result

        return traced

    def _linalg_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["numpy.linalg." + name] += 1
            counts["numpy.linalg.flops"] += decomposition_flops(name, args)
            return fn(*args, **kwargs)

        return counted

    def _init_wrapper(self, key: str, init: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        return counted_init

    def _observe_verdict(self, args, report, seconds) -> None:
        if report.verdict is not params.PhaseVerdict.CRITICAL:
            self.counts["spectral.definite_verdicts"] += 1

    def _observe_jc(self, args, report, seconds) -> None:
        k = args[0].k_coef
        path = "float" if isinstance(k, float) else "exact"
        self.jc_seconds[path].append((self.op_id, seconds))

    # -- install / restore -------------------------------------------------

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced name; ``restore`` undoes exactly this."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        observers = {
            "spectral.classify_spectrum": self._observe_verdict,
            "opalg.jc_verify": self._observe_jc,
        }
        targets = [("cli.main", cli.main)]
        for mod in LAYER_MODULES:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets.append((f"{layer}.{attr}", obj))
        for name, original in targets:
            wrapper = self._span_wrapper(name, original, observers.get(name))
            for ns in NAMESPACES:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, attr, wrapper)
        for cls, attr in TRACED_METHODS:
            name = f"opalg.{cls.__name__}.{attr}"
            self._rebind(cls, attr, self._span_wrapper(name, getattr(cls, attr)))
        for attr in LINALG_CALLS:
            self._rebind(np.linalg, attr, self._linalg_wrapper(attr, getattr(np.linalg, attr)))
        for key, cls in COUNTED_CONSTRUCTORS:
            self._rebind(cls, "__init__", self._init_wrapper(key, cls.__init__))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write_spans(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, scale: Optional[Dict[int, float]] = None
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, each as (value, unit), from a finished traced run.

    ``*.self_s`` is the mean self time per call; counts are per operation,
    except the ``spectral.linalg.*`` counts and flops, which are per
    verdict (one ``classify_spectrum`` call).  ``scale`` maps an operation
    id to the factor that converts its times to reference speed.
    """
    scale = scale or {}
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    self_sum: Dict[str, float] = {}
    for (name, _, _, _, op), own in zip(tracer.spans, selfs):
        calls[name] += 1
        self_sum[name] = self_sum.get(name, 0.0) + own * scale.get(op, 1.0)
    for name in list(calls):
        layer = name.split(".", 1)[0]
        calls[layer + ".*"] += calls[name]
        self_sum[layer + ".*"] = self_sum.get(layer + ".*", 0.0) + self_sum[name]

    def per_call(name: str) -> float:
        return _ratio(self_sum.get(name, 0.0), calls[name])

    ops = tracer.ops
    counts = tracer.counts
    verdicts = calls["spectral.classify_spectrum"]
    decomps = sum(counts["numpy.linalg." + n] for n in LINALG_CALLS)
    out: Dict[str, Tuple[float, str]] = {
        "spectral.scramble.self_s": (per_call("spectral.scramble"), "s"),
        "spectral.eigensolve.self_s": (per_call("spectral.eigensolve"), "s"),
        "spectral.build_truncated.self_s": (per_call("spectral.build_truncated"), "s"),
        "spectral.classify_spectrum.self_s": (per_call("spectral.classify_spectrum"), "s"),
        "spectral.decomps_per_verdict": (_ratio(decomps, verdicts), "count"),
    }
    for n in LINALG_CALLS:
        out[f"spectral.linalg.{n}"] = (_ratio(counts["numpy.linalg." + n], verdicts), "count")
    out["spectral.linalg.flops_computed"] = (
        _ratio(counts["numpy.linalg.flops"], verdicts), "flop"
    )
    out["spectral.s_draws_per_scramble"] = (
        _ratio(counts["numpy.linalg.qr"] / 2, calls["spectral.scramble"]), "count"
    )
    out["spectral.verdicts_per_op"] = (_ratio(verdicts, ops), "count")
    out["spectral.definite_verdict_frac"] = (
        _ratio(counts["spectral.definite_verdicts"], verdicts), "ratio"
    )
    out["opalg.apply.calls"] = (_ratio(calls["opalg.OperatorExpr.apply"], ops), "count")
    out["opalg.apply.self_s"] = (per_call("opalg.OperatorExpr.apply"), "s")
    for path in ("exact", "float"):
        seconds = [s * scale.get(op, 1.0) for op, s in tracer.jc_seconds[path]]
        out[f"opalg.jc_verify_{path}.s"] = (
            statistics.median(seconds) if seconds else 0.0, "s"
        )
    out["opalg.wp_built"] = (_ratio(counts["opalg.wp_built"], ops), "count")
    out["exact.cr_built"] = (_ratio(counts["exact.cr_built"], ops), "count")
    out["params.calls"] = (_ratio(calls["params.*"], ops), "count")
    out["params.self_s"] = (per_call("params.*"), "s")
    out["cli.main.self_s"] = (per_call("cli.main"), "s")
    return out
