"""Command-line front end.

Subcommands:
  analytic   closed-form report: coefficients, level energies, verdicts
  verify     self-check battery over both routes (exit 1 on any failure)
  spectrum   truncate, scramble, diagonalize, classify one parameter point
  sweep      CSV of level energies and verdicts over a parameter grid
  critical   analytic phase boundary vs regula falsi on the oracle's level
  lll        zero-mode family and its annihilation residuals
  jc         ladder-pair commutator and factorization residuals

Configuration merges three layers, later wins: built-in defaults, a config
file (--config PATH or the PTDIRAC_CONFIG environment variable), then
explicit flags.  Each setting is one row of the settings table
(``_SETTINGS``): its key is both the config-file key and the flag name, and
the row holds its type, default and allowed values.  DEFAULTS, RunConfig,
the shared flags, the config-file parsing and the merge are all built from
that table.  Config files hold 'key = value' lines; '#' starts a comment;
unknown keys are rejected.

Each command returns one record, a plain dict of the values its text
prints, and an exit code; ``main`` writes every output at one place.
``--format json`` writes the record as sorted, indented JSON; ``--format
text`` (the default) writes the command's text rendering of it, which for
``sweep`` is its CSV.  The records:

  analytic   build_analytic_report: params, derived, branches, critical
  verify     {checks: [{name, status, detail}],
             counts: {total, passed, failed, skipped}}
  spectrum   {n_tr, seed, branch, valley, verdict, max_residual, levels}
  sweep      {rows: [...]}, one dict per CSV row keyed by the header,
             null where a numeric column has no value
  critical   {analytic, bisected, difference}
  lll        {valley, envelope, residuals, worst}
  jc         {degree, commutator_residual, factorization_residual}

A command that declines a request (no analytic critical point, a failed
bisection, an undefined zero-mode envelope or ladder normalization) raises
``Refusal``; ``main`` writes its message to stderr verbatim and exits 2.

Exit codes: 0 success, 1 a verification or agreement check failed, 2 bad
input (usage, config, an argument out of range, a non-finite
--perturb, parameters whose derived coefficients overflow or whose
eigenpair certificates fail, degenerate or unbracketed requests, a
refusal, an output path that cannot be written).  Floats are printed with
repr for exact round-tripping; JSON output stores floats as repr strings.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import keyword
import math
import os
import re
import sys
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .params import (
    Branch,
    DegenerateCoefficientsError,
    PhaseVerdict,
    PhysParams,
    Valley,
    Vary,
    check_tol,
    classify_phase,
    critical_point,
    derive_coeffs,
    level_energy,
    normalizability,
    with_varied,
)
from . import opalg
from .opalg import (
    P1T,
    P2T,
    OperatorExpr,
    build_hamiltonian,
    eigen_residual,
    jc_verify,
    level_energy_from_coeffs,
    lll_annihilation_residuals,
    lll_state,
    operator_residual_on_probes,
    pt_commutator_residuals,
    pt_eigenfactor,
    standard_probes,
    time_reversal_conjugate,
)
from .spectral import (
    NoTransitionBracketedError,
    build_truncated,
    draw_similarity,
    dump_matrix,
    find_exceptional_point,
    phase_verdict_numeric,
    scramble,  # not called here; part of the names ptdirac.cli exposes
    scrambled_eigensolve,
)


class ConfigError(Exception):
    pass


class Refusal(Exception):
    """A request a command declines; main writes the message and exits 2."""


class _Setting(NamedTuple):
    """One row of the settings table.

    ``key`` is both the config-file key and the flag name; the RunConfig
    attribute is the key with '_' appended when it is a Python keyword
    (``lambda`` -> ``lambda_``).  ``type`` is the RunConfig value type,
    ``choices`` the allowed values of a choice-valued key, ``minimum`` a
    lower bound, and ``physical`` the PhysParams field the key feeds.
    """

    key: str
    type: type
    default: object
    choices: Tuple[str, ...] = ()
    minimum: Optional[int] = None
    physical: Optional[str] = None

    @property
    def attr(self) -> str:
        return self.key + "_" if keyword.iskeyword(self.key) else self.key

    @property
    def parse(self) -> type:
        """Text to value; choice-valued keys stay text until resolved."""
        return str if self.choices else self.type

    def resolve(self, value: object) -> object:
        """Merged value to RunConfig value, checked against the row."""
        if value is None:
            return None
        if self.choices and value not in self.choices:
            raise ConfigError(
                f"{self.key} must be one of {', '.join(self.choices)}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(f"{self.key} must be at least {self.minimum}")
        return self.type(value)


_SETTINGS = (
    _Setting("vf", float, 1.37, physical="v_f"),
    _Setting("lambda", float, 0.5, physical="lam"),
    _Setting("k1", float, 0.02, physical="k1"),
    _Setting("b0", float, 100.0, physical="b0"),
    _Setting("e", float, 1.0, physical="e"),
    _Setting("c", float, 137.0, physical="c"),
    _Setting("hbar", float, 1.0, physical="hbar"),
    _Setting("n_max", int, 5, minimum=1),
    _Setting("branch", Branch, "I", choices=("I", "II")),
    _Setting("valley", Valley, "primary", choices=("primary", "time_reversed")),
    _Setting("n_tr", int, 40, minimum=2),
    _Setting("seed", int, 0, minimum=0),
    _Setting("output", str, None),
    _Setting("format", str, "text", choices=("text", "json")),
)
_BY_KEY = {s.key: s for s in _SETTINGS}
_PHYSICAL = tuple(s for s in _SETTINGS if s.physical)

DEFAULTS: Dict[str, object] = {s.key: s.default for s in _SETTINGS}


def _physical_params(cfg) -> PhysParams:
    return PhysParams(**{s.physical: getattr(cfg, s.attr) for s in _PHYSICAL})


RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(s.attr, Optional[s.type] if s.default is None else s.type) for s in _SETTINGS],
    namespace={
        "__doc__": "Resolved settings, one attribute per settings-table row.",
        "__module__": __name__,
        "params": _physical_params,
    },
)


def _read_config_file(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    out: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _BY_KEY:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _BY_KEY[key].parse(value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key!r}: {value!r}"
            ) from exc
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(DEFAULTS)
    path = args.config
    if path is None:
        env_path = os.environ.get("PTDIRAC_CONFIG")
        if env_path:
            if not os.path.exists(env_path):
                raise ConfigError(
                    f"PTDIRAC_CONFIG points at a missing file: {env_path!r}"
                )
            path = env_path
    if path is not None:
        merged.update(_read_config_file(path))
    for s in _SETTINGS:
        flag = getattr(args, s.attr)
        if flag is not None:
            merged[s.key] = flag
    return RunConfig(**{s.attr: s.resolve(merged[s.key]) for s in _SETTINGS})


def _write_file(path: str, text: str) -> None:
    """Write text to path; an OSError reaches main, which exits 2."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# JSON float policy
# ---------------------------------------------------------------------------

_FLOAT_RE = re.compile(
    r"^[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\d*\.\d+(?:[eE][+-]?\d+)?|inf|nan)$"
)


def jsonable(obj):
    """Floats become repr strings so JSON round-trips them bit-exactly."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def from_jsonable(obj):
    """Inverse of jsonable: float-shaped strings back to floats (values
    only, never keys)."""
    if isinstance(obj, str) and _FLOAT_RE.match(obj):
        return float(obj)
    if isinstance(obj, dict):
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# analytic report
# ---------------------------------------------------------------------------


def build_analytic_report(cfg: RunConfig) -> dict:
    p = cfg.params()
    co = derive_coeffs(p)
    report: dict = {
        "params": {s.key: getattr(p, s.physical) for s in _PHYSICAL},
        "derived": {
            "a": float(co.a_coef),
            "b": float(co.b_coef),
            "c1": float(co.c1),
            "c2": float(co.c2),
            "k": float(co.k_coef),
            "d1": None if co.d1_branch_i is None else float(co.d1_branch_i),
            "d2": None if co.d1_branch_ii is None else float(co.d1_branch_ii),
        },
        "branches": {},
        "critical": {},
    }
    for branch in (Branch.I, Branch.II):
        verdict = classify_phase(p, branch)
        try:
            normalizable = normalizability(p, branch)
        except DegenerateCoefficientsError:
            normalizable = None
        levels = []
        for n in range(cfg.n_max):
            plus, minus = level_energy(p, n, branch)
            levels.append(
                {
                    "n": n,
                    "re_E_plus": plus.real,
                    "im_E_plus": plus.imag,
                    "re_E_minus": minus.real,
                    "im_E_minus": minus.imag,
                }
            )
        gap, _ = level_energy(p, 0, branch)
        report["branches"][branch.value] = {
            "verdict": verdict.value,
            "normalizable": normalizable,
            "re_gap": gap.real,
            "im_gap": gap.imag,
            "levels": levels,
        }
    for vary in Vary:
        try:
            report["critical"][vary.value] = critical_point(p, vary)
        except DegenerateCoefficientsError:
            report["critical"][vary.value] = "degenerate"
        except ValueError:
            report["critical"][vary.value] = "undefined"
    return report


def _render_analytic_text(report: dict) -> str:
    lines: List[str] = []
    pr = report["params"]
    lines.append(
        "parameters: " + " ".join(f"{s.key}={pr[s.key]!r}" for s in _PHYSICAL)
    )
    de = report["derived"]
    lines.append(
        f"derived: a={de['a']!r} b={de['b']!r} c1={de['c1']!r} c2={de['c2']!r}"
    )
    lines.append(f"         k={de['k']!r} d1={de['d1']!r} d2={de['d2']!r}")
    for name, info in report["branches"].items():
        lines.append(
            f"branch {name}: verdict={info['verdict']} "
            f"normalizable={info['normalizable']} "
            f"gap={info['re_gap']!r}{info['im_gap']:+}j".replace("+0.0j", "")
        )
        lines += [
            "  n={n} E+=({re_E_plus!r}, {im_E_plus!r}) "
            "E-=({re_E_minus!r}, {im_E_minus!r})".format(**lv)
            for lv in info["levels"]
        ]
    crit = report["critical"]
    lines.append(f"critical lambda: {crit['lambda']!r}")
    lines.append(f"critical b0: {crit['b0']!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_TOL = 1e-12


def _perturbation(mu: float) -> OperatorExpr:
    """Spin-diagonal real potential mu*(z + zbar): breaks the odd-parity
    symmetry and the valley map without touching hermiticity."""
    return (OperatorExpr.mul_z() + OperatorExpr.mul_zbar()).scaled(mu)


def run_verify(cfg: RunConfig, perturb: float = 0.0) -> List[Tuple[str, str, str]]:
    """Battery of cross-checks; returns (name, status, detail) rows where
    status is PASS, FAIL or SKIP.

    Every row passes at _VERIFY_TOL times the size its residual cancels,
    with h_size = max(|a hbar|, |b hbar|, |c1|, |c2|), kappa =
    k_scale / |k_coef| and d_size = max(1, |d|) over the defined envelope
    exponents d:

    - primitive commutators: d_size, for derivatives of exp(d z zbar)
      bring d-terms that the identity cancels;
    - eigenstates: max(kappa, h_size / sqrt|k_coef|), for the lower
      component holds k_coef / (a hbar), formed by cancellation at
      k_scale, and the upper one cancels terms of size H against |E0|;
    - zero modes: h_size, for the state's coefficient is 1 and the
      residual is in H's units;
    - ladder pair: kappa d_size for the commutator, h_size for the
      factorization;
    - symmetry commutators, valley map: 1.

    Numeric agreement needs each level within the oracle's own floor,
    |E+num - E+| |E+num + E+| <= report.floor, and equal verdicts, or an
    oracle verdict of critical where |k_coef| <= report.floor: there the
    oracle cannot resolve a k that the closed form can.
    Symmetry eigenfactors are a present/absent test.

    Every skip goes through one path: a row that reads the sign of k_coef
    or its square root (eigenstates, symmetry eigenfactors, ladder pair,
    numeric agreement) skips with "critical point" where classify_phase
    finds k_coef within 8 eps k_scale of 0, and a row whose envelope is
    undefined (DerivedCoeffs.envelope raises DegenerateCoefficientsError)
    skips with "degenerate block coefficient".  A row whose float
    arithmetic raises OverflowError skips with the error's message: the
    ladder pair, where jc_verify's 1/k_coef normalization overflows.  A
    non-finite perturb raises ValueError: its nan residuals would fail no
    comparison."""
    if not math.isfinite(perturb):
        raise ValueError(f"perturb must be finite, got {perturb!r}")
    p = cfg.params()
    co = derive_coeffs(p)
    verdict_i = classify_phase(p, Branch.I)
    critical = verdict_i is PhaseVerdict.CRITICAL
    k = abs(float(co.k_coef))
    kappa = float(co.k_scale) / k if k else math.inf  # read only off critical points
    h_size = max(abs(float(x)) for x in (
        co.a_coef * co.hbar, co.b_coef * co.hbar, co.c1, co.c2))
    envelopes = [float(d) for d in (co.d1_branch_i, co.d1_branch_ii) if d is not None]
    d_size = max([1.0] + [abs(d) for d in envelopes])
    rows: List[Tuple[str, str, str]] = []

    def row(name: str, check, reads_k: bool = False) -> None:
        """Append check()'s (ok, detail) as PASS or FAIL, or the SKIP."""
        if reads_k and critical:
            rows.append((name, "SKIP", "critical point"))
            return
        try:
            ok, detail = check()
        except DegenerateCoefficientsError:
            rows.append((name, "SKIP", "degenerate block coefficient"))
            return
        except OverflowError as exc:
            rows.append((name, "SKIP", str(exc)))
            return
        rows.append((name, "PASS" if ok else "FAIL", detail))

    def residual(worst: float, size: float, over: str = "") -> Tuple[bool, str]:
        return worst <= _VERIFY_TOL * size, f"residual {worst:.3e}{over}"

    h = build_hamiltonian(co, Valley.PRIMARY)
    h_other = build_hamiltonian(co, Valley.TIME_REVERSED)
    if perturb:
        h = h + _perturbation(perturb)
    d_probe = next((d for d in envelopes if d < 0), -0.25)
    probes = standard_probes(d_probe, max_degree=4, random_count=8)

    # primitive algebra: [d/dz, z] = 1, [d/dzbar, zbar] = 1, [d/dz, zbar] = 0
    ident = OperatorExpr.identity()
    pairs = [
        (OperatorExpr.dz() @ OperatorExpr.mul_z()
         - OperatorExpr.mul_z() @ OperatorExpr.dz(), ident),
        (OperatorExpr.dzbar() @ OperatorExpr.mul_zbar()
         - OperatorExpr.mul_zbar() @ OperatorExpr.dzbar(), ident),
        (OperatorExpr.dz() @ OperatorExpr.mul_zbar()
         - OperatorExpr.mul_zbar() @ OperatorExpr.dz(), OperatorExpr([])),
    ]
    row("primitive commutators", lambda: residual(
        max(operator_residual_on_probes(x, y, probes) for x, y in pairs), d_size))

    # closed-form eigenstates against the full first-order equation
    def eigenstates(branch: Branch) -> Tuple[bool, str]:
        worst = 0.0
        for valley, hv in ((Valley.PRIMARY, h), (Valley.TIME_REVERSED, h_other)):
            for n in range(11):
                s = opalg.analytic_state(branch, valley, n, co)
                energy = level_energy_from_coeffs(co, n, branch)
                worst = max(worst, eigen_residual(hv, s, energy))
        size = max(kappa, h_size / math.sqrt(k))
        return residual(worst, size, " over n<=10, both valleys")

    for branch in (Branch.I, Branch.II):
        row(f"eigenstates branch {branch.value}",
            functools.partial(eigenstates, branch), reads_k=True)

    # symmetry eigenfactors: present on the real branch, absent on the other
    unbroken = verdict_i is PhaseVerdict.UNBROKEN
    real, broken = (Branch.I, Branch.II) if unbroken else (Branch.II, Branch.I)

    def eigenfactors() -> Tuple[bool, str]:
        details = []
        for branch, present in ((real, True), (broken, False)):
            try:
                states = [opalg.analytic_state(branch, Valley.PRIMARY, n, co)
                          for n in range(7)]
            except DegenerateCoefficientsError:
                if present:
                    raise
                continue  # a degenerate broken branch has no state to carry one
            for n, s in enumerate(states):
                for op in (P1T, P2T):
                    if (pt_eigenfactor(op, s) is not None) != present:
                        details.append(
                            f"{op.name} factor missing at n={n}" if present else
                            f"unexpected {op.name} factor on broken branch n={n}"
                        )
        return not details, "; ".join(details) or "present/absent as required"

    row("symmetry eigenfactors", eigenfactors, reads_k=True)

    # symmetry commutators with both valley Hamiltonians
    row("symmetry commutators", lambda: residual(max(
        max(pt_commutator_residuals(hv, (P1T, P2T), probes)) for hv in (h, h_other)
    ), 1.0))

    # valley map: T H T^{-1} must equal the other valley Hamiltonian
    row("valley map", lambda: residual(
        operator_residual_on_probes(time_reversal_conjugate(h), h_other, probes), 1.0))

    # zero-mode family
    def zero_modes(valley: Valley) -> Tuple[bool, str]:
        states = [lll_state(l, co, valley) for l in range(21)]
        worst = max(lll_annihilation_residuals(states, co, valley))
        return residual(worst, h_size, " over l<=20")

    for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
        row(f"zero modes {valley.value}", functools.partial(zero_modes, valley))

    # ladder pair: [Q1, Q2dag] - 1 is dimensionless, the factorization
    # defect is in H's units
    def ladder() -> Tuple[bool, str]:
        rep = jc_verify(co, degree=30)
        ok = (rep.commutator_residual <= _VERIFY_TOL * kappa * d_size
              and rep.factorization_residual <= _VERIFY_TOL * h_size)
        return ok, (f"commutator {rep.commutator_residual:.3e}, "
                    f"factorization {rep.factorization_residual:.3e}")

    row("ladder pair", ladder, reads_k=True)

    # numeric route agreement; both branches share one similarity
    similarity = draw_similarity(cfg.n_tr, cfg.seed)

    def agreement(branch: Branch) -> Tuple[bool, str]:
        verdict = classify_phase(p, branch)
        report = phase_verdict_numeric(p, similarity, branch=branch, valley=cfg.valley)
        unresolved = report.verdict is PhaseVerdict.CRITICAL and k <= report.floor
        ok, worst = report.verdict is verdict or unresolved, 0.0
        for n, num in enumerate(report.plus_roots[:11]):
            plus, _ = level_energy(p, n, branch)  # never 0: critical k skipped
            worst = max(worst, abs(num - plus) / abs(plus))
            ok = ok and abs(num - plus) * abs(num + plus) <= report.floor
        return ok, (f"verdict {report.verdict.value} vs {verdict.value}, "
                    f"level error {worst:.3e}")

    for branch in (Branch.I, Branch.II):
        row(f"numeric agreement branch {branch.value}",
            functools.partial(agreement, branch), reads_k=True)
    return rows


def cmd_verify(cfg: RunConfig, perturb: float) -> Tuple[dict, int]:
    rows = run_verify(cfg, perturb)
    statuses = [status for _, status, _ in rows]
    counts = {"total": len(rows), "passed": statuses.count("PASS"),
              "failed": statuses.count("FAIL"), "skipped": statuses.count("SKIP")}
    checks = [{"name": name, "status": status, "detail": detail}
              for name, status, detail in rows]
    return {"checks": checks, "counts": counts}, 1 if counts["failed"] else 0


def _render_verify_text(record: dict) -> str:
    width = max(len(c["name"]) for c in record["checks"])
    lines = [f"{c['name']:<{width}}  {c['status']:<4}  {c['detail']}"
             for c in record["checks"]]
    lines.append("{total} checks: {passed} passed, {failed} failed, "
                 "{skipped} skipped".format(**record["counts"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig, dump_path: Optional[str]) -> Tuple[dict, int]:
    rep = build_truncated(derive_coeffs(cfg.params()), cfg.n_tr, cfg.branch, cfg.valley)
    if dump_path is not None:
        _write_file(dump_path, dump_matrix(rep.matrix))
    report = scrambled_eigensolve(rep, draw_similarity(cfg.n_tr, cfg.seed))
    record = {
        "n_tr": cfg.n_tr,
        "seed": cfg.seed,
        "branch": cfg.branch.value,
        "valley": cfg.valley.value,
        "verdict": report.verdict.value,
        "max_residual": report.max_residual,
        "levels": [
            {"n": i, "re_E_plus": plus.real, "im_E_plus": plus.imag}
            for i, plus in enumerate(report.plus_roots)
        ],
    }
    return record, 0


def _render_spectrum_text(record: dict) -> str:
    lines = [
        f"truncation n_tr={record['n_tr']} branch={record['branch']} "
        f"valley={record['valley']} (scrambled, seed={record['seed']})",
        f"verdict: {record['verdict']}",
        f"worst eigenpair residual: {record['max_residual']!r}",
    ]
    lines += [
        f"  n={lv['n']} E+=({lv['re_E_plus']!r}, {lv['im_E_plus']!r})"
        for lv in record["levels"]
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_HEADER = [
    "param",
    "n",
    "branch",
    "re_E_plus",
    "im_E_plus",
    "re_E_minus",
    "im_E_minus",
    "re_gap",
    "im_gap",
    "verdict",
]
_NUMERIC_HEADER = ["num_re_E_plus", "num_im_E_plus", "num_verdict"]


def _sweep_grid(lo: float, hi: float, steps: int, log: bool) -> List[float]:
    if steps < 2:
        raise ConfigError("steps must be at least 2")
    if not lo < hi:
        raise ConfigError("require from < to")
    if log:
        if lo <= 0:
            raise ConfigError("log grid requires from > 0")
        la, lb = math.log10(lo), math.log10(hi)
        grid = [10.0 ** (la + i * (lb - la) / (steps - 1)) for i in range(steps)]
    else:
        grid = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    grid[0] = lo
    grid[-1] = hi
    return grid


def cmd_sweep(
    cfg: RunConfig,
    vary: Vary,
    lo: float,
    hi: float,
    steps: int,
    log: bool,
    numeric: bool,
    numeric_every: Optional[int],
) -> Tuple[dict, int]:
    grid = _sweep_grid(lo, hi, steps, log)
    base = cfg.params()
    every = numeric_every if numeric_every is not None else max(1, steps // 10)
    if every < 1:
        raise ConfigError("numeric_every must be at least 1")
    # every numeric point shares one similarity, drawn for (dim, seed)
    similarity = draw_similarity(cfg.n_tr, cfg.seed) if numeric else None
    header = _SWEEP_HEADER + (_NUMERIC_HEADER if numeric else [])
    rows: List[dict] = []
    for idx, x in enumerate(grid):
        p = with_varied(base, vary, x)
        do_numeric = numeric and idx % every == 0
        for branch in (Branch.I, Branch.II):
            verdict = classify_phase(p, branch)
            gap, _ = level_energy(p, 0, branch)
            numeric_levels: Sequence = ()
            numeric_verdict = None
            if do_numeric:
                try:
                    report = phase_verdict_numeric(
                        p, similarity, branch=branch, valley=cfg.valley
                    )
                    numeric_levels = report.plus_roots
                    numeric_verdict = report.verdict.value
                except DegenerateCoefficientsError:
                    pass
            for n in range(cfg.n_max):
                plus, minus = level_energy(p, n, branch)
                row = [x, n, branch.value, plus.real, plus.imag, minus.real,
                       minus.imag, gap.real, gap.imag, verdict.value]
                if numeric:
                    num = numeric_levels[n] if n < len(numeric_levels) else None
                    row += [None, None] if num is None else [num.real, num.imag]
                    row.append(numeric_verdict)
                rows.append(dict(zip(header, row)))
    return {"rows": rows}, 0


def _render_sweep_text(record: dict) -> str:
    """CSV; csv writes a float as its repr and None as an empty field."""
    numeric = _NUMERIC_HEADER[0] in record["rows"][0]
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, _SWEEP_HEADER + (_NUMERIC_HEADER if numeric else []), lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(record["rows"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------

_CRITICAL_AGREE_REL = 1e-9
_DEFAULT_BISECT_TOL = 1e-6


def cmd_critical(
    cfg: RunConfig,
    vary: Vary,
    lo: Optional[float],
    hi: Optional[float],
    bisect_tol: Optional[float],
) -> Tuple[dict, int]:
    """A missing bracket end is min / max of 0.5 and 1.5 times the analytic
    value, so a negative critical field gets an ordered bracket too.  A
    missing ``bisect_tol`` is ``1e-6 * min(1, hi - lo)``: 1e-6 on a bracket
    at least 1 wide and a millionth of a narrower one, so a critical
    coupling below 1e-6 is bisected rather than refused."""
    if bisect_tol is not None:
        try:
            check_tol("bisect_tol", bisect_tol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    p = cfg.params()
    try:
        analytic = critical_point(p, vary)
    except (DegenerateCoefficientsError, ValueError) as exc:
        raise Refusal(f"analytic critical point unavailable: {exc}") from exc
    if analytic is None:
        raise Refusal("analytic critical point unavailable: no real boundary here")
    if (lo is None or hi is None) and analytic == 0:
        raise Refusal("analytic critical point is 0, so the default bracket "
                      "[0.5, 1.5] x 0 is empty: give --lo and --hi")
    if lo is None:
        lo = min(0.5 * analytic, 1.5 * analytic)
    if hi is None:
        hi = max(0.5 * analytic, 1.5 * analytic)
    if not lo < hi:
        raise ConfigError("require lo < hi")
    if bisect_tol is None:
        bisect_tol = _DEFAULT_BISECT_TOL * min(1.0, hi - lo)
    if bisect_tol >= hi - lo:
        raise ConfigError(
            f"bisect_tol {bisect_tol!r} must be below the bracket width {hi - lo!r}"
        )
    if vary is Vary.LAMBDA and not lo <= analytic <= hi and lo <= -analytic <= hi:
        # k depends on lambda**2, so -analytic is a critical coupling too.
        analytic = -analytic
    try:
        numeric = find_exceptional_point(
            p, vary, lo, hi, draw_similarity(cfg.n_tr, cfg.seed),
            tol=bisect_tol, branch=cfg.branch, valley=cfg.valley,
        )
    except (NoTransitionBracketedError, DegenerateCoefficientsError) as exc:
        raise Refusal(f"bisection failed: {exc}") from exc
    diff = abs(numeric - analytic)
    agree_tol = _CRITICAL_AGREE_REL * max(1.0, abs(analytic))
    record = {"analytic": analytic, "bisected": numeric, "difference": diff}
    return record, 0 if diff <= max(agree_tol, bisect_tol) else 1


def _render_critical_text(record: dict) -> str:
    return "".join(f"{key}: {record[key]!r}\n"
                   for key in ("analytic", "bisected", "difference"))


# ---------------------------------------------------------------------------
# lll / jc
# ---------------------------------------------------------------------------


def cmd_lll(cfg: RunConfig, l_max: int) -> Tuple[dict, int]:
    if l_max < 0:
        raise ConfigError("l_max must be nonnegative")
    co = derive_coeffs(cfg.params())
    valley = cfg.valley
    try:
        states = [lll_state(l, co, valley) for l in range(l_max + 1)]
    except DegenerateCoefficientsError as exc:
        raise Refusal("zero-mode envelope undefined: degenerate coefficients") from exc
    residuals = lll_annihilation_residuals(states, co, valley)
    record = {"valley": valley.value, "envelope": float(states[0].d),
              "residuals": residuals, "worst": max(0.0, *residuals)}
    return record, 0


def _render_lll_text(record: dict) -> str:
    lines = [f"valley {record['valley']}, envelope exponent {record['envelope']!r}"]
    lines += [f"l={l} annihilation residual {res!r}"
              for l, res in enumerate(record["residuals"])]
    lines.append(f"worst residual {record['worst']!r}")
    if record["envelope"] >= 0:
        lines.append("warning: envelope does not decay; family not normalizable")
    return "\n".join(lines) + "\n"


def cmd_jc(cfg: RunConfig, degree: int) -> Tuple[dict, int]:
    if degree < 2:
        raise ConfigError("degree must be an integer >= 2")
    co = derive_coeffs(cfg.params())
    try:
        rep = jc_verify(co, degree=degree)
    except (ValueError, OverflowError) as exc:  # no float ladder normalization
        raise Refusal(str(exc)) from exc
    record = {"degree": degree, "commutator_residual": rep.commutator_residual,
              "factorization_residual": rep.factorization_residual}
    return record, 0


def _render_jc_text(record: dict) -> str:
    return (f"commutator residual (degree {record['degree']}): "
            f"{record['commutator_residual']!r}\n"
            f"factorization residual: {record['factorization_residual']!r}\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged, and each subcommand's ``run`` looks its
    command function up when called, so every ``main`` call can share it.
    ``run`` returns (record, exit code); ``text`` renders the record for
    ``--format text``.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a 'key = value' config file")
    for s in _SETTINGS:
        common.add_argument(
            "--" + s.key, dest=s.attr, type=s.parse, choices=s.choices or None
        )

    parser = argparse.ArgumentParser(
        prog="ptdirac",
        description="planar two-band model with an imaginary spin-coupling: "
        "closed-form levels, symmetry checks and numeric spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", parents=[common])
    p_analytic.set_defaults(
        run=lambda cfg, a: (build_analytic_report(cfg), 0), text=_render_analytic_text
    )

    p_verify = sub.add_parser("verify", parents=[common])
    p_verify.add_argument("--perturb", type=float, default=0.0)
    p_verify.set_defaults(
        run=lambda cfg, a: cmd_verify(cfg, a.perturb), text=_render_verify_text
    )

    p_spectrum = sub.add_parser("spectrum", parents=[common])
    p_spectrum.add_argument("--dump_matrix", dest="dump_matrix_path")
    p_spectrum.set_defaults(
        run=lambda cfg, a: cmd_spectrum(cfg, a.dump_matrix_path),
        text=_render_spectrum_text,
    )

    p_sweep = sub.add_parser("sweep", parents=[common])
    p_sweep.add_argument("--vary", choices=["lambda", "b0"], required=True)
    p_sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--log", action="store_true")
    p_sweep.add_argument("--numeric", action="store_true")
    p_sweep.add_argument("--numeric_every", type=int)
    p_sweep.set_defaults(
        run=lambda cfg, a: cmd_sweep(
            cfg, Vary(a.vary), a.sweep_from, a.sweep_to, a.steps, a.log,
            a.numeric, a.numeric_every,
        ),
        text=_render_sweep_text,
    )

    p_critical = sub.add_parser("critical", parents=[common])
    p_critical.add_argument("--vary", choices=["lambda", "b0"], required=True)
    p_critical.add_argument("--lo", type=float)
    p_critical.add_argument("--hi", type=float)
    p_critical.add_argument("--bisect_tol", type=float)
    p_critical.set_defaults(
        run=lambda cfg, a: cmd_critical(cfg, Vary(a.vary), a.lo, a.hi, a.bisect_tol),
        text=_render_critical_text,
    )

    p_lll = sub.add_parser("lll", parents=[common])
    p_lll.add_argument("--l_max", type=int, default=20)
    p_lll.set_defaults(run=lambda cfg, a: cmd_lll(cfg, a.l_max), text=_render_lll_text)

    p_jc = sub.add_parser("jc", parents=[common])
    p_jc.add_argument("--degree", type=int, default=30)
    p_jc.set_defaults(run=lambda cfg, a: cmd_jc(cfg, a.degree), text=_render_jc_text)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        record, code = args.run(cfg, args)
        if cfg.format == "json":
            text = json.dumps(jsonable(record), indent=2, sort_keys=True) + "\n"
        else:
            text = args.text(record)
        if cfg.output is None:
            sys.stdout.write(text)
        else:
            _write_file(cfg.output, text)
        return code
    except Refusal as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
