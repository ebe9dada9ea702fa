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

Exit codes: 0 success, 1 a verification or agreement check failed, 2 bad
input (usage, config, a non-finite or negative --bisect_tol, a non-finite
--perturb, parameters whose derived coefficients overflow or whose
eigenpair certificates fail, degenerate or unbracketed requests, an output
path that cannot be written).  Floats are
printed with repr for exact round-tripping; JSON output stores floats as
repr strings.
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
    _Setting("format", str, "csv", choices=("csv", "json", "text")),
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


def _write_output(cfg: RunConfig, text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        _write_file(cfg.output, text)


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
        for lv in info["levels"]:
            lines.append(
                "  n={n} E+=({rp!r}, {ip!r}) E-=({rm!r}, {im!r})".format(
                    n=lv["n"],
                    rp=lv["re_E_plus"],
                    ip=lv["im_E_plus"],
                    rm=lv["re_E_minus"],
                    im=lv["im_E_minus"],
                )
            )
    crit = report["critical"]
    lines.append(f"critical lambda: {crit['lambda']!r}")
    lines.append(f"critical b0: {crit['b0']!r}")
    return "\n".join(lines) + "\n"


def cmd_analytic(cfg: RunConfig) -> int:
    report = build_analytic_report(cfg)
    if cfg.format == "json":
        text = json.dumps(jsonable(report), indent=2, sort_keys=True) + "\n"
    else:
        text = _render_analytic_text(report)
    _write_output(cfg, text)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_VERIFY_TOL = 1e-12
_AGREE_TOL = 1e-8


def _perturbation(mu: float) -> OperatorExpr:
    """Spin-diagonal real potential mu*(z + zbar): breaks the odd-parity
    symmetry and the valley map without touching hermiticity."""
    return (OperatorExpr.mul_z() + OperatorExpr.mul_zbar()).scaled(mu)


def run_verify(cfg: RunConfig, perturb: float = 0.0) -> List[Tuple[str, str, str]]:
    """Battery of cross-checks; returns (name, status, detail) rows where
    status is PASS, FAIL or SKIP.  A non-finite perturb raises ValueError:
    its nan residuals would fail no comparison."""
    if not math.isfinite(perturb):
        raise ValueError(f"perturb must be finite, got {perturb!r}")
    p = cfg.params()
    co = derive_coeffs(p)
    k = float(co.k_coef)
    rows: List[Tuple[str, str, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        rows.append((name, "PASS" if ok else "FAIL", detail))

    def skip(name: str, detail: str) -> None:
        rows.append((name, "SKIP", detail))

    h = build_hamiltonian(co, Valley.PRIMARY)
    h_other = build_hamiltonian(co, Valley.TIME_REVERSED)
    if perturb:
        h = h + _perturbation(perturb)
    d_probe = -0.25
    for candidate in (co.d1_branch_i, co.d1_branch_ii):
        if candidate is not None and float(candidate) < 0:
            d_probe = float(candidate)
            break
    probes = standard_probes(d_probe, max_degree=4, random_count=8)

    # primitive algebra
    ident = OperatorExpr.identity()
    pairs = [
        ("[d/dz, z] = 1", OperatorExpr.dz() @ OperatorExpr.mul_z()
         - OperatorExpr.mul_z() @ OperatorExpr.dz(), ident),
        ("[d/dzbar, zbar] = 1", OperatorExpr.dzbar() @ OperatorExpr.mul_zbar()
         - OperatorExpr.mul_zbar() @ OperatorExpr.dzbar(), ident),
        ("[d/dz, zbar] = 0", OperatorExpr.dz() @ OperatorExpr.mul_zbar()
         - OperatorExpr.mul_zbar() @ OperatorExpr.dz(), OperatorExpr([])),
    ]
    worst = max(
        operator_residual_on_probes(x, y, probes) for _, x, y in pairs
    )
    record("primitive commutators", worst <= _VERIFY_TOL, f"residual {worst:.3e}")

    # closed-form eigenstates against the full first-order equation
    for branch in (Branch.I, Branch.II):
        if co.d1(branch) is None:
            skip(
                f"eigenstates branch {branch.value}",
                "degenerate A=0" if branch is Branch.I else "degenerate B=0",
            )
            continue
        worst = 0.0
        for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
            hv = h if valley is Valley.PRIMARY else h_other
            for n in range(11):
                s = opalg.analytic_state(branch, valley, n, co)
                worst = max(worst, eigen_residual(hv, s, s.energy))
        record(
            f"eigenstates branch {branch.value}",
            worst <= _VERIFY_TOL,
            f"residual {worst:.3e} over n<=10, both valleys",
        )

    # symmetry eigenfactors: present on the real branch, absent on the other
    real, broken = (Branch.I, Branch.II) if k > 0 else (Branch.II, Branch.I)
    if not abs(k) > 0.0:  # k = 0, or nan after an overflow
        skip("symmetry eigenfactors", "k = 0 (critical point)")
    elif co.d1(real) is None:
        skip("symmetry eigenfactors", "real branch degenerate")
    else:
        details = []
        for branch, present in ((real, True), (broken, False)):
            if co.d1(branch) is None:
                continue
            for n in range(7):
                s = opalg.analytic_state(branch, Valley.PRIMARY, n, co)
                for op in (P1T, P2T):
                    if (pt_eigenfactor(op, s) is not None) != present:
                        details.append(
                            f"{op.name} factor missing at n={n}" if present else
                            f"unexpected {op.name} factor on broken branch n={n}"
                        )
        record(
            "symmetry eigenfactors",
            not details,
            "; ".join(details) or "present/absent as required",
        )

    # symmetry commutators with both valley Hamiltonians
    worst = 0.0
    for hv in (h, h_other):
        worst = max(worst, *pt_commutator_residuals(hv, (P1T, P2T), probes))
    record("symmetry commutators", worst <= _VERIFY_TOL, f"residual {worst:.3e}")

    # valley map: T H T^{-1} must equal the other valley Hamiltonian
    mapped = time_reversal_conjugate(h)
    worst = operator_residual_on_probes(mapped, h_other, probes)
    record("valley map", worst <= _VERIFY_TOL, f"residual {worst:.3e}")

    # zero-mode family
    for valley in (Valley.PRIMARY, Valley.TIME_REVERSED):
        name = f"zero modes {valley.value}"
        try:
            states = [lll_state(l, co, valley) for l in range(21)]
        except DegenerateCoefficientsError:
            skip(name, "degenerate block coefficient")
            continue
        worst = max(lll_annihilation_residuals(states, co, valley))
        record(name, worst <= _VERIFY_TOL, f"residual {worst:.3e} over l<=20")

    # ladder pair
    if k == 0.0:
        skip("ladder pair", "k = 0: normalization undefined")
    else:
        rep = jc_verify(co, degree=30)
        ok = (
            rep.commutator_residual <= _VERIFY_TOL
            and rep.factorization_residual <= _VERIFY_TOL
        )
        record(
            "ladder pair",
            ok,
            f"commutator {rep.commutator_residual:.3e}, "
            f"factorization {rep.factorization_residual:.3e}",
        )

    # numeric route agreement; both branches share one similarity
    similarity = draw_similarity(cfg.n_tr, cfg.seed)
    for branch in (Branch.I, Branch.II):
        name = f"numeric agreement branch {branch.value}"
        verdict = classify_phase(p, branch)
        if verdict is PhaseVerdict.CRITICAL:
            skip(name, "critical point")
            continue
        if co.d1(branch) is None:
            skip(name, "degenerate block coefficient")
            continue
        report = phase_verdict_numeric(
            p, branch=branch, valley=cfg.valley, n_tr=cfg.n_tr, seed=cfg.seed,
            similarity=similarity,
        )
        worst = 0.0
        for n, (num, _) in enumerate(report.retained_pairs[:11]):
            plus, _ = level_energy(p, n, branch)
            worst = max(worst, abs(num - plus) / max(1.0, abs(plus)))
        record(
            name,
            report.verdict is verdict and worst <= _AGREE_TOL,
            f"verdict {report.verdict.value} vs {verdict.value}, "
            f"level error {worst:.3e}",
        )
    return rows


def cmd_verify(cfg: RunConfig, perturb: float) -> int:
    rows = run_verify(cfg, perturb)
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{name:<{width}}  {status:<4}  {detail}" for name, status, detail in rows]
    failed = sum(1 for _, status, _ in rows if status == "FAIL")
    lines.append(
        f"{len(rows)} checks: "
        f"{sum(1 for _, s, _ in rows if s == 'PASS')} passed, "
        f"{failed} failed, "
        f"{sum(1 for _, s, _ in rows if s == 'SKIP')} skipped"
    )
    _write_output(cfg, "\n".join(lines) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(cfg: RunConfig, dump_path: Optional[str]) -> int:
    rep = build_truncated(derive_coeffs(cfg.params()), cfg.n_tr, cfg.branch, cfg.valley)
    if dump_path is not None:
        _write_file(dump_path, dump_matrix(rep.matrix))
    report = scrambled_eigensolve(rep, draw_similarity(cfg.n_tr, cfg.seed))
    payload = {
        "n_tr": cfg.n_tr,
        "branch": cfg.branch.value,
        "valley": cfg.valley.value,
        "verdict": report.verdict.value,
        "max_residual": report.max_residual,
        "levels": [
            {"n": i, "re_E_plus": pair[0].real, "im_E_plus": pair[0].imag}
            for i, pair in enumerate(report.retained_pairs)
        ],
    }
    if cfg.format == "json":
        text = json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"truncation n_tr={cfg.n_tr} branch={cfg.branch.value} "
            f"valley={cfg.valley.value} (scrambled, seed={cfg.seed})",
            f"verdict: {report.verdict.value}",
            f"worst eigenpair residual: {report.max_residual!r}",
        ]
        lines += [
            f"  n={i} E+=({plus.real!r}, {plus.imag!r})"
            for i, (plus, _) in enumerate(report.retained_pairs)
        ]
        text = "\n".join(lines) + "\n"
    _write_output(cfg, text)
    return 0


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
) -> int:
    grid = _sweep_grid(lo, hi, steps, log)
    base = cfg.params()
    every = numeric_every if numeric_every is not None else max(1, steps // 10)
    if every < 1:
        raise ConfigError("numeric_every must be at least 1")
    # every numeric point shares one similarity, drawn for (dim, seed)
    similarity = draw_similarity(cfg.n_tr, cfg.seed) if numeric else None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = _SWEEP_HEADER + (_NUMERIC_HEADER if numeric else [])
    writer.writerow(header)
    for idx, x in enumerate(grid):
        p = with_varied(base, vary, x)
        do_numeric = numeric and idx % every == 0
        for branch in (Branch.I, Branch.II):
            verdict = classify_phase(p, branch)
            gap, _ = level_energy(p, 0, branch)
            numeric_levels: Sequence = ()
            numeric_verdict = ""
            if do_numeric:
                try:
                    report = phase_verdict_numeric(
                        p,
                        branch=branch,
                        valley=cfg.valley,
                        n_tr=cfg.n_tr,
                        seed=cfg.seed,
                        similarity=similarity,
                    )
                    numeric_levels = report.retained_pairs
                    numeric_verdict = report.verdict.value
                except DegenerateCoefficientsError:
                    pass
            for n in range(cfg.n_max):
                plus, minus = level_energy(p, n, branch)
                row = [
                    repr(x),
                    n,
                    branch.value,
                    repr(plus.real),
                    repr(plus.imag),
                    repr(minus.real),
                    repr(minus.imag),
                    repr(gap.real),
                    repr(gap.imag),
                    verdict.value,
                ]
                if numeric:
                    if n < len(numeric_levels):
                        num_plus = numeric_levels[n][0]
                        row += [repr(num_plus.real), repr(num_plus.imag)]
                    else:
                        row += ["", ""]
                    row.append(numeric_verdict)
                writer.writerow(row)
    _write_output(cfg, buf.getvalue())
    return 0


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------

_CRITICAL_AGREE_REL = 1e-9


def cmd_critical(
    cfg: RunConfig,
    vary: Vary,
    lo: Optional[float],
    hi: Optional[float],
    bisect_tol: float,
) -> int:
    p = cfg.params()
    try:
        analytic = critical_point(p, vary)
    except (DegenerateCoefficientsError, ValueError) as exc:
        sys.stderr.write(f"analytic critical point unavailable: {exc}\n")
        return 2
    if analytic is None:
        sys.stderr.write(
            "analytic critical point unavailable: no real boundary here\n"
        )
        return 2
    if lo is None:
        lo = 0.5 * analytic
    if hi is None:
        hi = 1.5 * analytic
    if vary is Vary.LAMBDA and not lo <= analytic <= hi and lo <= -analytic <= hi:
        # k depends on lambda**2, so -analytic is a critical coupling too.
        analytic = -analytic
    try:
        numeric = find_exceptional_point(
            p,
            vary,
            lo,
            hi,
            tol=bisect_tol,
            branch=cfg.branch,
            valley=cfg.valley,
            n_tr=cfg.n_tr,
            seed=cfg.seed,
        )
    except (NoTransitionBracketedError, DegenerateCoefficientsError) as exc:
        sys.stderr.write(f"bisection failed: {exc}\n")
        return 2
    diff = abs(numeric - analytic)
    text = (
        f"analytic: {analytic!r}\n"
        f"bisected: {numeric!r}\n"
        f"difference: {diff!r}\n"
    )
    _write_output(cfg, text)
    agree_tol = _CRITICAL_AGREE_REL * max(1.0, abs(analytic))
    return 0 if diff <= max(agree_tol, bisect_tol) else 1


# ---------------------------------------------------------------------------
# lll / jc
# ---------------------------------------------------------------------------


def cmd_lll(cfg: RunConfig, l_max: int) -> int:
    if l_max < 0:
        raise ConfigError("l_max must be nonnegative")
    co = derive_coeffs(cfg.params())
    valley = cfg.valley
    try:
        states = [lll_state(l, co, valley) for l in range(l_max + 1)]
    except DegenerateCoefficientsError:
        sys.stderr.write("zero-mode envelope undefined: degenerate coefficients\n")
        return 2
    d = states[0].d
    lines = [f"valley {valley.value}, envelope exponent {float(d)!r}"]
    worst = 0.0
    for l, res in enumerate(lll_annihilation_residuals(states, co, valley)):
        worst = max(worst, res)
        lines.append(f"l={l} annihilation residual {res!r}")
    lines.append(f"worst residual {worst!r}")
    if float(d) >= 0:
        lines.append("warning: envelope does not decay; family not normalizable")
    _write_output(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_jc(cfg: RunConfig, degree: int) -> int:
    co = derive_coeffs(cfg.params())
    try:
        rep = jc_verify(co, degree=degree)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    text = (
        f"commutator residual (degree {degree}): {rep.commutator_residual!r}\n"
        f"factorization residual: {rep.factorization_residual!r}\n"
    )
    _write_output(cfg, text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves it unchanged, and each subcommand's ``run`` looks its
    ``cmd_*`` up when called, so every ``main`` call can share it.
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
    p_analytic.set_defaults(run=lambda cfg, a: cmd_analytic(cfg))

    p_verify = sub.add_parser("verify", parents=[common])
    p_verify.add_argument("--perturb", type=float, default=0.0)
    p_verify.set_defaults(run=lambda cfg, a: cmd_verify(cfg, a.perturb))

    p_spectrum = sub.add_parser("spectrum", parents=[common])
    p_spectrum.add_argument("--dump_matrix", dest="dump_matrix_path")
    p_spectrum.set_defaults(run=lambda cfg, a: cmd_spectrum(cfg, a.dump_matrix_path))

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
        )
    )

    p_critical = sub.add_parser("critical", parents=[common])
    p_critical.add_argument("--vary", choices=["lambda", "b0"], required=True)
    p_critical.add_argument("--lo", type=float)
    p_critical.add_argument("--hi", type=float)
    p_critical.add_argument("--bisect_tol", type=float, default=1e-6)
    p_critical.set_defaults(
        run=lambda cfg, a: cmd_critical(cfg, Vary(a.vary), a.lo, a.hi, a.bisect_tol)
    )

    p_lll = sub.add_parser("lll", parents=[common])
    p_lll.add_argument("--l_max", type=int, default=20)
    p_lll.set_defaults(run=lambda cfg, a: cmd_lll(cfg, a.l_max))

    p_jc = sub.add_parser("jc", parents=[common])
    p_jc.add_argument("--degree", type=int, default=30)
    p_jc.set_defaults(run=lambda cfg, a: cmd_jc(cfg, a.degree))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        return args.run(cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
