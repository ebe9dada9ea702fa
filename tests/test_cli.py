"""End-to-end command-line tests: config layering, output formats,
determinism and exit codes."""

import cmath
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ptdirac import cli
from ptdirac.params import (
    Branch,
    PhysParams,
    Valley,
    Vary,
    critical_point,
    derive_coeffs,
    level_energy,
)
from ptdirac.cli import (
    DEFAULTS,
    RunConfig,
    build_analytic_report,
    from_jsonable,
    jsonable,
    main,
)
from ptdirac.opalg import JCReport
from ptdirac.spectral import build_truncated, parse_matrix

from edge_points import (
    HUGE_ENVELOPE_FLAGS,
    LARGE,
    LARGE_FLAGS,
    NEAR_EP_FLAGS,
    SUBNORMAL_K_FLAGS,
)

SRC = Path(__file__).resolve().parent.parent / "src"
BASE = PhysParams(v_f=1.37, lam=0.5, k1=0.02, b0=100.0)

SWEEP_HEADER = (
    "param,n,branch,re_E_plus,im_E_plus,re_E_minus,im_E_minus,"
    "re_gap,im_gap,verdict"
)


def default_config(**overrides) -> RunConfig:
    fields = dict(
        vf=1.37, lambda_=0.5, k1=0.02, b0=100.0, e=1.0, c=137.0, hbar=1.0,
        n_max=5, branch=Branch.I, valley=Valley.PRIMARY, n_tr=40,
        seed=0, output=None, format="text",
    )
    fields.update(overrides)
    return RunConfig(**fields)


def run_to_file(tmp_path, args, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# analytic and the JSON policy
# ---------------------------------------------------------------------------


def test_analytic_exits_clean(tmp_path):
    code, text = run_to_file(tmp_path, ["analytic"])
    assert code == 0
    assert "branch I" in text and "branch II" in text
    assert "critical lambda" in text


def test_analytic_json_round_trip(tmp_path):
    code, text = run_to_file(tmp_path, ["analytic", "--format", "json"])
    assert code == 0
    parsed = from_jsonable(json.loads(text))
    report = build_analytic_report(default_config())
    assert parsed == report


def test_jsonable_is_lossless():
    report = build_analytic_report(default_config(n_max=3))
    wire = json.dumps(jsonable(report), sort_keys=True)
    assert from_jsonable(json.loads(wire)) == report


def test_analytic_reports_expected_values(tmp_path):
    code, text = run_to_file(tmp_path, ["analytic", "--format", "json"])
    assert code == 0
    report = from_jsonable(json.loads(text))
    assert abs(report["derived"]["k"] - 2.2248845) < 1e-6
    assert report["branches"]["I"]["verdict"] == "unbroken"
    assert report["branches"]["II"]["verdict"] == "broken"
    assert abs(report["critical"]["lambda"] - 1.3319332) < 1e-6
    assert abs(report["critical"]["b0"] - 6.3220923) < 1e-6


# One short command line per subcommand; sweep's reaches the degenerate
# lambda = v_f, where the numeric columns are null.
COMMANDS = [
    ["analytic", "--n_max", "3"],
    ["verify", "--n_tr", "8"],
    ["spectrum", "--n_tr", "8"],
    ["sweep", "--vary", "lambda", "--from", "1.0", "--to", "1.37", "--steps", "3",
     "--numeric", "--n_tr", "8", "--n_max", "2"],
    ["critical", "--vary", "lambda", "--n_tr", "8", "--bisect_tol", "1e-5"],
    ["lll", "--l_max", "4"],
    ["jc", "--degree", "8"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_text_is_the_json_record_rendered(tmp_path, argv):
    # the text renderer applied to the parsed JSON gives the text bytes, so
    # the text goldens pin every JSON record too
    code, text = run_to_file(tmp_path, argv + ["--format", "text"], "out.txt")
    assert code == 0
    code, wire = run_to_file(tmp_path, argv + ["--format", "json"], "out.json")
    assert code == 0
    assert wire != text
    args = cli._build_parser().parse_args(argv)
    record = from_jsonable(json.loads(wire))
    assert args.text(record) == text
    if argv[0] == "sweep":
        assert any(row["num_verdict"] is None for row in record["rows"])


def test_format_csv_is_rejected_as_flag_and_config_value(tmp_path, capsys):
    argv = ["sweep", "--vary", "b0", "--from", "5.0", "--to", "50.0", "--steps", "2"]
    assert main(argv + ["--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert "--format" in err and "csv" in err
    conf = tmp_path / "run.conf"
    conf.write_text("format = csv\n", encoding="utf-8")
    assert main(argv + ["--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert "format" in captured.err and "'csv'" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# configuration layering
# ---------------------------------------------------------------------------


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "b0 = 50.0\nn_max = 3  # per-level rows\n# comment line\n",
        encoding="utf-8",
    )
    code, text = run_to_file(
        tmp_path, ["analytic", "--format", "json", "--config", str(cfg)]
    )
    assert code == 0
    report = from_jsonable(json.loads(text))
    assert report["params"]["b0"] == 50.0
    assert len(report["branches"]["I"]["levels"]) == 3

    code, text = run_to_file(
        tmp_path,
        ["analytic", "--format", "json", "--config", str(cfg), "--b0", "60.0"],
        name="out2.txt",
    )
    assert code == 0
    report = from_jsonable(json.loads(text))
    assert report["params"]["b0"] == 60.0
    assert len(report["branches"]["I"]["levels"]) == 3


# tol is no setting: the verdict floor is computed, not set
@pytest.mark.parametrize("line", ["bogus = 1", "tol = 1e-8"])
def test_config_rejects_unknown_key(tmp_path, capsys, line):
    cfg = tmp_path / "run.conf"
    cfg.write_text(line + "\n", encoding="utf-8")
    assert main(["analytic", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_rejects_a_missing_file(tmp_path, capsys):
    assert main(["analytic", "--config", str(tmp_path / "absent.conf")]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config file ")


def test_config_rejects_a_line_without_equals(tmp_path, capsys):
    cfg = tmp_path / "run.conf"
    cfg.write_text("lambda 0.25\n", encoding="utf-8")
    assert main(["analytic", "--config", str(cfg)]) == 2
    assert f"{cfg}:1: expected 'key = value'" in capsys.readouterr().err


def test_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("b0 = ten\n", encoding="utf-8")
    assert main(["analytic", "--config", str(cfg)]) == 2


def test_config_from_environment(tmp_path, monkeypatch):
    cfg = tmp_path / "env.conf"
    cfg.write_text("n_max = 2\n", encoding="utf-8")
    monkeypatch.setenv("PTDIRAC_CONFIG", str(cfg))
    code, text = run_to_file(tmp_path, ["analytic", "--format", "json"])
    assert code == 0
    report = from_jsonable(json.loads(text))
    assert len(report["branches"]["I"]["levels"]) == 2


def test_config_environment_missing_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PTDIRAC_CONFIG", str(tmp_path / "absent.conf"))
    assert main(["analytic"]) == 2
    assert "missing" in capsys.readouterr().err


def test_explicit_config_beats_environment(tmp_path, monkeypatch):
    env_cfg = tmp_path / "env.conf"
    env_cfg.write_text("n_max = 2\n", encoding="utf-8")
    flag_cfg = tmp_path / "flag.conf"
    flag_cfg.write_text("n_max = 4\n", encoding="utf-8")
    monkeypatch.setenv("PTDIRAC_CONFIG", str(env_cfg))
    code, text = run_to_file(
        tmp_path, ["analytic", "--format", "json", "--config", str(flag_cfg)]
    )
    assert code == 0
    report = from_jsonable(json.loads(text))
    assert len(report["branches"]["I"]["levels"]) == 4


def test_bad_flag_value_exits_two():
    assert main(["analytic", "--branch", "III"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["spectrum", "--n_tr", "8", "--tol", "1e-8"]) == 2


# Two values for every settings key, written as in a config file or on the
# command line.  The first is never the default; the two always differ.
SETTING_VALUES = {
    "vf": ("1.5", "1.25"),
    "lambda": ("0.25", "0.75"),
    "k1": ("0.03", "0.01"),
    "b0": ("50.0", "75.0"),
    "e": ("2.0", "0.5"),
    "c": ("100.0", "150.0"),
    "hbar": ("0.5", "2.0"),
    "n_max": ("3", "2"),
    "branch": ("II", "I"),
    "valley": ("time_reversed", "primary"),
    "n_tr": ("12", "16"),
    "seed": ("7", "3"),
    "output": ("first.txt", "second.txt"),
    "format": ("json", "text"),
}


def resolved(monkeypatch, argv) -> RunConfig:
    """The RunConfig that main hands to the analytic command."""
    seen = []
    build = cli.build_analytic_report
    monkeypatch.setattr(
        cli, "build_analytic_report", lambda cfg: seen.append(cfg) or build(cfg)
    )
    # the output key's values are bare file names: write nothing
    monkeypatch.setattr(cli, "_write_file", lambda path, text: None)
    assert main(["analytic"] + argv) == 0
    return seen[0]


def test_setting_values_cover_every_key():
    assert list(SETTING_VALUES) == list(DEFAULTS)


@pytest.mark.parametrize("key", list(DEFAULTS))
def test_config_key_equals_flag_and_flag_wins(key, tmp_path, monkeypatch):
    monkeypatch.delenv("PTDIRAC_CONFIG", raising=False)
    file_value, flag_value = SETTING_VALUES[key]
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {file_value}\n", encoding="utf-8")
    from_file = resolved(monkeypatch, ["--config", str(conf)])
    from_flag = resolved(monkeypatch, [f"--{key}", file_value])
    assert from_file == from_flag
    assert from_file != resolved(monkeypatch, [])
    both = resolved(monkeypatch, ["--config", str(conf), f"--{key}", flag_value])
    assert both == resolved(monkeypatch, [f"--{key}", flag_value])
    assert both != from_file


@pytest.mark.parametrize("key", ["branch", "valley", "format"])
def test_config_rejects_bad_choice_naming_key_and_value(key, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = bogus\n", encoding="utf-8")
    assert main(["analytic", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert key in err and "'bogus'" in err


@pytest.mark.parametrize(
    "key, low", [("n_max", "0"), ("n_tr", "1"), ("seed", "-1")]
)
def test_minimum_holds_for_file_and_flag(key, low, tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {low}\n", encoding="utf-8")
    assert main(["analytic", "--config", str(conf)]) == 2
    assert f"{key} must be at least" in capsys.readouterr().err
    assert main(["analytic", f"--{key}", low]) == 2
    assert f"{key} must be at least" in capsys.readouterr().err


def test_unwritable_output_flag_exits_two(tmp_path, capsys):
    missing = tmp_path / "absent" / "out.txt"
    assert main(["analytic", "--output", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_in_config_exits_two(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(f"output = {tmp_path / 'absent' / 'out.txt'}\n", encoding="utf-8")
    assert main(["analytic", "--config", str(conf)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_dump_matrix_exits_two(tmp_path, capsys):
    missing = tmp_path / "absent" / "matrix.txt"
    assert main(["spectrum", "--n_tr", "8", "--dump_matrix", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_header_and_shape(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["sweep", "--vary", "lambda", "--from", "0.1", "--to", "1.0",
         "--steps", "3"],
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER
    # 3 grid points x 2 branches x n_max levels
    assert len(lines) == 1 + 3 * 2 * int(DEFAULTS["n_max"])
    first = lines[1].split(",")
    assert first[0] == "0.1" and first[1] == "0" and first[2] == "I"


def test_sweep_is_byte_deterministic(tmp_path):
    args = ["sweep", "--vary", "b0", "--from", "5.0", "--to", "50.0",
            "--steps", "7"]
    _, text1 = run_to_file(tmp_path, args, name="a.csv")
    _, text2 = run_to_file(tmp_path, args, name="b.csv")
    assert text1 == text2


@pytest.mark.parametrize("grid, lo, hi", [
    (["--steps", "4"], "5.0", "50.0"),
    # the last log-grid point would round to 10**308.2547155599168, which
    # overflows; the ends are the given values
    (["--steps", "3", "--log"], "1.0", repr(1.7976931348623157e308)),
], ids=["linear", "log_to_the_largest_float"])
def test_sweep_endpoints_inclusive(tmp_path, grid, lo, hi):
    code, text = run_to_file(
        tmp_path, ["sweep", "--vary", "b0", "--from", lo, "--to", hi] + grid
    )
    assert code == 0
    params = [line.split(",")[0] for line in text.splitlines()[1:]]
    assert params[0] == lo
    assert params[-1] == hi


def test_sweep_marks_exact_boundary_critical(tmp_path):
    lam_c = critical_point(BASE, Vary.LAMBDA)
    code, text = run_to_file(
        tmp_path,
        ["sweep", "--vary", "lambda", "--from", repr(lam_c),
         "--to", repr(lam_c + 0.5), "--steps", "2"],
    )
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()[1:]]
    boundary = [r for r in rows if r[0] == repr(lam_c)]
    assert boundary and all(r[9] == "critical" for r in boundary)
    beyond = [r for r in rows if r[0] != repr(lam_c) and r[2] == "I"]
    assert all(r[9] == "broken" for r in beyond)


def test_sweep_rejects_bad_grid(tmp_path):
    assert main(["sweep", "--vary", "b0", "--from", "5.0", "--to", "1.0",
                 "--steps", "3"]) == 2
    assert main(["sweep", "--vary", "b0", "--from", "1.0", "--to", "5.0",
                 "--steps", "1"]) == 2
    assert main(["sweep", "--vary", "b0", "--from", "-1.0", "--to", "5.0",
                 "--steps", "3", "--log"]) == 2


def test_sweep_log_grid_slope(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["sweep", "--vary", "b0", "--log", "--from", "1e3", "--to", "1e5",
         "--steps", "5", "--n_max", "1"],
    )
    assert code == 0
    rows = [line.split(",") for line in text.splitlines()[1:]]
    points = [(float(r[0]), float(r[7])) for r in rows if r[2] == "I"]
    lo_b, lo_gap = points[0]
    hi_b, hi_gap = points[-1]
    slope = (np.log10(hi_gap) - np.log10(lo_gap)) / (np.log10(hi_b) - np.log10(lo_b))
    assert abs(slope - 0.5) < 0.01


def test_sweep_rejects_numeric_every_zero(capsys):
    argv = ["sweep", "--vary", "b0", "--from", "5", "--to", "50", "--steps", "3",
            "--numeric", "--numeric_every", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: numeric_every must be at least 1\n"


def test_sweep_numeric_columns(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["sweep", "--vary", "b0", "--from", "50.0", "--to", "150.0",
         "--steps", "3", "--numeric", "--numeric_every", "2",
         "--n_tr", "16", "--n_max", "2"],
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == SWEEP_HEADER + ",num_re_E_plus,num_im_E_plus,num_verdict"
    rows = [line.split(",") for line in lines[1:]]
    sampled = [r for r in rows if r[10] != ""]
    skipped = [r for r in rows if r[10] == ""]
    assert sampled and skipped
    for r in sampled:
        assert abs(float(r[10]) - float(r[3])) <= 1e-6 * max(1.0, abs(float(r[3])))
        assert r[12] == r[9]


# ---------------------------------------------------------------------------
# critical
# ---------------------------------------------------------------------------


def test_critical_agreement(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["critical", "--vary", "lambda", "--n_tr", "12",
         "--bisect_tol", "1e-5"],
    )
    assert code == 0
    values = {}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        values[key.strip()] = float(val)
    assert abs(values["analytic"] - 1.3319332) < 1e-6
    assert abs(values["analytic"] - values["bisected"]) <= 1e-4


@pytest.mark.parametrize(
    "args",
    [["--vary", vary, "--branch", branch, "--valley", valley]
     for vary in ("lambda", "b0")
     for branch in ("I", "II")
     for valley in ("primary", "time_reversed")]
    + [["--vary", "b0", "--seed", str(seed)] for seed in range(1, 4)]
    # brackets holding only the negative root -1.33193...
    + [["--vary", "lambda", "--lo", "-1.5", "--hi", hi] for hi in ("-1.0", "1.0")],
    ids=" ".join,
)
def test_critical_lands_within_bisect_tol(tmp_path, args):
    code, text = run_to_file(tmp_path, ["critical", "--bisect_tol", "1e-6"] + args)
    assert code == 0
    values = dict(line.split(": ") for line in text.splitlines())
    assert float(values["difference"]) <= 1e-6


def test_critical_without_spin_coupling_lands_on_vf(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["critical", "--vary", "lambda", "--k1", "0.0", "--n_tr", "12"],
    )
    assert code == 0
    for line in text.splitlines():
        if line.startswith("analytic:"):
            assert float(line.split(":")[1]) == 1.37
        if line.startswith("bisected:"):
            # the boundary coincides with the degenerate point here, and the
            # bisection steers onto it from below
            assert abs(float(line.split(":")[1]) - 1.37) <= 1e-6


@pytest.mark.parametrize("flags", [["--lambda", "2.0"], ["--k1", "-0.02"]])
def test_critical_negative_field_gets_an_ordered_default_bracket(tmp_path, flags):
    # lambda > v_f or k1 < 0 puts the critical field below zero, where
    # [0.5, 1.5] x analytic runs backwards
    code, text = run_to_file(
        tmp_path, ["critical", "--vary", "b0", "--format", "json"] + flags
    )
    assert code == 0
    record = from_jsonable(json.loads(text))
    assert record["analytic"] < 0
    assert record["difference"] <= 1e-12 * abs(record["analytic"])


def test_critical_at_a_zero_field_asks_for_a_bracket(capsys):
    # k1 = 0 puts the critical field at 0, where the default bracket is empty
    assert main(["critical", "--vary", "b0", "--k1", "0"]) == 2
    captured = capsys.readouterr()
    assert "give --lo and --hi" in captured.err
    assert captured.out == ""


def test_critical_unbracketed_exits_two(capsys):
    assert main(["critical", "--vary", "lambda", "--lo", "0.1",
                 "--hi", "0.2", "--n_tr", "8"]) == 2
    assert "bisection failed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-06"])
def test_critical_rejects_non_finite_or_negative_bisect_tol(value, capsys):
    assert main(["critical", "--vary", "lambda", "--n_tr", "8",
                 f"--bisect_tol={value}"]) == 2
    captured = capsys.readouterr()
    assert "tol must be finite and nonnegative" in captured.err
    assert "bisected" not in captured.out


def test_critical_rejects_bisect_tol_not_below_the_bracket(capsys):
    # the default bracket is [0.5, 1.5] x analytic, here about 1.33 wide
    assert main(["critical", "--vary", "lambda", "--n_tr", "8",
                 "--bisect_tol", "2"]) == 2
    captured = capsys.readouterr()
    assert "below the bracket width" in captured.err
    assert "bisected" not in captured.out


SMALL_FIELD_CRITICAL = ["critical", "--vary", "b0", "--vf", "1e-3", "--lambda",
                        "1e-4", "--k1", "1e-9", "--b0", "1e-3"]


def test_critical_default_tol_follows_a_narrow_bracket(tmp_path, capsys):
    # the critical field is 2.77e-7, so the default bracket [0.5, 1.5] x
    # analytic is narrower than 1e-6: the default tolerance is a millionth
    # of its width, while a given tolerance keeps its absolute meaning
    code, text = run_to_file(tmp_path, SMALL_FIELD_CRITICAL + ["--format", "json"])
    assert code == 0
    record = from_jsonable(json.loads(text))
    assert record["analytic"] == pytest.approx(2.7676767676767676e-07, rel=1e-12)
    assert record["difference"] <= 1e-6 * record["analytic"]
    assert main(SMALL_FIELD_CRITICAL + ["--bisect_tol", "1e-6"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: bisect_tol 1e-06 must be below the bracket width ")


def test_critical_degenerate_exits_two(capsys):
    assert main(["critical", "--vary", "b0", "--lambda", "1.37"]) == 2
    assert "unavailable" in capsys.readouterr().err


def test_critical_agreement_is_relative(tmp_path, monkeypatch):
    # a landing 1e-7 relative off the closed form is a miss, though it is
    # far inside any absolute tolerance of 1e-4
    def off_by_1e7(p, vary, lo, hi, similarity, **kwargs):
        return critical_point(p, vary) * (1 + 1e-7)

    monkeypatch.setattr(cli, "find_exceptional_point", off_by_1e7)
    code, text = run_to_file(
        tmp_path, ["critical", "--vary", "lambda", "--bisect_tol", "1e-12"]
    )
    assert code == 1
    assert "difference: " in text


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_at_reference(tmp_path):
    code, text = run_to_file(tmp_path, ["verify", "--n_tr", "24"])
    assert code == 0
    assert "FAIL" not in text


def test_verify_detects_perturbation(tmp_path):
    code, text = run_to_file(
        tmp_path, ["verify", "--perturb", "1e-3", "--n_tr", "24"]
    )
    assert code == 1
    assert "FAIL" in text


def test_verify_residuals_are_relative_at_small_couplings():
    # The couplings are about 1e-6, so a perturbation of 1e-12 is about 1e-6
    # of H: an absolute floor of 1 on the residuals' scale lets it through.
    cfg = default_config(vf=1e-6, lambda_=2e-7, k1=1e-6, b0=1e-4, hbar=1e-3, n_tr=8)
    assert {status for _, status, _ in cli.run_verify(cfg)} == {"PASS"}
    failed = {name for name, status, _ in cli.run_verify(cfg, 1e-12) if status == "FAIL"}
    assert failed == {
        "eigenstates branch I",
        "eigenstates branch II",
        "symmetry commutators",
        "valley map",
    }


def test_verify_numeric_agreement_is_relative_at_small_couplings(monkeypatch):
    # |E+| is about 5e-11 here, so levels 50% off lie far below a floor of 1
    # on the agreement's scale
    cfg = default_config(vf=1e-6, lambda_=2e-7, k1=1e-6, b0=1e-4, hbar=1e-3, n_tr=8)
    original = cli.phase_verdict_numeric

    def off_by_half(*args, **kwargs):
        report = original(*args, **kwargs)
        return dataclasses.replace(
            report, plus_roots=tuple(1.5 * e for e in report.plus_roots)
        )

    monkeypatch.setattr(cli, "phase_verdict_numeric", off_by_half)
    rows = {name: status for name, status, _ in cli.run_verify(cfg)}
    assert rows["numeric agreement branch I"] == "FAIL"
    assert rows["numeric agreement branch II"] == "FAIL"


def test_verify_ladder_pair_is_relative_at_small_couplings(monkeypatch):
    # H's coefficients are about 1e-9 here, so a factorization defect of
    # 1e-6 of them lies far below an absolute 1e-12
    cfg = default_config(vf=1e-6, lambda_=2e-7, k1=1e-6, b0=1e-4, hbar=1e-3, n_tr=8)
    co = derive_coeffs(cfg.params())
    size = max(abs(x) for x in (co.a_coef * co.hbar, co.b_coef * co.hbar, co.c1, co.c2))
    monkeypatch.setattr(cli, "jc_verify", lambda *a, **kw: JCReport(0.0, 1e-6 * size))
    rows = {name: status for name, status, _ in cli.run_verify(cfg)}
    assert rows["ladder pair"] == "FAIL"


@pytest.mark.parametrize("vary", list(Vary))
def test_verify_skips_the_rows_that_read_k_at_a_critical_point(vary, tmp_path):
    # at the printed critical value k_coef is roundoff: its sign and sqrt
    # mean nothing, so the rows that read them skip and the rest pass
    flag = "--lambda" if vary is Vary.LAMBDA else "--b0"
    code, text = run_to_file(tmp_path, ["verify", flag, repr(critical_point(BASE, vary))])
    assert code == 0
    rows = dict(line.split("  ", 1) for line in text.splitlines()[:-1])
    reading_k = {
        "eigenstates branch I", "eigenstates branch II", "symmetry eigenfactors",
        "ladder pair", "numeric agreement branch I", "numeric agreement branch II",
    }
    for name, rest in rows.items():
        expected = ["SKIP", "critical", "point"] if name in reading_k else ["PASS"]
        assert rest.split()[:len(expected)] == expected, name
    assert reading_k <= rows.keys()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_perturbation(value, capsys):
    assert main(["verify", "--n_tr", "8", f"--perturb={value}"]) == 2
    captured = capsys.readouterr()
    assert "perturb must be finite" in captured.err
    assert "checks:" not in captured.out


def test_verify_decomposes_nothing_larger_than_n_tr(tmp_path, monkeypatch):
    largest = []

    def watched(fn):
        def wrapper(m, *args, **kwargs):
            largest.append(max(np.shape(m)))
            return fn(m, *args, **kwargs)
        return wrapper

    for name in ("qr", "solve", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, watched(getattr(np.linalg, name)))
    code, text = run_to_file(tmp_path, ["verify", "--n_tr", "12"])
    assert code == 0
    assert largest and max(largest) == 12


def _verify_table(text):
    """verify's rows as {name: (status, detail)}, the summary line dropped."""
    table = {}
    for line in text.splitlines()[:-1]:
        name, rest = line.split("  ", 1)
        status, _, detail = rest.strip().partition("  ")
        table[name] = (status, detail)
    return table


def test_verify_degenerate_point_skips(tmp_path):
    # at lambda = v_f the block coefficient a vanishes, so every row that
    # reads branch I's envelope skips; the real branch II still carries the
    # symmetry eigenfactors
    code, text = run_to_file(
        tmp_path, ["verify", "--lambda", "1.37", "--n_tr", "16"]
    )
    assert code == 0
    table = _verify_table(text)
    skipped = {name for name, (status, _) in table.items() if status == "SKIP"}
    assert skipped == {
        "eigenstates branch I", "zero modes primary", "numeric agreement branch I",
    }
    for name in skipped:
        assert table[name][1] == "degenerate block coefficient"
    assert table["symmetry eigenfactors"][0] == "PASS"


ALL_PASS = "11 checks: 11 passed, 0 failed, 0 skipped"


# At weak fields a broken-branch state's lower component is far below its
# upper one, and the symmetry eigenfactors read a P1T and P2T factor there
# when both components were held to one scale.
@pytest.mark.parametrize(
    "args",
    [LARGE_FLAGS, NEAR_EP_FLAGS, ["--lambda", "1.3319331364"],
     ["--b0", "1e-24", "--k1", "1e-24"], ["--b0", "1e-20", "--k1=-1e-20"]],
    ids=["large", "near_ep", "lambda_1.3319331364", "weak_field",
         "weak_field_negative_k1"],
)
def test_verify_passes_every_row_at_the_edges(tmp_path, args):
    code, text = run_to_file(tmp_path, ["verify"] + args)
    assert code == 0, text
    assert text.splitlines()[-1] == ALL_PASS


@pytest.mark.parametrize("vary", list(Vary))
@pytest.mark.parametrize("offset", [1e-14, 1e-10, 1e-7, 1e-4])
def test_verify_passes_next_to_the_critical_point(tmp_path, vary, offset):
    # off the critical band, 8 eps k_scale, every row that reads k_coef
    # holds at its own roundoff, so none fails and none skips
    flag = "--lambda" if vary is Vary.LAMBDA else "--b0"
    value = critical_point(BASE, vary) * (1 + offset)
    code, text = run_to_file(tmp_path, ["verify", flag, repr(value)])
    assert code == 0, text
    assert text.splitlines()[-1] == ALL_PASS


def test_verify_accepts_an_oracle_critical_within_its_floor(tmp_path):
    # k_coef clears the closed form's band but not the oracle's floor at
    # n_tr 40, so the oracle honestly reads critical on both branches
    code, text = run_to_file(tmp_path, ["verify", "--lambda", "1.3319331364599367"])
    assert code == 0, text
    assert text.splitlines()[-1] == ALL_PASS
    table = _verify_table(text)
    for branch, closed in (("I", "broken"), ("II", "unbroken")):
        _, detail = table[f"numeric agreement branch {branch}"]
        assert detail.startswith(f"verdict critical vs {closed}"), detail


def test_verify_numeric_agreement_holds_levels_to_the_floor(monkeypatch):
    # each E^2 moved by two of the oracle's floors: far inside a relative
    # 1e-8 at the defaults, but outside the floor
    original = cli.phase_verdict_numeric

    def off_by_two_floors(*args, **kwargs):
        report = original(*args, **kwargs)
        moved = tuple(cmath.sqrt(e * e + 2 * report.floor) for e in report.plus_roots)
        return dataclasses.replace(report, plus_roots=moved)

    monkeypatch.setattr(cli, "phase_verdict_numeric", off_by_two_floors)
    rows = {name: status for name, status, _ in cli.run_verify(default_config())}
    assert rows["numeric agreement branch I"] == "FAIL"
    assert rows["numeric agreement branch II"] == "FAIL"


def test_verify_detects_a_perturbation_at_large_couplings(tmp_path):
    # the gates widened with what each row cancels; the symmetry rows still
    # catch a potential of 1e-12 of H's coefficients
    co = derive_coeffs(LARGE)
    h_size = max(abs(x) for x in (co.a_coef * co.hbar, co.b_coef * co.hbar, co.c1, co.c2))
    code, text = run_to_file(
        tmp_path, ["verify", "--perturb", repr(1e-12 * h_size)] + LARGE_FLAGS
    )
    assert code == 1
    table = _verify_table(text)
    assert table["symmetry commutators"][0] == "FAIL"
    assert table["valley map"][0] == "FAIL"


# ---------------------------------------------------------------------------
# spectrum / lll / jc
# ---------------------------------------------------------------------------


def test_spectrum_dump_matches_builder(tmp_path):
    dump = tmp_path / "matrix.txt"
    code, text = run_to_file(
        tmp_path,
        ["spectrum", "--n_tr", "8", "--dump_matrix", str(dump)],
    )
    assert code == 0
    assert "verdict: unbroken" in text
    stored = parse_matrix(dump.read_text(encoding="utf-8"))
    rebuilt = build_truncated(derive_coeffs(BASE), 8).matrix
    assert np.array_equal(stored, rebuilt)


def test_spectrum_json(tmp_path):
    code, text = run_to_file(
        tmp_path, ["spectrum", "--n_tr", "8", "--format", "json"]
    )
    assert code == 0
    payload = from_jsonable(json.loads(text))
    assert payload["verdict"] == "unbroken"
    assert payload["n_tr"] == 8
    assert payload["levels"][0]["re_E_plus"] == pytest.approx(1.4916047, abs=1e-6)


@pytest.mark.parametrize("n_tr", [40, 200])
@pytest.mark.parametrize("branch", ["I", "II"])
def test_spectrum_json_holds_every_level(tmp_path, branch, n_tr):
    code, text = run_to_file(
        tmp_path,
        ["spectrum", "--n_tr", str(n_tr), "--branch", branch, "--format", "json"],
    )
    assert code == 0
    payload = from_jsonable(json.loads(text))
    assert payload["verdict"] == ("unbroken" if branch == "I" else "broken")
    assert "unpaired" not in payload and "discarded_edge_levels" not in payload
    levels = payload["levels"]
    assert [lv["n"] for lv in levels] == list(range(n_tr - 1))
    for lv in levels:
        exact, _ = level_energy(BASE, lv["n"], Branch(branch))
        num = complex(lv["re_E_plus"], lv["im_E_plus"])
        assert abs(num - exact) <= 1e-8 * abs(exact)


@pytest.mark.parametrize("branch", ["I", "II"])
def test_spectrum_at_the_critical_coupling_counts_no_levels(tmp_path, branch):
    lam_c = repr(critical_point(BASE, Vary.LAMBDA))
    argv = ["spectrum", "--lambda", lam_c, "--branch", branch]
    code, text = run_to_file(tmp_path, argv)
    assert code == 0
    assert "verdict: critical" in text.splitlines()
    assert not any("kept:" in line for line in text.splitlines())
    code, text = run_to_file(tmp_path, argv + ["--format", "json"], "out.json")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == "critical"
    assert set(payload) == {
        "n_tr", "seed", "branch", "valley", "verdict", "max_residual", "levels"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--vf", "1e200", "--k1", "1e200", "--b0", "1e200"],
        ["spectrum", "--vf", "1e300", "--lambda", "1e300", "--k1", "1e300",
         "--b0", "1e300"],
        # a hbar underflows to 0 while a does not
        ["analytic", "--vf", "1e-200", "--lambda", "0", "--hbar", "1e-200"],
    ],
    ids=["overflow", "nan_k", "underflow_d"],
)
def test_overflowing_parameters_exit_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "floating point" in captured.err
    assert captured.out == ""


def test_spectrum_with_failing_certificates_exits_two():
    # the couplings overflow inside the eigenvector defects, so every
    # certificate is nan and no verdict may be printed; a fresh interpreter
    # shows whether numpy's overflow warnings reach stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from ptdirac.cli import main; sys.exit(main(sys.argv[1:]))",
         "spectrum", "--vf", "1e60", "--k1", "1e60", "--b0", "1e60", "--n_tr", "8"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: eigenpair residual nan exceeds tol 1.000e-09\n"
    assert proc.stdout == ""


# a hbar is about 1.2e429 while every derived coefficient is finite
_OVERFLOWING_A_HBAR = ["--vf=1.1540443355418609e+226", "--lambda=-2.993187232819159e+205",
                       "--k1=0.0", "--b0=0.0", "--hbar=5.237677273886766e+202", "--n_tr", "2"]


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_an_overflowing_hamiltonian_coefficient_is_refused(capsys, command):
    # H's terms would be inf: spectrum reported a chirality fault and
    # verify a broken symmetry (residual nan), where the cause is the
    # overflow
    assert main([command] + _OVERFLOWING_A_HBAR) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: Hamiltonian coefficient a hbar overflows: "
        "a = 2.3080886710837217e+226, hbar = 5.237677273886766e+202\n"
    )
    assert captured.out == ""


def test_lll_command(tmp_path):
    code, text = run_to_file(tmp_path, ["lll", "--l_max", "5"])
    assert code == 0
    assert text.count("annihilation residual") == 6


def test_lll_degenerate_valley_exits_two(capsys):
    # lambda = v_f makes the primary valley's block coefficient vanish
    assert main(["lll", "--lambda", "1.37"]) == 2
    captured = capsys.readouterr()
    assert "zero-mode envelope undefined" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["jc", "--degree", "-1"], "degree must be an integer >= 2"),
    (["lll", "--l_max", "-1"], "l_max must be nonnegative"),
    (["critical", "--vary", "lambda", "--bisect_tol", "nan"],
     "bisect_tol must be finite and nonnegative"),
    (["critical", "--vary", "lambda", "--bisect_tol", "2", "--n_tr", "8"],
     "bisect_tol 2.0 must be below the bracket width "),
    (["critical", "--vary", "lambda", "--lo", "1.5", "--hi", "1.0"],
     "require lo < hi"),
], ids=["jc", "lll", "critical", "critical_tol_above_bracket",
        "critical_reversed_bracket"])
def test_bad_argument_values_are_config_errors(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {message}"), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, reason", [
    (SUBNORMAL_K_FLAGS,
     "ladder normalization 1/k_coef overflows at k_coef = -9.45014e-319"),
    (HUGE_ENVELOPE_FLAGS,
     "ladder residual overflows at envelope exponent -1.8248175182481752e+199"),
], ids=["subnormal_k", "huge_envelope"])
def test_an_overflowing_ladder_normalization_skips_and_refuses(capsys, flags, reason):
    # the float ladder commutator overflows to nan here; verify skips its row
    # and jc refuses, rather than report the nan as a residual
    assert main(["verify"] + flags) == 0
    ladder = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("ladder pair")]
    assert ladder == ["ladder pair                  SKIP  " + reason]
    assert main(["jc"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err == reason + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--vary", "b0", "--vf", "1e160", "--b0", "1e-200", "--k1", "1e-200"],
    ["--vary", "b0", "--vf", "1e100", "--e", "1e250", "--b0", "1e-300", "--k1", "0.02"],
    ["--vary", "lambda", "--k1", "1e300", "--c", "1e10", "--b0", "1e300", "--e", "1e10"],
], ids=["b0_square", "b0_denominator", "lambda_nan"])
def test_an_overflowing_critical_point_is_refused(capsys, flags):
    # the closed form's terms overflow: critical refuses rather than bracket
    # a wrong analytic value, and analytic lists the field as undefined
    assert main(["critical"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("analytic critical point unavailable: ")
    assert captured.err.endswith("is inf: the parameters overflow floating point\n")
    assert captured.out == ""
    if flags[1] == "b0":
        code = main(["analytic", "--format", "json"] + flags[2:])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["critical"]["b0"] == "undefined"


@pytest.mark.parametrize("flags", [
    ["--vf", "1e-100", "--k1", "1e-200", "--lambda", "0"],
    ["--vf", "1", "--b0", "1", "--e", "1e300", "--k1", "1e-300", "--lambda", "0"],
], ids=["numerator", "quotient"])
def test_an_underflowing_critical_field_is_refused(capsys, flags):
    # 2 k1 v_f**2 c / ((v_f**2 - lam**2) e) rounds to 0 from a nonzero k1:
    # critical refuses rather than bracket 0, and analytic lists the field
    # as undefined
    assert main(["critical", "--vary", "b0"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("analytic critical point unavailable: critical b0 is 0.0")
    assert captured.err.endswith(": the parameters underflow floating point\n")
    assert captured.out == ""
    assert main(["analytic", "--format", "json"] + flags) == 0
    assert json.loads(capsys.readouterr().out)["critical"]["b0"] == "undefined"


def _log_uniform(signed):
    """A float log-uniform over 1e-320 ... 1e308, with a random sign if signed."""
    size = st.floats(-320.0, 308.0).map(lambda x: 10.0 ** x)
    if not signed:
        return size
    return st.tuples(size, st.sampled_from((1.0, -1.0))).map(lambda t: t[0] * t[1])


@st.composite
def _any_run(draw):
    """A command line of any subcommand at finite parameters anywhere in
    the float range: lambda, k1 and b0 take either sign, and v_f, e, c and
    hbar stay positive, for a negative one is refused before any arithmetic."""
    command = draw(st.sampled_from(
        ["analytic", "verify", "spectrum", "sweep", "critical", "lll", "jc"]))
    argv = [command]
    for flag, signed in (("--vf", False), ("--lambda", True), ("--k1", True),
                         ("--b0", True), ("--e", False), ("--c", False),
                         ("--hbar", False)):
        argv.append(f"{flag}={draw(_log_uniform(signed))!r}")
    argv += ["--branch", draw(st.sampled_from(["I", "II"])),
             "--valley", draw(st.sampled_from(["primary", "time_reversed"]))]
    if command in ("verify", "spectrum", "critical", "sweep"):
        argv += ["--n_tr", str(draw(st.integers(2, 4)))]
    if command in ("critical", "sweep"):
        argv += ["--vary", draw(st.sampled_from(["lambda", "b0"]))]
    if command == "sweep":
        lo, hi = sorted(draw(_log_uniform(False)) for _ in range(2))
        argv += [f"--from={lo!r}", f"--to={hi!r}", "--steps", "3", "--n_max", "2"]
        argv += draw(st.sampled_from([[], ["--log"], ["--numeric"]]))
    if command == "lll":
        argv += ["--l_max", str(draw(st.integers(0, 4)))]
    if command == "jc":
        argv += ["--degree", str(draw(st.integers(2, 8)))]
    return argv


_UNDERFLOW = ["--vf", "1e-200", "--lambda", "0", "--hbar", "1e-200"]
_HUGE_SQUARE = ["--vf", "1e160", "--b0", "1e-200", "--k1", "1e-200"]


# every numpy warning is an error here: none may reach stderr
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_any_run())
@example(argv=["spectrum", "--vf", "1.0", "--lambda", "1.0",
               "--k1", "1.5273487527386393e-261", "--b0", "2.0385572016540423e-09",
               "--e", "1.4459710923343318e+162", "--c", "509979182.7085012",
               "--hbar", "1.4459710923343318e+162", "--branch", "II", "--n_tr", "4"])
@example(argv=["verify", "--vf=1e+135", "--lambda=1.0", "--k1=1e-115", "--b0=1e-105",
               "--n_tr", "2"])
@example(argv=["analytic"] + _UNDERFLOW)
@example(argv=["verify", "--n_tr", "4"] + _UNDERFLOW)
@example(argv=["analytic"] + _HUGE_SQUARE)
@example(argv=["critical", "--vary", "b0", "--n_tr", "4"] + _HUGE_SQUARE)
@example(argv=["analytic", "--vf", "1e100", "--e", "1e250", "--b0", "1e-300",
               "--k1", "0.02"])
@example(argv=["critical", "--vary", "lambda", "--n_tr", "4", "--k1", "1e300",
               "--c", "1e10", "--b0", "1e300", "--e", "1e10"])
@example(argv=["sweep", "--vary", "b0", "--from", "1", "--to",
               "1.7976931348623157e308", "--steps", "3", "--log"])
@example(argv=["verify", "--n_tr", "4"] + HUGE_ENVELOPE_FLAGS)
@example(argv=["jc"] + HUGE_ENVELOPE_FLAGS)
def test_main_never_raises_on_finite_parameters(argv):
    # exit 0, 1 or 2 with any message, but never a traceback
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


def test_jc_command(tmp_path):
    code, text = run_to_file(tmp_path, ["jc", "--degree", "12"])
    assert code == 0
    assert "commutator residual" in text
    assert "factorization residual" in text


def test_parser_is_built_once_and_survives_a_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("PTDIRAC_CONFIG", raising=False)
    assert cli._build_parser() is cli._build_parser()
    assert main(["critical"]) == 2
    assert "--vary" in capsys.readouterr().err
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    for argv in (["analytic", "--lambda", "0.25"], ["jc", "--degree", "8"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ptdirac.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            env=env, capture_output=True, text=True,
        )
        assert fresh.returncode == 0
        assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)
