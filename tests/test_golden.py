"""Byte-identity of CLI output against recorded golden files.

The files under ``tests/golden/`` were written by the commands in ``CASES``.
The analytic report was recorded before it was rendered from the CLI
settings table.  The numeric ones (``spectrum``, ``sweep --numeric``,
``critical`` and ``verify``) were re-recorded when the oracle moved to the
squared levels E^2 of the n_tr x n_tr product AB under a spin-graded
similarity: S is drawn differently there, and ``spectrum`` lists every level
and no longer reports discarded edge levels or unpaired values.  The
``spectrum`` file was re-recorded once more when its two level counts,
``n_real`` and ``n_complex_pairs``, were dropped.  The ``verify`` file was
re-recorded when its ``ungraded scramble`` row, a dense 2 n_tr x 2 n_tr
eigensolve at the default parameters, was dropped: the checks of every
verdict already cover it, and the file lost exactly that row and one check
from its summary line.  The numeric files were re-recorded once more when the
scramble dropped the second similarity factor S2, which cancels exactly in
the one matrix the eigensolver sees: the levels and landings moved by
roundoff (at most 2.2e-13 relative), and no verdict or exit code changed.
They were re-recorded again when the oracle moved to real arithmetic (a real
S and a real X, since the truncation is i times a real matrix): the levels
moved by at most 1.3e-13 relative, every numeric E+ now lies exactly on the
real or the imaginary axis, and no verdict or exit code changed.
The ``spectrum`` file was re-recorded when its record gained the ``seed``
of the similarity, so the JSON alone says which S produced its levels; it
gained exactly that key and no other byte moved.
A rework that is not meant to change an output must not move a byte.

The ``spectrum --dump_matrix`` files in ``DUMPS`` hold the truncation itself,
one per branch and valley.  They pin every byte of it, the sign of each zero
included, which a numeric round trip through ``parse_matrix`` cannot see.
The truncation is built in Python float arithmetic and no LAPACK call
touches it, so these files are compared on every platform.

Each run happens in a subprocess with BLAS pinned to one thread, because
multithreaded LAPACK reorders floating-point sums and changes the last bits
of the scrambled spectra.  The bytes also belong to one numpy/BLAS build, so
the comparison is skipped on a platform other than the recorded one
(``tests/golden/PLATFORM.txt``).

Re-record (only when an output change is intended)::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptdirac import cli
from ptdirac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(cli.__file__).resolve().parents[1]  # a subprocess imports the same copy

# golden file name -> (argv, exit code)
CASES = {
    "critical_lambda.txt": (["critical", "--vary", "lambda"], 0),
    "critical_b0_seed3.txt": (["critical", "--vary", "b0", "--seed", "3"], 0),
    "spectrum_n200_seed11.json": (
        ["spectrum", "--n_tr", "200", "--format", "json", "--seed", "11"], 0
    ),
    "sweep_lambda_numeric.csv": (
        ["sweep", "--vary", "lambda", "--from", "0.1", "--to", "1.3",
         "--steps", "30", "--numeric"], 0
    ),
    "verify_seed4.txt": (["verify", "--seed", "4"], 0),
    "analytic.txt": (["analytic"], 0),
    "analytic.json": (["analytic", "--format", "json"], 0),
}

# golden dump file name -> spectrum argv whose --dump_matrix writes it
DUMPS = {
    f"dump_n6_{branch}_{valley}.txt": [
        "spectrum", "--n_tr", "6", "--branch", branch, "--valley", valley
    ]
    for branch in ("I", "II")
    for valley in ("primary", "time_reversed")
}

_RUNNER = """
import json, sys
from ptdirac.cli import main
cases, out_dir = json.loads(sys.argv[1]), sys.argv[2]
print(json.dumps({name: main(argv + ["--output", out_dir + "/" + name])
                  for name, argv in cases.items()}))
"""


def platform_fingerprint() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"numpy {np.__version__}; blas {blas.get('name')} {blas.get('version')}; "
        f"machine {platform.machine()}\n"
    )


def run_cases(out_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    argvs = {name: argv for name, (argv, _) in CASES.items()}
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER, json.dumps(argvs), str(out_dir)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def write_dumps(out_dir: Path) -> None:
    for name, argv in DUMPS.items():
        code = main(
            argv + ["--dump_matrix", str(out_dir / name),
                    "--output", os.devnull]
        )
        assert code == 0, name


def test_dump_matrix_matches_golden_bytes(tmp_path):
    write_dumps(tmp_path)
    for name in DUMPS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_cli_output_matches_golden_bytes(tmp_path):
    recorded = (GOLDEN / "PLATFORM.txt").read_text(encoding="utf-8")
    if recorded != platform_fingerprint():
        pytest.skip(f"golden bytes recorded on another platform: {recorded.strip()}")
    codes = run_cases(tmp_path)
    for name, (_, code) in CASES.items():
        assert codes[name] == code, name
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    run_cases(GOLDEN)
    write_dumps(GOLDEN)
    (GOLDEN / "PLATFORM.txt").write_text(platform_fingerprint(), encoding="utf-8")
