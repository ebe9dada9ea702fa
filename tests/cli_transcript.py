"""Seeded transcript of CLI runs, for comparing two source trees byte for byte.

    PYTHONPATH=src python tests/cli_transcript.py --seed 28 --points 200 > a.txt

Run it in two checkouts and diff the files.  Each point draws v_f, lambda
and hbar log-uniformly in 1e-3...1e3 and k1, b0 in 1e-6...1e6, lambda and k1
with a random sign, plus a branch, a valley, an oracle seed and n_tr, and
runs verify, jc, lll, spectrum and critical (varying lambda or b0) there.
Each run prints its command line, exit code, standard output and standard
error.  It is a tool, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import sys

from ptdirac.cli import main


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def point_flags(rng: random.Random) -> list:
    values = {
        "vf": _log_uniform(rng, 1e-3, 1e3),
        "lambda": rng.choice((-1, 1)) * _log_uniform(rng, 1e-3, 1e3),
        "hbar": _log_uniform(rng, 1e-3, 1e3),
        "k1": rng.choice((-1, 1)) * _log_uniform(rng, 1e-6, 1e6),
        "b0": _log_uniform(rng, 1e-6, 1e6),
    }
    flags = [f"--{key}={value!r}" for key, value in values.items()]
    flags += ["--branch", rng.choice(("I", "II")),
              "--valley", rng.choice(("primary", "time_reversed")),
              "--seed", str(rng.randrange(5)),
              "--n_tr", str(rng.choice((2, 4, 12, 40)))]
    return flags


def commands(rng: random.Random) -> list:
    flags = point_flags(rng)
    return [
        ["verify"] + flags,
        ["jc", "--degree", str(rng.randrange(2, 31))] + flags,
        ["lll", "--l_max", str(rng.randrange(21))] + flags,
        ["spectrum"] + flags,
        ["critical", "--vary", rng.choice(("lambda", "b0"))] + flags,
    ]


def run(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"$ ptdirac {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--points", type=int, required=True)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    for _ in range(args.points):
        for command in commands(rng):
            sys.stdout.write(run(command))
    return 0


if __name__ == "__main__":
    sys.exit(cli())
