"""Workload definitions: the CLI command each workload runs, built from a seed.

The seed picks the non-anchor kappa values from ``KAPPA_MENU`` and, for the
squash workload, the CLI seed from the pre-screened menu stored in
``reference.json`` (see README.md, "Squash 3-sigma test").  compare and
qubit-scan run at the CLI's default ``--seed``, as users do: that seed sets
the Nelder-Mead start points, and changing it moved the objective calls of a
kappa = 0.5 compare by 11% (530k-588k over five seeds), which would widen
the run-to-run spread.  The same seed always gives the same command.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# kappa values whose chi references are recorded in reference.json.  0.4 and
# 0.9 are left out: at the default CLI seed their compare runs made 582k and
# 469k objective calls against 519k-541k for the rest, which would widen the
# seed-to-seed spread.
KAPPA_MENU = (0.2, 0.3, 0.5, 0.6, 0.7, 0.8)
ANCHOR_KAPPA = 1.0

VARIANTS = ("unbalanced", "pbs", "fix-loss", "fix-uneven-bs")
DISTANCES = tuple(5.0 * i for i in range(13))  # 0..60 km, 5 km steps
QBERS = tuple(round(0.01 * i, 12) for i in range(13))  # 0..0.12, 0.01 steps
SQUASH_TRIALS = 100_000

NAMES = ("compare", "qubit-scan", "squash")


@dataclass(frozen=True)
class Workload:
    """One CLI invocation plus the rows its output must contain, in order."""

    name: str
    argv: tuple  # CLI arguments after the program name
    rows: tuple  # expected row keys; see checker.ref_key


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def build(name: str, seed: int, threads: int, squash_seeds) -> Workload:
    """The workload ``name`` for benchmark seed ``seed`` at ``--threads threads``."""
    rng = random.Random(f"{name}:{seed}")
    threads_arg = ("--threads", str(threads))
    if name == "compare":
        kappa = rng.choice(KAPPA_MENU)
        argv = ("compare", "--kappa", repr(kappa), "--lmin", "0", "--lmax", "60",
                "--lstep", "5", *threads_arg)
        rows = tuple((v, kappa, d) for v in VARIANTS for d in DISTANCES)
    elif name == "qubit-scan":
        kappas = sorted(rng.sample(KAPPA_MENU, 3)) + [ANCHOR_KAPPA]
        argv = ("qubit-scan", "--kappas", ",".join(repr(k) for k in kappas),
                "--qber-start", "0", "--qber-stop", "0.12", "--qber-step", "0.01",
                *threads_arg)
        rows = tuple(("unbalanced", k, q) for k in kappas for q in QBERS)
    elif name == "squash":
        argv = ("squash-validate", "--trials", str(SQUASH_TRIALS),
                "--seed", str(rng.choice(squash_seeds)), *threads_arg)
        rows = ()  # the table is checked by checker.check_squash
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name=name, argv=argv, rows=rows)
