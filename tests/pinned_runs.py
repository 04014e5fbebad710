"""Pinned CLI runs: each line of tests/golden/runs.txt against its recorded files.

Each run goes through ``ubb84.cli.main`` in this process, from the repository
root.  Its exit code must match the list, and its stdout and stderr their files
exactly, except that the numbers of a ``.csv`` stdout match to 1e-9 relative,
since the CSV prints 10 significant digits.  Standard library only: from the
repository root, ``PYTHONPATH=src python tests/pinned_runs.py`` prints every
mismatch and exits 1 if there is any.  A change that moves a pinned output
re-records its files on purpose (the exit codes stay as the list gives them):

    grep '^[^#]' tests/golden/runs.txt | while read -r name code argv; do
      PYTHONPATH=src python -m ubb84 $argv > "tests/golden/$name" 2> "tests/golden/${name%.*}.err"
    done
"""

import contextlib
import io
import itertools
import os
import sys
from pathlib import Path

from ubb84.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def entries():
    """(stdout file, exit code, argv) for each run in the list."""
    lines = (GOLDEN / "runs.txt").read_text(encoding="utf-8").splitlines()
    return [(name, int(code), argv) for name, code, *argv in
            (line.split() for line in lines if line and not line.startswith("#"))]


def _matches(got: str, want: str, csv_row: bool) -> bool:
    """Exact, except that a CSV row's numbers may differ by 1e-9 relative."""
    if got == want or not csv_row:
        return got == want
    for g, w in itertools.zip_longest(got.split(","), want.split(",")):
        try:
            if g != w and not abs(float(g) - float(w)) <= 1e-9 * abs(float(w)):
                return False
        except (TypeError, ValueError):  # a text field that differs, or a missing one
            return False
    return True


def _differences(label: str, got: str, want: str, csv: bool):
    """Each line of got that does not match its line of want."""
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True), fillvalue="")
    return [f"{label} line {i}: {g!r} != {w!r}"
            for i, (g, w) in enumerate(pairs, 1) if not _matches(g, w, csv and i > 1)]


def mismatches(name: str, code: int, argv):
    """Every difference between running argv and its recorded exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            got = exc.code
    want = GOLDEN / name
    found = [] if got == code else [f"exit code {got} != {code}"]
    found += _differences("stdout", out.getvalue(), want.read_text("utf-8"), name.endswith(".csv"))
    found += _differences("stderr", err.getvalue(), want.with_suffix(".err").read_text("utf-8"),
                          False)
    return [f"{name}: {m}" for m in found]


if __name__ == "__main__":
    os.chdir(ROOT)
    runs = entries()
    found = [m for run in runs for m in mismatches(*run)]
    print(*found, f"{len(runs)} pinned runs, {len(found)} mismatches", sep="\n")
    sys.exit(1 if found else 0)
