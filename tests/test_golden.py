"""Golden output: CLI runs checked against their committed stdout.

CSV: header, row order and text fields must match exactly; numbers to 1e-9
relative, since the CSV prints 10 significant digits.  The squash-validate
table prints fixed decimals, so its text must match byte for byte.  A
change that moves a reported value updates the file under ``tests/golden/``
on purpose.
"""

from pathlib import Path

import pytest

from ubb84.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

_EXTREME = ["--kappas", "1e-12,1e-4,0.01", "--qber-start", "0", "--qber-stop", "0.45",
            "--qber-step", "0.05"]

CASES = [
    ("compare_kappa0.5.csv", ["compare", "--kappa", "0.5", "--threads", "2"]),
    ("qubit-scan_unbalanced.csv", ["qubit-scan", "--kappas", "0.3,0.5,0.8,1.0"]),
    ("qubit-scan_pbs.csv", ["qubit-scan", "--kappas", "0.3,0.5,0.8,1.0", "--variant", "pbs"]),
    # the mu search through the rate's dip just above mu = 1e-4 (0 km) and past the
    # cutoff, where every rate is negative and the bracket's floor is the answer
    ("distance-scan_pbs_kappa0.05.csv",
     ["distance-scan", "--variant", "pbs", "--kappa", "0.05", "--lmax", "300", "--lstep", "10"]),
    # CI's solver extreme: multipliers near overflow, and free slices whose corner
    # lies within the slack, answered by the max-entropy solve at corner 0
    ("distance-scan_pbs_kappa1e-15.csv",
     ["distance-scan", "--variant", "pbs", "--kappa", "1e-15", "--lmax", "10"]),
    # the pinned search at its extremes, kappa down to 1e-12 and Q from 0 to 0.45
    ("qubit-scan_extreme_unbalanced.csv", ["qubit-scan", "--variant", "unbalanced", *_EXTREME]),
    # recorded from the PBS receiver row that ROADMAP item 2 replaces; item 2 re-records it
    ("qubit-scan_extreme_pbs.csv", ["qubit-scan", "--variant", "pbs", *_EXTREME]),
]

SQUASH_CASES = [
    ("squash-validate_seed11.txt", ["squash-validate", "--trials", "100000", "--seed", "11"]),
    # not a multiple of the sampler's 10,000-draw batch
    ("squash-validate_trials12345_seed3.txt",
     ["squash-validate", "--trials", "12345", "--seed", "3"]),
]


def _number(field: str):
    try:
        return float(field)
    except ValueError:
        return None


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row, (got_line, want_line) in enumerate(zip(got[1:], want[1:]), start=1):
        got_fields, want_fields = got_line.split(","), want_line.split(",")
        assert len(got_fields) == len(want_fields), row
        for column, g, w in zip(want[0].split(","), got_fields, want_fields):
            expected = _number(w)
            if expected is None:
                assert g == w, (row, column)
            else:
                assert float(g) == pytest.approx(expected, rel=1e-9, abs=0.0), (row, column)


@pytest.mark.parametrize("name, argv", SQUASH_CASES, ids=[name for name, _ in SQUASH_CASES])
def test_squash_validate_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")
