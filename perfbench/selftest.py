"""Tests of the benchmark itself.

Run from the root of a checkout (they are not part of the tier-1 suite):

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ubb84.engine import CSV_HEADER  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
CHI = REFERENCE["chi"]["compare"]


def _compare_csv(kappa=0.5):
    """A compare CSV that passes every check: recorded chi, equal rates."""
    rows = [(v, kappa, d) for v in workloads.VARIANTS for d in workloads.DISTANCES]
    lines = [",".join(CSV_HEADER)]
    for variant, k, d in rows:
        chi = CHI[checker.ref_key(variant, k, d)]
        rate = 0.01 - 1e-4 * d
        lines.append(f"{variant},{k:.10g},{d:.10g},0.5,0.03,0.03,0.9,{chi!r},{rate!r},{rate!r}")
    return rows, lines


def _check(rows, lines):
    return checker.check_csv("\n".join(lines) + "\n", 0, rows, CSV_HEADER, CHI, realistic=True)


def test_valid_compare_csv_passes():
    rows, lines = _compare_csv()
    assert _check(rows, lines) == (len(rows), {})


def test_rejects_chi_lowered_by_1e_3():
    rows, lines = _compare_csv()
    fields = lines[7].split(",")
    fields[7] = repr(float(fields[7]) - 1e-3)
    lines[7] = ",".join(fields)
    _, failures = _check(rows, lines)
    assert list(failures) == [6]


def test_accepts_higher_chi():
    rows, lines = _compare_csv()
    fields = lines[7].split(",")
    fields[7] = repr(float(fields[7]) + 0.1)
    lines[7] = ",".join(fields)
    assert _check(rows, lines)[1] == {}


def test_rejects_nan_field():
    rows, lines = _compare_csv()
    fields = lines[3].split(",")
    fields[4] = "nan"
    lines[3] = ",".join(fields)
    _, failures = _check(rows, lines)
    assert list(failures) == [2]


def test_rejects_reordered_header():
    rows, lines = _compare_csv()
    header = list(CSV_HEADER)
    header[8], header[9] = header[9], header[8]
    lines[0] = ",".join(header)
    attempted, failures = _check(rows, lines)
    assert len(failures) == attempted == len(rows)


def test_rejects_missing_row():
    rows, lines = _compare_csv()
    attempted, failures = _check(rows, lines[:-1])
    assert attempted == len(rows)
    assert list(failures) == [len(rows) - 1]


def test_rejects_rate_rising_with_distance():
    rows, lines = _compare_csv()
    fields = lines[5].split(",")
    fields[8] = fields[9] = "0.5"
    lines[5] = ",".join(fields)
    _, failures = _check(rows, lines)
    assert 4 in failures


def test_rejects_missed_qubit_anchor():
    q = 0.05
    rows = [("unbalanced", 1.0, q)]
    chi = checker.binary_entropy(q) + 1e-5
    text = (",".join(CSV_HEADER) + f"\nunbalanced,1,,,{q},{q},0,{chi!r},0.1,0.1\n")
    _, failures = checker.check_csv(text, 0, rows, CSV_HEADER, REFERENCE["chi"]["qubit-scan"],
                                    realistic=False)
    assert "h(Q)" in failures[0][0]


def _squash_lines(trials=workloads.SQUASH_TRIALS):
    """A squash-validate table, formatted as the CLI prints it, that passes."""
    lines = ["pattern                  outcome   expected  observed    3sigma status"]
    for name, outcome, p in checker.SQUASH_TABLE:
        bound = 3.0 * (p * (1.0 - p) / trials) ** 0.5
        lines.append(f"{name:24s} {outcome:8s} {p:9.6f} {p:9.6f} {bound:9.6f} ok")
    lines.append(f"squash-validate: PASS (trials={trials}, seed=1)")
    return lines


def _check_squash(lines, returncode=0):
    return checker.check_squash("\n".join(lines) + "\n", returncode, workloads.SQUASH_TRIALS)


def _edit_squash_row(lines, row, **fields):
    """Replace the named fields of table row ``row`` (0-based)."""
    parts = lines[row + 1].split()
    head = " ".join(parts[:-5])
    names = ("outcome", "expected", "observed", "bound", "status")
    values = dict(zip(names, parts[-5:]), **fields)
    lines[row + 1] = f"{head:24s} " + " ".join(values[n] for n in names)


def test_squash_fail_row_counts():
    lines = _squash_lines()
    assert _check_squash(lines) == (checker.SQUASH_ROWS, {})
    _edit_squash_row(lines, 2, observed="0.600000", status="FAIL")
    lines[-1] = f"squash-validate: FAIL (trials={workloads.SQUASH_TRIALS}, seed=1)"
    assert list(_check_squash(lines, 1)[1]) == [2]


def test_squash_rejects_ok_row_outside_bound():
    lines = _squash_lines()
    _edit_squash_row(lines, 9, observed="0.140000")  # bound is 0.003137
    _, failures = _check_squash(lines)
    assert list(failures) == [9] and "outside" in failures[9][0]


def test_squash_rejects_wrong_table_value_and_bound():
    lines = _squash_lines()
    _edit_squash_row(lines, 8, expected="0.140000", observed="0.140000", bound="0.003300")
    _edit_squash_row(lines, 12, bound="0.010000")  # a widened bound
    _, failures = _check_squash(lines)
    assert sorted(failures) == [8, 12]
    assert any("table value" in r for r in failures[8])
    assert any("3sigma" in r for r in failures[12])


def test_squash_rejects_bound_for_fewer_trials():
    lines = _squash_lines(trials=1000)
    _, failures = _check_squash(lines)
    assert len(failures) == 9  # every stochastic row's bound is too wide


def test_one_point_qubit_rate_counts():
    import ubb84.attack

    argv = ["qubit-rate", "--kappa", "0.5", "--qber", "0.03"]
    plain, _, _ = run.run_inprocess(argv)
    original = ubb84.attack.chi_bar_of_params
    with tracer.Tracer() as full:
        traced, code, _ = run.run_inprocess(argv)
    assert ubb84.attack.chi_bar_of_params is original
    assert code == 0 and traced == plain
    assert full.calls("attack.solve") == 1
    assert full.calls("engine.qubit_point") == 1
    evals = full.calls("attack.chi_bar")
    assert evals > 1000
    # at this commit every objective call rebuilds the filter matrices
    assert full.calls("protocol.filters") == evals
    metrics = tracer.layer_metrics(full, full)
    assert metrics["attack.evals_per_solve"] == evals
    assert metrics["engine.csv_bytes"] == len(plain)
    assert math.isfinite(metrics["attack.solve.p80_ms"])


def test_workloads_are_seeded():
    seeds = REFERENCE["squash"]["seeds"]
    for name in workloads.NAMES:
        assert workloads.build(name, 3, 2, seeds) == workloads.build(name, 3, 2, seeds)
        assert len({workloads.build(name, s, 2, seeds).argv for s in range(20)}) > 3
    qubit = workloads.build("qubit-scan", 3, 2, seeds)
    assert len(qubit.rows) == 52 and qubit.rows[-1] == ("unbalanced", 1.0, 0.12)
    assert len(workloads.build("compare", 3, 2, seeds).rows) == 52
    for kappa in workloads.KAPPA_MENU:
        for v in workloads.VARIANTS:
            for d in workloads.DISTANCES:
                assert checker.ref_key(v, kappa, d) in REFERENCE["chi"]["compare"]
    for kappa in (*workloads.KAPPA_MENU, workloads.ANCHOR_KAPPA):
        for q in workloads.QBERS:
            assert checker.ref_key("unbalanced", kappa, q) in REFERENCE["chi"]["qubit-scan"]
