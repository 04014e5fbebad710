"""Golden output: every pinned CLI run of tests/golden/runs.txt (see pinned_runs)."""

import pytest

from pinned_runs import ROOT, entries, mismatches

RUNS = entries()


@pytest.mark.parametrize("name, code, argv", RUNS, ids=[name for name, _, _ in RUNS])
def test_cli_matches_golden(monkeypatch, name, code, argv):
    monkeypatch.chdir(ROOT)  # the list's preset paths are relative to the repository root
    assert mismatches(name, code, argv) == []
