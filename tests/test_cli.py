import math
import subprocess
import sys

import pytest

from ubb84.cli import main
from ubb84.engine import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQubitCommands:
    def test_qubit_rate_row(self, capsys):
        code, out, _ = run_cli(capsys, "qubit-rate", "--kappa", "1.0", "--qber", "0.05")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        row = lines[1].split(",")
        assert row[0] == "unbalanced"
        assert float(row[-1]) == pytest.approx(0.4272, abs=1e-3)

    def test_qubit_rate_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "qubit-rate", "--kappa", "0.6", "--qber", "0.04")
        _, second, _ = run_cli(capsys, "qubit-rate", "--kappa", "0.6", "--qber", "0.04")
        assert first == second

    def test_qubit_scan_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys, "qubit-scan", "--kappas", "0.5,1.0",
            "--qber-start", "0.0", "--qber-stop", "0.04", "--qber-step", "0.02",
            "--out", str(out_file),
        )
        assert code == 0
        assert out == ""
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 * 3

    def test_invalid_kappa_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "qubit-rate", "--kappa", "0.0", "--qber", "0.05")
        assert code == 2
        assert "error" in err


class TestRealisticCommands:
    def test_distance_scan(self, capsys):
        code, out, err = run_cli(
            capsys, "distance-scan", "--variant", "pbs", "--kappa", "1.0",
            "--lmax", "10", "--lstep", "10", "--threads", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("pbs,1,0,")

    def test_preset_file(self, capsys, tmp_path):
        preset = tmp_path / "channel.preset"
        preset.write_text("e_d = 0.01\nmu = 0.2\n")
        code, out, _ = run_cli(
            capsys, "distance-scan", "--variant", "unbalanced", "--kappa", "0.5",
            "--lmax", "0", "--lstep", "5", "--preset", str(preset), "--threads", "1",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_bad_preset_exits_2(self, capsys, tmp_path):
        preset = tmp_path / "bad.preset"
        preset.write_text("not_a_field = 1\n")
        code, _, err = run_cli(
            capsys, "distance-scan", "--variant", "pbs", "--kappa", "1.0",
            "--lmax", "0", "--lstep", "5", "--preset", str(preset),
        )
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize("line, field", [("y0 = nan", "y0"), ("mu = nan", "mu"),
                                             ("distance_km = inf", "distance_km")])
    def test_non_finite_preset_exits_2(self, capsys, tmp_path, line, field):
        preset = tmp_path / "nan.preset"
        preset.write_text(line + "\n")
        code, out, err = run_cli(
            capsys, "distance-scan", "--variant", "unbalanced", "--kappa", "0.5",
            "--lmax", "0", "--lstep", "5", "--preset", str(preset), "--threads", "1",
        )
        assert code == 2
        assert out == ""
        assert f"{field} must be finite" in err

    # NaN, not inf: without the check an infinite bound never ends the grid loop
    @pytest.mark.parametrize("argv", [
        ("distance-scan", "--variant", "pbs", "--kappa", "1.0", "--lmax", "nan"),
        ("compare", "--kappa", "0.5", "--lstep", "nan"),
        ("qubit-scan", "--kappas", "1.0", "--qber-stop", "nan"),
    ])
    def test_non_finite_axis_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "must be finite" in err

    @pytest.mark.parametrize("variant", ["unbalanced", "pbs"])
    def test_past_the_cutoff_reports_zero(self, capsys, variant):
        # eta_sys underflows, q_single rounds to 1/2 and chi_s_max is 1
        code, out, _ = run_cli(
            capsys, "distance-scan", "--variant", variant, "--kappa", "0.5",
            "--lmin", "800", "--lmax", "1000", "--lstep", "50", "--threads", "1",
        )
        assert code == 0
        rows = [dict(zip(CSV_HEADER, line.split(","))) for line in out.strip().splitlines()[1:]]
        assert len(rows) == 5
        for row in rows:
            values = {k: float(v) for k, v in row.items() if k != "variant"}
            assert all(map(math.isfinite, values.values())), row
            if values["q_single"] == 0.5:
                assert values["chi_s_max"] == 1.0
                assert values["rate"] == 0.0
        assert float(rows[-1]["q_single"]) == 0.5

    def test_compare_emits_all_variants(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--kappa", "0.5", "--lmax", "0", "--lstep", "5",
            "--threads", "1",
        )
        assert code == 0
        variants = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert variants == ["unbalanced", "pbs", "fix-loss", "fix-uneven-bs"]


class TestSquashValidate:
    def test_pass_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "squash-validate", "--trials", "5000", "--seed", "2")
        assert code == 0
        assert "squash-validate: PASS" in out

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "squash-validate", "--trials", "2000", "--seed", "5")
        _, second, _ = run_cli(capsys, "squash-validate", "--trials", "2000", "--seed", "5")
        assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ubb84", "qubit-rate", "--kappa", "1.0", "--qber", "0.0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(CSV_HEADER)
