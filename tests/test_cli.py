import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import every_variant
from ubb84.channel import default_params
from ubb84.cli import VARIANT_CHOICES, build_parser, main
from ubb84.engine import CSV_HEADER, cutoff_distance, distance_scan, format_csv
from ubb84.qmath import binary_entropy


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

    def test_qubit_scan_passes_threads(self, capsys, monkeypatch):
        from ubb84 import engine

        seen = []

        def recording(cfgs, qs, *, threads):
            seen.append(threads)
            return []

        monkeypatch.setattr(engine, "qubit_scan", recording)
        for threads in ("0", "3"):
            assert run_cli(capsys, "qubit-scan", "--kappas", "0.5", "--threads", threads)[0] == 0
        assert seen == [0, 3]

    def test_qubit_rate_prints_the_one_point_qubit_scan(self, capsys):
        codes = set()
        for variant in VARIANT_CHOICES:
            for kappa, qber in (("1e-12", "0"), ("0.01", "0.2"), ("0.5", "0.03"),
                                ("1", "0.45"), ("1e-17", "0.05")):
                rated = run_cli(capsys, "qubit-rate", "--kappa", kappa, "--qber", qber,
                                "--variant", variant)
                scanned = run_cli(capsys, "qubit-scan", "--kappas", kappa, "--qber-start", qber,
                                  "--qber-stop", qber, "--variant", variant)
                assert rated == scanned, (variant, kappa, qber)
                codes.add(rated[0])
        assert codes == {0, 2}

    def test_fine_qber_step_keeps_its_points_apart(self, capsys):
        # rounding to 12 decimals put six of these points on 0 and five on 1e-12
        code, out, _ = run_cli(capsys, "qubit-scan", "--kappas", "0.5", "--qber-start", "0",
                               "--qber-stop", "1e-12", "--qber-step", "1e-13")
        assert code == 0
        rows = [dict(zip(CSV_HEADER, line.split(","))) for line in out.splitlines()[1:]]
        assert len({float(row["qber_total"]) for row in rows}) == len(rows) == 11

    def test_small_kappa_is_not_underestimated(self, capsys):
        # Nelder-Mead reported chi_s_max 0.00184 and rate 0.917 here
        code, out, _ = run_cli(capsys, "qubit-rate", "--kappa", "1e-3", "--qber", "0.01")
        assert code == 0
        row = dict(zip(CSV_HEADER, out.splitlines()[1].split(",")))
        assert float(row["chi_s_max"]) >= 0.0618
        assert float(row["rate"]) <= 1.0 - binary_entropy(0.01) - 0.0618

    def test_invalid_kappa_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "qubit-rate", "--kappa", "0.0", "--qber", "0.05")
        assert code == 2
        assert "error" in err

    # below about 1.1e-16, xi = 1/(1+kappa) rounds to 1 and 1 - xi vanishes
    @pytest.mark.parametrize("variant", VARIANT_CHOICES)
    def test_kappa_with_xi_rounding_to_one_exits_2(self, capsys, variant):
        for argv in (("qubit-rate", "--kappa", "1e-17", "--qber", "0.05"),
                     ("qubit-scan", "--kappas", "1e-300")):
            code, out, err = run_cli(capsys, *argv, "--variant", variant)
            assert code == 2, argv
            assert out == ""
            assert "kappa" in err

    @settings(derandomize=True, deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kappa=st.one_of(st.floats(), st.floats(0.0, 1.0)),
           qber=st.one_of(st.floats(), st.floats(0.0, 0.5)))
    @example(kappa=1e-17, qber=0.05)
    @example(kappa=0.5, qber=-0.0)  # printed -0 in qber_total and q_single
    def test_qubit_rate_is_finite_or_exits_2(self, capsys, kappa, qber):
        for variant in VARIANT_CHOICES:
            code, out, _ = run_cli(capsys, "qubit-rate", f"--kappa={kappa!r}",
                                   f"--qber={qber!r}", "--variant", variant)
            assert code in (0, 2), (variant, code)
            if code == 0:
                row = dict(zip(CSV_HEADER, out.splitlines()[1].split(",")))
                for field in ("kappa", "qber_total", "q_single", "p_lost",
                              "chi_s_max", "rate_raw", "rate"):
                    assert math.isfinite(float(row[field])), (variant, row)
                assert "-0" not in row.values(), (variant, row)


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
        preset.write_text("e_d = 0.01\ny0 = 1e-6\n")
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

    @pytest.mark.parametrize("line, field", [("y0 = nan", "y0")])
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

    # distance and mu are the scan axis and the optimized variable; a preset
    # that sets them used to be accepted and ignored
    @pytest.mark.parametrize("line", ["mu = 0.2", "distance_km = 5"])
    def test_operating_point_preset_exits_2(self, capsys, tmp_path, line):
        preset = tmp_path / "point.preset"
        preset.write_text(line + "\n")
        code, out, err = run_cli(
            capsys, "compare", "--kappa", "0.5", "--lmax", "0", "--preset", str(preset),
            "--threads", "1",
        )
        assert code == 2
        assert out == ""
        assert "unknown key" in err

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

    @pytest.mark.parametrize("argv, message", [
        (("qubit-scan", "--kappas", "0.5", "--qber-start", "0.2", "--qber-stop", "0.1"),
         "stop >= start"),
        (("compare", "--kappa", "0.5", "--lmin", "1", "--lmax", "2", "--lstep", "1e-20"),
         "grid points"),
        (("qubit-rate", "--kappa", "0.5", "--qber", "0.03", "--seed", "3"),
         "unrecognized arguments"),
        (("compare", "--kappa", "0.5", "--lmax", "0", "--threads", "-1"), "--threads"),
    ])
    def test_bad_grid_or_flag_exits_2(self, capsys, argv, message):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects unknown flags this way
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @settings(derandomize=True, deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kappa=st.one_of(st.floats(0.0, 1.0), st.sampled_from([math.nan, 1e-300, -0.5])),
           variant=st.sampled_from(VARIANT_CHOICES),
           lmin=st.one_of(st.floats(0.0, 400.0), st.sampled_from([math.nan, 1e-300, -10.0])),
           lstep=st.one_of(st.floats(0.0, 100.0), st.sampled_from([math.nan, 1e-300, -5.0])),
           count=st.integers(1, 5))
    def test_distance_scan_is_finite_or_exits_2(self, capsys, kappa, variant, lmin, lstep, count):
        lmax = lmin + (count - 1) * lstep
        code, out, _ = run_cli(capsys, "distance-scan", "--variant", variant,
                               f"--kappa={kappa!r}", f"--lmin={lmin!r}", f"--lmax={lmax!r}",
                               f"--lstep={lstep!r}", "--threads", "1")
        assert code in (0, 2), code
        if code == 2:
            return
        rows = [dict(zip(CSV_HEADER, line.split(","))) for line in out.splitlines()[1:]]
        assert 1 <= len(rows) <= count
        values = [{k: float(v) for k, v in row.items() if k != "variant"} for row in rows]
        for row in values:
            assert all(map(math.isfinite, row.values())), row
        # 1e-8: the mu search stops within 1e-4 of the best mu.  Past the cutoff mu
        # sits at 1e-4, where rate_raw creeps back up towards -y0 f_ec; rate stays 0
        for near, far in zip(values, values[1:]):
            assert far["rate"] <= near["rate"] * (1.0 + 1e-8), (near, far)
            if near["rate_raw"] > 0.0:
                assert far["rate_raw"] <= near["rate_raw"] * (1.0 + 1e-8), (near, far)

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

    def test_distance_scan_prints_the_variants_compare_rows(self, capsys):
        grid = ("--kappa", "0.3", "--lmax", "240", "--lstep", "30", "--threads", "1")
        code, compared, cutoffs = run_cli(capsys, "compare", *grid)
        assert code == 0
        header, *rows = compared.splitlines()
        for variant, cutoff in zip(VARIANT_CHOICES, cutoffs.splitlines(), strict=True):
            code, out, err = run_cli(capsys, "distance-scan", "--variant", variant, *grid)
            assert code == 0
            assert out.splitlines() == [header] + [r for r in rows
                                                   if r.startswith(variant + ",")]
            assert err.splitlines() == [cutoff]

    def test_compare_prints_one_cutoff_line_per_variant(self, capsys):
        distances = [0.0, 100.0, 200.0]
        code, out, err = run_cli(
            capsys, "compare", "--kappa", "0.5", "--lmax", "200", "--lstep", "100",
            "--threads", "1",
        )
        assert code == 0
        points = distance_scan(every_variant(0.5), default_params(), distances)
        assert out == format_csv(points)
        expected = []
        for variant in VARIANT_CHOICES:
            cutoff = cutoff_distance([p for p in points if p.variant == variant])
            where = (f"first nonpositive rate at {cutoff:g} km" if cutoff is not None
                     else "rate positive up to 200 km")
            expected.append(f"# cutoff {variant} kappa=0.5: {where}")
        assert err.splitlines() == expected

        code, _, err = run_cli(capsys, "compare", "--kappa", "0.5", "--lmax", "0",
                               "--threads", "1")
        assert code == 0
        assert err.splitlines() == [f"# cutoff {v} kappa=0.5: rate positive up to 0 km"
                                    for v in VARIANT_CHOICES]


class TestParser:
    @pytest.mark.parametrize("command", ["qubit-rate", "qubit-scan", "distance-scan", "compare",
                                         "squash-validate"])
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: ubb84 {command} ")

    def test_scan_commands_share_their_scan_options(self, capsys):
        parser = build_parser()
        # the defaults, then every scan and common option given
        for scan in (["--kappa", "0.3"],
                     ["--kappa", "0.3", "--preset", "p.preset", "--lmin", "1", "--lmax", "2",
                      "--lstep", "0.5", "--threads", "1", "--out", "rows.csv"]):
            scanned = vars(parser.parse_args(["distance-scan", "--variant", "pbs", *scan]))
            compared = vars(parser.parse_args(["compare", *scan]))
            assert scanned.pop("variant") == "pbs"
            assert (scanned.pop("command"), compared.pop("command")) == ("distance-scan", "compare")
            assert scanned == compared
        for command in ("distance-scan", "compare"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            assert "--preset FILE key=value channel preset" in help_text, command


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


@pytest.mark.parametrize("module", ["scipy", "numpy", "dataclasses"])
def test_cli_import_leaves_module_unloaded(module):
    # scipy.optimize alone took over half of the CLI's start-up time and
    # numpy most of the rest; the package runs on the standard library.
    # dataclasses, with the inspect it loads, took about 12 ms more on 2 vCPU.
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, ubb84.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv, unloaded", [
    (["qubit-rate", "--kappa", "0.5", "--qber", "0.03"],
     ["ubb84.channel", "ubb84.squash", "concurrent.futures.process", "dataclasses", "inspect"]),
    (["squash-validate", "--trials", "1000"],
     ["ubb84.attack", "ubb84.engine", "dataclasses", "inspect", "fractions", "decimal"]),
    (["compare", "--kappa", "0.5", "--lmax", "10"],
     ["concurrent.futures.process", "dataclasses", "inspect"]),
])
def test_command_imports_only_what_it_runs(argv, unloaded):
    # a fresh interpreter, so that no other test has imported the modules
    code = ("import contextlib, io, sys\n"
            "from ubb84.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            f"print(code, [m for m in {unloaded!r} if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
