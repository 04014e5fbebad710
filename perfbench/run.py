"""Benchmark of the ubb84 CLI, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 35 --trace 0

Workloads are ``compare``, ``qubit-scan`` and ``squash`` (see workloads.py
and README.md).  ``--trace 0`` runs the CLI in fresh interpreters for
``--seconds`` seconds and reports the end-to-end metrics as medians over
those runs.  ``--trace 1`` calls ``ubb84.cli.main`` in-process four times
(untraced, traced and untraced again at --threads 1, then traced on the
parent side at --threads nproc) and reports the per-layer metrics.  Both
modes check every output row.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Earlier lines give the environment and the individual samples.  Exits 2
without a result if the checkout has no ``src/ubb84``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPS = 7
CALL_TIMEOUT_S = 150.0
SETUP_CODE = "import ubb84.cli; ubb84.cli.build_parser()"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float  # user + sys of the process and its reaped descendants
    peak_rss_mb: float  # largest resident set in the process tree
    returncode: int
    stdout: str
    stderr: str


def run_process(argv, env, cwd: Path) -> Sample:
    """Run argv to completion; resource use comes from wait4 on the child."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        timer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                      stdout=out.read().decode(), stderr=err.read().decode())


def check(wl, text: str, returncode: int, chi_ref: dict):
    if wl.name == "squash":
        return checker.check_squash(text, returncode, workloads.SQUASH_TRIALS)
    from ubb84.engine import CSV_HEADER  # imported before any timing starts

    return checker.check_csv(text, returncode, wl.rows, CSV_HEADER, chi_ref,
                             realistic=wl.name == "compare")


def report_failures(label: str, failures: dict):
    for row, reasons in sorted(failures.items())[:10]:
        print(f"{label}: row {row}: {'; '.join(reasons)}", file=sys.stderr)
    if len(failures) > 10:
        print(f"{label}: ... {len(failures) - 10} more failing rows", file=sys.stderr)


def cli_env(root: Path) -> dict:
    """The caller's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def timed(wl, root: Path, seconds: float, chi_ref: dict):
    """End-to-end metrics from fresh interpreters, medians over the run."""
    env = cli_env(root)
    setups = [run_process([sys.executable, "-c", SETUP_CODE], env, root)
              for _ in range(SETUP_REPS)]
    attempted = failed = 0
    for s in setups:
        if s.returncode != 0:
            print(f"setup exited {s.returncode}: {s.stderr.strip()}", file=sys.stderr)
            failed += 1
    samples = []
    start = time.perf_counter()
    while True:
        sample = run_process([sys.executable, "-m", "ubb84", *wl.argv], env, root)
        samples.append(sample)
        n, failures = check(wl, sample.stdout, sample.returncode, chi_ref)
        attempted += n
        failed += len(failures)
        report_failures(f"run {len(samples)}", failures)
        print(json.dumps({"sample": len(samples), "wall_s": sample.wall_s,
                          "cpu_s": sample.cpu_s, "peak_rss_mb": sample.peak_rss_mb,
                          "rows": n, "failed_rows": len(failures)}))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(s.wall_s for s in samples) > seconds:
            break
    attempted += len(setups)

    def median(field):
        return statistics.median(getattr(s, field) for s in samples)

    metrics = {
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "setup_s": (statistics.median(s.wall_s for s in setups), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
    }
    return attempted, failed, metrics


def run_inprocess(argv):
    """ubb84.cli.main(argv) with stdout captured; (text, exit code, wall s)."""
    import ubb84.cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = ubb84.cli.main(list(argv))
    return buf.getvalue(), code, time.perf_counter() - t0


def traced(wl, threads: int, chi_ref: dict):
    """Per-layer metrics from in-process runs; see the module docstring."""
    serial = list(wl.argv)
    serial[serial.index("--threads") + 1] = "1"
    text, code, before_s = run_inprocess(serial)
    attempted, failures = check(wl, text, code, chi_ref)
    with tracer.Tracer() as full:
        traced_text, _, traced_s = run_inprocess(serial)
    # untraced again, so that slow drift of the machine's speed cancels
    after_text, _, after_s = run_inprocess(serial)
    with tracer.Tracer(leaves=False, spans=tracer.PARENT_SPANS) as pooled:
        pooled_text, _, _ = run_inprocess(wl.argv)
    for label, other in (("traced --threads 1", traced_text),
                         ("second untraced --threads 1", after_text),
                         (f"traced --threads {threads}", pooled_text)):
        if other != text:
            for row in range(attempted):
                failures.setdefault(row, []).append(f"{label} output differs from untraced")
    report_failures("trace", failures)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values = tracer.layer_metrics(full, pooled)
    values["trace.overhead_s"] = traced_s - (before_s + after_s) / 2
    metrics = {name: (values[name], units[name]) for name in units}
    return attempted, len(failures), metrics


def environment(root: Path, wl, seed: int) -> dict:
    cpu_model = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
    return {
        "workload": wl.name,
        "seed": seed,
        "argv": ["ubb84", *wl.argv],
        "nproc": workloads.nproc(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "mp_start_method": multiprocessing.get_start_method(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ubb84" / "cli.py").is_file():
        print(f"error: {root} holds no ubb84 source tree (src/ubb84/cli.py); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    importlib.import_module("ubb84.engine")
    reference = json.loads((HERE / "reference.json").read_text())
    threads = workloads.nproc()
    wl = workloads.build(args.workload, args.seed, threads, reference["squash"]["seeds"])
    print(json.dumps({"environment": environment(root, wl, args.seed)}), flush=True)
    chi_ref = reference["chi"].get(wl.name, {})
    if args.trace:
        attempted, failed, metrics = traced(wl, threads, chi_ref)
    else:
        attempted, failed, metrics = timed(wl, root, args.seconds, chi_ref)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
