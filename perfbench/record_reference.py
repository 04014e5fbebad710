"""Write perfbench/reference.json from the program in this checkout.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

Records, at the CLI's default seed, chi_s_max of every compare row for each
kappa in workloads.KAPPA_MENU and of every qubit-scan row for the menu plus
kappa = 1.  A reference already in reference.json is never lowered: a
lower chi is the insecure direction, so lowering one is a deliberate edit,
not a re-recording.  It then runs ``squash-validate`` on CLI seeds
1..SQUASH_SCREENED and keeps the seeds that pass as the squash workload's seed
menu, recording the ones that fail.  If more than MAX_SQUASH_FAILED of them
fail, the sampler is taken to be defective: the script exits with code 1 and
writes nothing.  See README.md, "Squash 3-sigma test".  Runs up to nproc CLI
processes at a time.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checker
import workloads
from run import cli_env

HERE = Path(__file__).resolve().parent

SQUASH_SCREENED = 100
# A correct sampler fails the 3-sigma check on about 2% of seeds (README.md),
# so about 2 of 100.  More than 6 failures has a chance of about 1% for a
# correct sampler and marks a defect, not chance.
MAX_SQUASH_FAILED = 6


def run_all(commands, root: Path, parallel: int):
    """Run CLI argv lists, at most ``parallel`` at once; (code, stdout) each."""
    env = cli_env(root)

    def run_one(argv):
        proc = subprocess.run([sys.executable, "-m", "ubb84", *argv], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout

    with ThreadPoolExecutor(parallel) as pool:
        return list(pool.map(run_one, commands))


def main() -> int:
    root = Path.cwd()
    parallel = workloads.nproc()
    menu = workloads.KAPPA_MENU
    qubit_kappas = (*menu, workloads.ANCHOR_KAPPA)
    commands = [("compare", "--kappa", repr(k), "--threads", "1") for k in menu]
    commands.append(("qubit-scan", "--kappas", ",".join(repr(k) for k in qubit_kappas),
                     "--qber-stop", "0.12", "--qber-step", "0.01"))
    squash_seeds = range(1, SQUASH_SCREENED + 1)
    commands += [("squash-validate", "--trials", str(workloads.SQUASH_TRIALS),
                  "--seed", str(s)) for s in squash_seeds]
    results = run_all(commands, root, parallel)

    path = HERE / "reference.json"
    old = json.loads(path.read_text())["chi"] if path.exists() else {}
    chi = {"compare": {}, "qubit-scan": {}}
    for code, out in results[:len(menu) + 1]:
        if code != 0:
            raise SystemExit(f"reference run failed with exit code {code}")
        for row in csv.DictReader(io.StringIO(out)):
            name, x = (("compare", row["distance_km"]) if row["distance_km"]
                       else ("qubit-scan", row["qber_total"]))
            key = checker.ref_key(row["variant"], float(row["kappa"]), float(x))
            chi[name][key] = max(float(row["chi_s_max"]),
                                 old.get(name, {}).get(key, -math.inf))
    passed, failed = [], []
    for seed, (code, out) in zip(squash_seeds, results[len(menu) + 1:]):
        bad = checker.check_squash(out, code, workloads.SQUASH_TRIALS)[1]
        if code == 0 and not bad:
            passed.append(seed)
        elif code == 1:
            failed.append(seed)
        else:
            raise SystemExit(f"squash-validate --seed {seed} exited {code}: {bad}")
    if len(failed) > MAX_SQUASH_FAILED:
        print(f"squash 3-sigma check failed on {len(failed)} of {SQUASH_SCREENED} seeds "
              f"(more than {MAX_SQUASH_FAILED}): the sampler is defective; "
              f"reference.json left unchanged", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                            capture_output=True).stdout.strip() or None
    reference = {
        "commit": commit,
        "kappa_menu": list(menu),
        "chi": chi,
        "squash": {
            "trials": workloads.SQUASH_TRIALS,
            "screened": len(squash_seeds),
            "failed_seeds": failed,
            "seeds": passed,
        },
    }
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"{sum(map(len, chi.values()))} chi references; squash 3-sigma check failed on "
          f"{len(failed)} of {len(squash_seeds)} seeds: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
