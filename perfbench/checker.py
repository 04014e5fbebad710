"""Correctness checks on CLI output; every failing row is counted.

A check returns ``(attempted, failures)`` where ``failures`` maps a row index
to the reasons it failed.  A faster program that reports a smaller chi_max,
a non-finite field or a broken ordering therefore counts as failed, not as
faster.  Tolerances:

* chi_s_max may fall below the reference recorded in reference.json by at
  most CHI_TOL and may exceed it by any amount (higher chi is the secure
  direction);
* kappa = 1 qubit rows must match the analytic anchor h(Q) within CHI_TOL;
* the variant ordering uses the tolerances of acceptance criterion 5;
* each squash-validate row must print the exact table value, the 3-sigma
  bound 3*sqrt(p(1-p)/trials) and an observed frequency within that bound,
  all to the 6 decimals the CLI prints (PRINT_TOL).

kappa-monotonicity of qubit rates and the >900 km abort are deliberately not
checked here; the tier-1 tests cover them (see README.md).
"""

from __future__ import annotations

import math

CHI_TOL = 1e-6
ORDER_TOL = 1e-12
EQUAL_TOL = 1e-4

# The exact post-processing table that squash-validate samples, in the order
# it prints its rows: (pattern, outcome, probability).  7 patterns give 13
# rows, 4 with probability 1 and 9 stochastic ones.  It is written out here,
# not read from the program, so the program does not certify itself.
SQUASH_TABLE = (
    ("single-middle c2/even", "0", 1.0),
    ("single-middle d2/odd", "3", 1.0),
    ("double-middle even", "0", 0.5),
    ("double-middle even", "2", 0.5),
    ("double-middle odd", "1", 0.5),
    ("double-middle odd", "3", 0.5),
    ("single-outside c3", "out", 1.0),
    ("multi-outside c1+d3", "out", 1.0),
    ("cross c2+d1", "0", 0.125),
    ("cross c2+d1", "1", 0.125),
    ("cross c2+d1", "2", 0.125),
    ("cross c2+d1", "3", 0.125),
    ("cross c2+d1", "out", 0.5),
)
SQUASH_ROWS = len(SQUASH_TABLE)
# squash-validate prints expected, observed and 3sigma with 6 decimals.
PRINT_TOL = 5e-7 + 1e-12


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def ref_key(variant: str, kappa: float, x: float) -> str:
    """reference.json key of one row: x is distance_km or the QBER."""
    return f"{variant},{kappa!r},{x!r}"


def _all_failed(n: int, reason: str):
    return n, {i: [reason] for i in range(n)}


def check_csv(text: str, returncode: int, rows, header, chi_ref: dict, *, realistic: bool):
    """Check a compare (``realistic``) or qubit-scan CSV against ``rows``.

    ``rows`` holds the expected (variant, kappa, x) keys in output order,
    with x the distance for realistic rows and the QBER for qubit rows.
    """
    n = len(rows)
    if returncode != 0:
        return _all_failed(n, f"exit code {returncode}")
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(header):
        return _all_failed(n, "header differs from engine.CSV_HEADER")
    body = lines[1:]
    failures: dict = {}
    parsed = {}
    x_field = "distance_km" if realistic else "qber_total"
    blank_ok = () if realistic else ("distance_km", "mu")
    for i, (variant, kappa, x) in enumerate(rows):
        if i >= len(body):
            failures[i] = ["missing row"]
            continue
        fields = body[i].split(",")
        if len(fields) != len(header):
            failures[i] = ["wrong field count"]
            continue
        rec = dict(zip(header, fields))
        reasons = []
        values = {}
        for name in header:
            if name == "variant":
                continue
            raw = rec[name]
            if raw == "" and name in blank_ok:
                continue
            try:
                value = float(raw)
            except ValueError:
                reasons.append(f"{name}={raw!r} is not a number")
                continue
            if not math.isfinite(value):
                reasons.append(f"{name}={raw} is not finite")
            values[name] = value
        if reasons:
            failures[i] = reasons
            continue
        if (rec["variant"] != variant or abs(values["kappa"] - kappa) > 1e-12
                or abs(values[x_field] - x) > 1e-9):
            failures[i] = [f"row is {rec['variant']},{rec['kappa']},{rec[x_field]}, "
                           f"expected {variant},{kappa},{x}"]
            continue
        chi = values["chi_s_max"]
        ref = chi_ref.get(ref_key(variant, kappa, x))
        if ref is None:
            reasons.append("no recorded chi reference")
        elif chi < ref - CHI_TOL:
            reasons.append(f"chi_s_max {chi!r} below reference {ref!r}")
        if not realistic and kappa == 1.0:
            anchor = binary_entropy(values["qber_total"])
            if abs(chi - anchor) > CHI_TOL:
                reasons.append(f"chi_s_max {chi!r} differs from h(Q) = {anchor!r}")
        if reasons:
            failures[i] = reasons
        parsed[i] = values
    if realistic:
        _check_compare_relations(rows, parsed, failures)
    extra = max(0, len(body) - n)
    for j in range(extra):
        failures[n + j] = ["unexpected extra row"]
    return n + extra, failures


def _check_compare_relations(rows, parsed, failures):
    """rate_raw non-increasing in distance; PBS >= unbalanced >= fix-loss;
    unbalanced == fix-uneven-bs within EQUAL_TOL (all at equal distance)."""
    index = {(v, x): i for i, (v, _, x) in enumerate(rows)}

    def fail(i, reason):
        failures.setdefault(i, []).append(reason)

    prev = {}
    for i, (variant, _, x) in enumerate(rows):
        if i not in parsed:
            continue
        j = prev.get(variant)
        if j is not None and parsed[i]["rate_raw"] > parsed[j]["rate_raw"] + ORDER_TOL:
            fail(i, f"rate_raw rises with distance at {x} km")
        prev[variant] = i
    for x in sorted({x for _, _, x in rows}):
        i_pbs, i_unb, i_loss, i_bs = (index.get((v, x)) for v in
                                      ("pbs", "unbalanced", "fix-loss", "fix-uneven-bs"))
        if any(i not in parsed for i in (i_pbs, i_unb, i_loss, i_bs)):
            continue
        rate = {i: parsed[i]["rate"] for i in (i_pbs, i_unb, i_loss, i_bs)}
        if rate[i_pbs] < rate[i_unb] - ORDER_TOL:
            fail(i_pbs, f"pbs rate below unbalanced at {x} km")
        if rate[i_unb] < rate[i_loss] - ORDER_TOL:
            fail(i_loss, f"fix-loss rate above unbalanced at {x} km")
        if abs(rate[i_unb] - rate[i_bs]) > EQUAL_TOL:
            fail(i_bs, f"fix-uneven-bs rate differs from unbalanced at {x} km")


def _squash_row_reasons(line: str, name: str, outcome: str, p: float, trials: int):
    """Reasons one table row fails: wrong key or table value, wrong 3-sigma
    bound, observed frequency outside the recomputed bound, or not 'ok'."""
    fields = line.split()
    if len(fields) < 6 or (" ".join(fields[:-5]), fields[-5]) != (name, outcome):
        return [f"row is {line!r}, expected pattern {name!r} outcome {outcome!r}"]
    try:
        expected, observed, printed_bound = map(float, fields[-4:-1])
    except ValueError:
        return [f"row {line!r} has a field that is not a number"]
    reasons = []
    bound = 3.0 * math.sqrt(p * (1.0 - p) / trials)
    if abs(expected - p) > PRINT_TOL:
        reasons.append(f"expected {expected} differs from the table value {p}")
    if abs(printed_bound - bound) > PRINT_TOL:
        reasons.append(f"3sigma {printed_bound} differs from 3*sqrt(p(1-p)/{trials}) = {bound:.6f}")
    if not abs(observed - p) <= bound + PRINT_TOL:
        reasons.append(f"observed {observed} outside {p} +- {bound:.6f}")
    if fields[-1] != "ok":
        reasons.append(f"row marked {fields[-1]!r}")
    return reasons


def check_squash(text: str, returncode: int, trials: int):
    """squash-validate must exit 0, print PASS and mark every table row ok;
    each row must also hold the exact table value, the 3-sigma bound for
    ``trials`` draws, and an observed frequency within that bound."""
    lines = text.splitlines()
    table = lines[1:1 + SQUASH_ROWS]
    failures = {}
    for i, (name, outcome, p) in enumerate(SQUASH_TABLE):
        if i >= len(table) or table[i].startswith("squash-validate:"):
            failures[i] = ["missing row"]
            continue
        reasons = _squash_row_reasons(table[i], name, outcome, p, trials)
        if reasons:
            failures[i] = reasons
    passed = bool(lines) and lines[-1].startswith(f"squash-validate: PASS (trials={trials},")
    if not failures and (returncode != 0 or not passed or len(lines) != SQUASH_ROWS + 2):
        return _all_failed(SQUASH_ROWS, f"exit code {returncode}, PASS line for "
                                        f"trials={trials} {'present' if passed else 'missing'}")
    return SQUASH_ROWS, failures
