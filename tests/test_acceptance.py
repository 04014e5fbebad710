"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import announcement_filters, every_variant, random_density, signal_kept_weight
from reference import (
    alice_povm,
    bob_povm,
    filters,
    grid_oracle,
    kron,
    overall_holevo,
    sift,
    source_state,
    state_matrix,
    symmetrize,
    symmetry_group,
)
from ubb84.attack import constraint_set, maximize_holevo_qubit
from ubb84.channel import default_params
from ubb84.engine import distance_scan, qubit_point
from ubb84.protocol import make_config
from ubb84.qmath import binary_entropy
from ubb84.squash import ClickPattern, EffectiveOutcome, monte_carlo_check, squash_distribution

REPO_ROOT = Path(__file__).resolve().parents[1]


class _Criterion:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s
        self.t0 = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if elapsed < self.limit_s else "FAIL (over time budget)"
        print(f"ACCEPTANCE {self.number} {status} [{elapsed:.1f}s < {self.limit_s}s] "
              f"{self.description}")
        assert elapsed < self.limit_s, f"criterion {self.number} exceeded {self.limit_s}s"


def test_criterion_1_bb84_anchor():
    crit = _Criterion(1, "balanced case matches 1 - 2h(Q); threshold near 0.11", 10.0)
    cfg = make_config(1.0)
    for q in np.arange(0.0, 0.101, 0.01):
        rate = qubit_point(cfg, float(q)).rate
        assert rate == pytest.approx(1.0 - 2.0 * binary_entropy(float(q)), abs=1e-3), q

    lo, hi = 0.10, 0.12
    assert qubit_point(cfg, lo).rate_raw > 0.0 > qubit_point(cfg, hi).rate_raw
    while hi - lo > 5e-4:
        mid = (lo + hi) / 2.0
        if qubit_point(cfg, mid).rate_raw > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = (lo + hi) / 2.0
    assert 0.105 <= crossing <= 0.115, crossing
    crit.finish()


def test_criterion_2_oracle_equivalence():
    crit = _Criterion(2, "optimizer agrees with the resolution-50 grid oracle", 120.0)
    for kappa in (0.3, 0.5, 0.8, 1.0):
        cfg = make_config(kappa)
        for q in (0.01, 0.05, 0.10):
            result = maximize_holevo_qubit(cfg, q)
            chi_grid, _ = grid_oracle(cfg, constraint_set(cfg, q), 50)
            assert result.chi_max >= chi_grid - 1e-6, (kappa, q)
            assert abs(result.chi_max - chi_grid) <= 2e-3, (kappa, q)
    crit.finish()


def test_criterion_3_symmetry_suite():
    crit = _Criterion(3, "POVM/filter/sift symmetries and chi-bar structure", 60.0)
    group = symmetry_group()

    rng = np.random.default_rng(101)
    for kappa in rng.uniform(0.05, 1.0, size=50):
        cfg = make_config(kappa)
        assert np.allclose(sum(e for _, e in alice_povm(cfg).items()), np.eye(2), atol=1e-10)
        assert np.allclose(sum(e for _, e in bob_povm(cfg).items()), np.eye(2), atol=1e-10)

    for kappa in (0.3, 0.7, 1.0):
        cfg = make_config(kappa)
        a, b = alice_povm(cfg), bob_povm(cfg)
        _, rho_a = source_state(cfg)
        pair = filters(cfg)
        for g, u in enumerate(group.unitaries):
            for x in range(4):
                assert np.allclose(u.conj() @ a.element(x) @ u.T,
                                   a.element((x + g) % 4), atol=1e-12)
                assert np.allclose(u @ b.element(x) @ u.conj().T,
                                   b.element((x + g) % 4), atol=1e-12)
            assert np.allclose(u @ b.element("out") @ u.conj().T, b.element("out"), atol=1e-12)
            assert np.allclose(u.conj() @ rho_a @ u.T, rho_a, atol=1e-12)
            for f in (pair.f_a, pair.f_b):
                assert np.allclose(f @ u - u @ f, 0.0, atol=1e-12)

    states = [random_density(np.random.default_rng(1000 + i)) for i in range(100)]
    cfg = make_config(0.6)
    cfg_list = [make_config(k) for k in (0.35, 0.6, 1.0)]
    for i, rho in enumerate(states):
        c = cfg_list[i % 3]
        stats = sift(rho, c)
        for g_u in announcement_filters(c):  # even and odd give one sifted state
            kept = g_u @ rho @ g_u.conj().T
            p_u = np.trace(kept).real
            assert p_u == pytest.approx(stats.p_tilde, abs=1e-12)
            assert np.abs(kept / p_u - stats.rho).max() <= 1e-12
        base = overall_holevo(rho, c)
        for g in range(4):
            u = group.unitaries[g]
            g4 = kron(u.conj(), u)
            assert overall_holevo(g4 @ rho @ g4.conj().T, c) == pytest.approx(base, abs=1e-9)
        assert overall_holevo(state_matrix(symmetrize(rho)), c) >= base - 1e-9

    for i in range(0, 100, 4):  # concavity spot checks on state pairs
        rho, sig = states[i], states[(i + 1) % 100]
        cr, cs = overall_holevo(rho, cfg), overall_holevo(sig, cfg)
        for lam in (0.25, 0.5, 0.75):
            mixed = overall_holevo(lam * rho + (1 - lam) * sig, cfg)
            assert mixed >= lam * cr + (1 - lam) * cs - 1e-9
    crit.finish()


def test_criterion_4_monotonicity():
    crit = _Criterion(4, "rates monotone in kappa and distance", 300.0)
    kappas = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    cfgs = [make_config(k) for k in kappas]
    for q in (0.01, 0.03, 0.05):  # qubit key per signal sent
        rates = [signal_kept_weight(cfg) * qubit_point(cfg, q).rate for cfg in cfgs]
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo - 1e-6, q
        # the abstract's claim, strictly: the modulator's loss costs key at every kappa < 1
        # (smallest gap 2.7e-4, at kappa = 0.9 and Q = 0.05)
        for kappa, rate in zip(kappas[:-1], rates):
            assert rate <= rates[-1] - 1e-4, (q, kappa)

    params = default_params()
    distances = [0.0, 10.0, 20.0, 30.0]
    by_kappa = {}
    for kappa in (1.0, 0.8, 0.5, 0.3):
        points = distance_scan([make_config(kappa)], params, distances)
        raw = [p.rate_raw for p in points]
        for lo, hi in zip(raw[1:], raw):
            assert hi >= lo - 1e-12, kappa  # nonincreasing over distance
        by_kappa[kappa] = [p.rate for p in points]
    for larger, smaller in ((1.0, 0.8), (0.8, 0.5), (0.5, 0.3)):
        for at_l in range(len(distances)):
            assert by_kappa[larger][at_l] >= by_kappa[smaller][at_l] - 1e-9
    crit.finish()


def test_criterion_5_protocol_ordering():
    crit = _Criterion(5, "PBS >= unbalanced >= fix-loss; unbalanced == fix-uneven-bs", 300.0)
    distances = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
    points = distance_scan(every_variant(0.5), default_params(), distances)
    by_variant = {}
    for p in points:
        by_variant.setdefault(p.variant, []).append(p)
    for i, distance in enumerate(distances):
        pbs = by_variant["pbs"][i].rate
        unb = by_variant["unbalanced"][i].rate
        fix_loss = by_variant["fix-loss"][i].rate
        fix_uneven = by_variant["fix-uneven-bs"][i].rate
        assert pbs >= unb - 1e-12, distance
        assert unb >= fix_loss - 1e-12, distance
        assert unb == pytest.approx(fix_uneven, abs=1e-4), distance
    crit.finish()


def test_criterion_6_squashing_table():
    crit = _Criterion(6, "post-processing table exact; Monte-Carlo within 3 sigma", 30.0)
    from fractions import Fraction

    R = {k: EffectiveOutcome(f"{k}") for k in range(4)}
    assert squash_distribution(ClickPattern(c2=True, basis="even")) == {R[0]: Fraction(1)}
    assert squash_distribution(ClickPattern(d2=True, basis="even")) == {R[2]: Fraction(1)}
    assert squash_distribution(ClickPattern(c2=True, basis="odd")) == {R[1]: Fraction(1)}
    assert squash_distribution(ClickPattern(d2=True, basis="odd")) == {R[3]: Fraction(1)}
    assert squash_distribution(ClickPattern(c2=True, d2=True, basis="even")) == {
        R[0]: Fraction(1, 2), R[2]: Fraction(1, 2)}
    assert squash_distribution(ClickPattern(c2=True, d2=True, basis="odd")) == {
        R[1]: Fraction(1, 2), R[3]: Fraction(1, 2)}
    assert squash_distribution(ClickPattern(c1=True, d3=True)) == {
        EffectiveOutcome.OUT: Fraction(1)}
    cross = squash_distribution(ClickPattern(c2=True, d1=True))
    assert cross[EffectiveOutcome.OUT] == Fraction(1, 2)
    assert all(cross[R[k]] == Fraction(1, 8) for k in range(4))

    rows, ok = monte_carlo_check(100_000, seed=7)
    assert ok, [r for r in rows if not r[-1]]
    crit.finish()


def test_criterion_7_reproduction_policy_documented():
    crit = _Criterion(7, "qualitative-reproduction policy stated in README", 10.0)
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "## Reproducibility" in readme
    assert "qualitative" in readme
    # orderings / monotonicity / balanced anchor are the binding checks
    for phrase in ("ordering", "monoton", "1 - 2h(Q)"):
        assert phrase in readme, phrase
    crit.finish()
