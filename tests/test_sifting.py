import math

import numpy as np
import pytest

from conftest import announcement_filters, holevo_via_purification, random_density
from reference import (
    DegeneratePostselectionError,
    alice_povm,
    bob_povm,
    error_rate_Q,
    holevo_ab,
    joint_probability,
    kron,
    overall_holevo,
    postselected_povms,
    sift,
    source_state,
    state_matrix,
    symmetrize,
    symmetry_group,
)
from ubb84.protocol import Variant, make_config
from ubb84.sifting import SymmetricState


def source_density(cfg):
    ket, _ = source_state(cfg)
    return np.outer(ket, ket.conj())


def apply_group(rho, g):
    u = symmetry_group().unitaries[g]
    g4 = kron(u.conj(), u)
    return g4 @ rho @ g4.conj().T


class TestJointProbability:
    def test_matching_outcome(self):
        cfg = make_config(1.0)
        rho = source_density(cfg)
        p = joint_probability(rho, alice_povm(cfg).element(0), bob_povm(cfg).element(0))
        assert p == pytest.approx(1 / 16, abs=1e-12)

    def test_orthogonal_outcome(self):
        cfg = make_config(1.0)
        rho = source_density(cfg)
        p = joint_probability(rho, alice_povm(cfg).element(0), bob_povm(cfg).element(2))
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_product_trace(self):
        cfg = make_config(0.5)
        p = joint_probability(np.eye(4) / 4, alice_povm(cfg).element(1), bob_povm(cfg).element("out"))
        assert p == pytest.approx(0.125, abs=1e-12)


class TestSift:
    def test_balanced_source(self):
        stats = sift(source_density(make_config(1.0)), make_config(1.0))
        assert stats.p_tilde == pytest.approx(1 / 8, abs=1e-12)
        assert stats.p_kept == pytest.approx(1 / 4, abs=1e-12)

    def test_pbs_source(self):
        cfg = make_config(1.0, Variant.PBS)
        stats = sift(source_density(cfg), cfg)
        assert stats.p_tilde == pytest.approx(1 / 4, abs=1e-12)
        assert stats.p_kept == pytest.approx(1 / 2, abs=1e-12)

    def test_equal_announcements_for_random_states(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            rho = random_density(rng)
            cfg = make_config(rng.uniform(0.2, 1.0))
            stats = sift(rho, cfg)
            # each announcement's own filter reproduces the one sifted state
            for g in announcement_filters(cfg):
                kept = g @ rho @ g.conj().T
                p_u = np.trace(kept).real
                assert p_u == pytest.approx(stats.p_tilde, abs=1e-12)
                assert np.abs(kept / p_u - stats.rho).max() <= 1e-12
            assert np.trace(stats.rho).real == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_input(self):
        with pytest.raises(DegeneratePostselectionError):
            sift(np.zeros((4, 4)), make_config(0.5))


class TestHolevoAB:
    def test_pure_product_state(self):
        v = np.kron(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2))
        rho = np.outer(v, v)
        m_a, _ = postselected_povms(make_config(1.0), "even")
        assert holevo_ab(rho, m_a) == pytest.approx(0.0, abs=1e-9)

    def test_pure_entangled_source(self):
        cfg = make_config(1.0)
        m_a, _ = postselected_povms(cfg, "even")
        assert holevo_ab(source_density(cfg), m_a) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_non_rank_one(self):
        with pytest.raises(ValueError, match="rank-one"):
            holevo_ab(np.eye(4) / 4, [np.eye(2) / 2, np.eye(2) / 2])

    def test_against_purification_oracle(self):
        cfg = make_config(1.0)
        rho = 0.9 * source_density(cfg) + 0.1 * np.eye(4) / 4
        m_a, _ = postselected_povms(cfg, "even")
        expected = holevo_via_purification(rho, m_a.elements)
        assert holevo_ab(rho, m_a) == pytest.approx(expected, abs=1e-8)

    def test_oracle_agreement_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = random_density(rng)
            cfg = make_config(rng.uniform(0.3, 1.0))
            for u in ("even", "odd"):
                m_a, _ = postselected_povms(cfg, u)
                assert holevo_ab(rho, m_a) == pytest.approx(
                    holevo_via_purification(rho, m_a.elements), abs=1e-8
                )


class TestOverallHolevo:
    def test_pure_source_any_kappa(self):
        for kappa in (0.3, 0.6, 1.0):
            cfg = make_config(kappa)
            assert overall_holevo(source_density(cfg), cfg) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_balanced(self):
        cfg = make_config(1.0)
        assert overall_holevo(np.eye(4) / 4, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_equivalence_under_group(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            rho = random_density(rng)
            cfg = make_config(rng.uniform(0.2, 1.0))
            base = overall_holevo(rho, cfg)
            for g in range(4):
                assert overall_holevo(apply_group(rho, g), cfg) == pytest.approx(base, abs=1e-9)

    def test_concavity(self):
        rng = np.random.default_rng(34)
        cfg = make_config(0.6)
        for _ in range(10):
            rho, sig = random_density(rng), random_density(rng)
            cr, cs = overall_holevo(rho, cfg), overall_holevo(sig, cfg)
            for lam in (0.25, 0.5, 0.75):
                mix = lam * rho + (1 - lam) * sig
                assert overall_holevo(mix, cfg) >= lam * cr + (1 - lam) * cs - 1e-9

    def test_symmetrization_dominance(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            rho = random_density(rng)
            cfg = make_config(rng.uniform(0.2, 1.0))
            bar = state_matrix(symmetrize(rho))
            assert overall_holevo(bar, cfg) >= overall_holevo(rho, cfg) - 1e-9


class TestSymmetrize:
    def test_fixed_point(self):
        state = SymmetricState(a=0.4, b=0.1, c=0.2, d=0.3, f=0.25 + 0.1j)
        out = symmetrize(state_matrix(state))
        assert np.allclose(state_matrix(out), state_matrix(state), atol=1e-12)

    def test_balanced_source(self):
        out = symmetrize(source_density(make_config(1.0)))
        assert (out.a, out.d) == pytest.approx((0.5, 0.5))
        assert (out.b, out.c) == pytest.approx((0.0, 0.0), abs=1e-12)
        assert out.f == pytest.approx(0.5)

    def test_pattern_for_random_states(self):
        rng = np.random.default_rng(8)
        pattern = np.zeros((4, 4), dtype=bool)
        pattern[np.diag_indices(4)] = True
        pattern[0, 3] = pattern[3, 0] = True
        for _ in range(30):
            out = state_matrix(symmetrize(random_density(rng)))
            assert np.abs(out[~pattern]).max() < 1e-12
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng)
        out = state_matrix(symmetrize(rho))
        assert out.trace().real == pytest.approx(np.trace(rho).real, abs=1e-12)


class TestErrorRate:
    def test_pure_source_parameters(self):
        for kappa in (0.25, 0.5, 1.0):
            cfg = make_config(kappa)
            xi = cfg.xi
            s = SymmetricState(a=xi, b=0.0, c=0.0, d=1 - xi, f=math.sqrt(xi * (1 - xi)))
            q, p_tilde = error_rate_Q(s, cfg)
            assert q == pytest.approx(0.0, abs=1e-12)
            assert p_tilde == pytest.approx(xi * (1 - xi) / 2, abs=1e-12)

    def test_uncorrelated_state(self):
        s = SymmetricState(a=0.25, b=0.25, c=0.25, d=0.25, f=0.0)
        q, _ = error_rate_Q(s, make_config(1.0))
        assert q == pytest.approx(0.5)

    def test_direct_substitution(self):
        s = SymmetricState(a=0.5, b=0.0, c=0.0, d=0.5, f=0.4)
        q, p_tilde = error_rate_Q(s, make_config(1.0))
        assert p_tilde == pytest.approx(1 / 8)
        assert q == pytest.approx(0.1, abs=1e-12)

    def test_matches_outcome_sum(self):
        # closed form vs. the error-outcome sum of the skewed middle-click
        # statistics, for the estimator's xi of each variant
        rng = np.random.default_rng(55)
        for variant in Variant:
            for _ in range(10):
                kappa = rng.uniform(0.2, 1.0)
                cfg = make_config(kappa, variant)
                s = symmetrize(random_density(rng))
                q, p_tilde = error_rate_Q(s, cfg)
                est_cfg = make_config(1.0 / cfg.receiver.xi_effective - 1.0, Variant.UNBALANCED)
                a_pov, b_pov = alice_povm(est_cfg), bob_povm(est_cfg)
                total = sum(
                    joint_probability(state_matrix(s), a_pov.element(x), b_pov.element((x + 2) % 4))
                    for x in range(4)
                )
                assert total / (2 * p_tilde) == pytest.approx(q, abs=1e-10)
