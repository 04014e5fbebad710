import math

import numpy as np
import pytest

from conftest import random_density
from reference import (
    alice_povm,
    bob_povm,
    conditional_on_a,
    filters,
    postselected_povms,
    signal_state,
    source_state,
    symmetry_group,
)
from ubb84.protocol import ProtocolConfig, Variant, make_config


class TestConfig:
    def test_balanced(self):
        assert make_config(1.0).xi == pytest.approx(0.5)

    def test_direct_substitution(self):
        assert make_config(0.5).xi == pytest.approx(2.0 / 3.0)

    def test_rejects_blocked_arm(self):
        with pytest.raises(ValueError):
            make_config(0.0)
        with pytest.raises(ValueError):
            make_config(1.5)

    def test_direct_construction_validates(self):
        # xi is derived from kappa, so a directly built config cannot disagree with it
        with pytest.raises(ValueError, match="kappa"):
            ProtocolConfig(kappa=2.0, variant=Variant.PBS)
        assert ProtocolConfig(kappa=0.5, variant=Variant.PBS) == make_config(0.5, "pbs")
        # one constructor: a variant's name selects its own receiver row either way
        assert make_config is ProtocolConfig
        for name in [variant.value for variant in Variant]:
            assert ProtocolConfig(0.5, name).receiver == make_config(0.5, name).receiver

    def test_xi_range(self):
        for kappa in np.linspace(0.01, 1.0, 25):
            xi = make_config(kappa).xi
            assert 0.5 <= xi < 1.0

    def test_fixes_use_balanced_structure(self):
        for variant in (Variant.FIX_LOSS, Variant.FIX_UNEVEN_BS):
            cfg = make_config(0.4, variant)
            assert cfg.xi == pytest.approx(1 / 1.4)
            assert cfg.receiver.xi_effective == 0.5
            assert np.allclose(source_state(cfg)[1], np.eye(2) / 2)


class TestSignalStates:
    def test_balanced_bb84_state(self):
        v = signal_state(make_config(1.0), 0)
        assert np.allclose(v, np.array([1, 1]) / math.sqrt(2), atol=1e-12)

    def test_phase_pi(self):
        v = signal_state(make_config(1.0), 2)
        assert np.allclose(v, np.array([1, -1]) / math.sqrt(2), atol=1e-12)

    def test_skewed_state(self):
        v = signal_state(make_config(0.5), 1)
        assert np.allclose(v, [math.sqrt(2 / 3), 1j * math.sqrt(1 / 3)], atol=1e-12)

    def test_unit_norm(self):
        for kappa in (0.2, 0.7, 1.0):
            for x in range(4):
                assert np.linalg.norm(signal_state(make_config(kappa), x)) == pytest.approx(1.0)


class TestSourceState:
    def test_balanced_reduction(self):
        _, rho_a = source_state(make_config(1.0))
        assert np.allclose(rho_a, np.eye(2) / 2)

    def test_skewed_reduction(self):
        ket, rho_a = source_state(make_config(0.5))
        assert np.allclose(rho_a, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        assert np.linalg.norm(ket) == pytest.approx(1.0)

    def test_measuring_a_prepares_signals(self):
        # each sender outcome occurs with probability 1/4 and leaves the
        # matching signal state on the flying system
        for kappa in (0.5, 1.0):
            cfg = make_config(kappa)
            ket, _ = source_state(cfg)
            rho = np.outer(ket, ket.conj())
            for x, a_x in alice_povm(cfg).items():
                lam, vec = np.linalg.eigh(a_x)
                direction = vec[:, -1]
                cond = conditional_on_a(rho, direction)
                p = np.trace(a_x @ np.diag([cfg.xi, 1 - cfg.xi])).real
                assert p == pytest.approx(0.25, abs=1e-12)
                target = signal_state(cfg, x)
                cond /= np.trace(cond).real
                assert abs(target.conj() @ cond @ target) == pytest.approx(1.0, abs=1e-10)

    def test_balanced_statistics_match_bb84(self):
        cfg = make_config(1.0)
        ket, _ = source_state(cfg)
        rho = np.outer(ket, ket.conj())
        b = bob_povm(cfg)
        for x, a_x in alice_povm(cfg).items():
            for y in range(4):
                p = np.trace(np.kron(a_x, b.element(y)) @ rho).real
                if (x - y) % 4 == 0:
                    assert p == pytest.approx(1 / 16, abs=1e-12)
                elif (x - y) % 4 == 2:
                    assert p == pytest.approx(0.0, abs=1e-12)


class TestPovms:
    def test_alice_element_traces(self):
        a = alice_povm(make_config(0.8))
        for _, e in a.items():
            assert np.trace(e).real == pytest.approx(0.5)

    def test_alice_orthogonal_pair(self):
        a = alice_povm(make_config(1.0))
        assert abs(np.trace(a.element(0) @ a.element(2))) < 1e-12

    def test_completeness_many_kappas(self):
        rng = np.random.default_rng(7)
        for kappa in rng.uniform(0.05, 1.0, size=50):
            cfg = make_config(kappa)
            total_a = sum(e for _, e in alice_povm(cfg).items())
            assert np.allclose(total_a, np.eye(2), atol=1e-10)
            total_b = sum(e for _, e in bob_povm(cfg).items())
            assert np.allclose(total_b, np.eye(2), atol=1e-10)
            cfg_pbs = make_config(kappa, Variant.PBS)
            total_pbs = sum(e for _, e in bob_povm(cfg_pbs).items())
            assert np.allclose(total_pbs, np.eye(2), atol=1e-10)

    def test_unbalanced_outside_element(self):
        b = bob_povm(make_config(0.5))
        assert np.allclose(b.element("out"), np.diag([2 / 3, 1 / 3]), atol=1e-12)

    def test_balanced_split(self):
        b = bob_povm(make_config(1.0))
        middle = sum(b.element(y) for y in range(4))
        assert np.allclose(middle, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(b.element("out"), np.eye(2) / 2, atol=1e-12)

    def test_pbs_reduction_at_balanced_kappa(self):
        # at kappa=1 the unbalanced middle elements are half the PBS ones
        unb = bob_povm(make_config(1.0))
        pbs = bob_povm(make_config(1.0, Variant.PBS))
        for y in range(4):
            assert np.allclose(unb.element(y), 0.5 * pbs.element(y), atol=1e-12)


class TestSymmetryGroup:
    def test_g2_unitary(self):
        group = symmetry_group()
        assert np.allclose(group.unitaries[2], np.diag([1.0, -1.0]))

    def test_composition(self):
        group = symmetry_group()
        for g in range(4):
            for hh in range(4):
                prod = group.unitaries[g] @ group.unitaries[hh]
                assert np.allclose(prod, group.unitaries[(g + hh) % 4], atol=1e-12)

    def test_alice_permutation(self):
        group = symmetry_group()
        a = alice_povm(make_config(0.63))
        for g, u in enumerate(group.unitaries):
            for x in range(4):
                lhs = u.conj() @ a.element(x) @ u.T
                assert np.allclose(lhs, a.element((x + g) % 4), atol=1e-12)

    def test_bob_permutation_and_invariants(self):
        group = symmetry_group()
        for kappa in (0.3, 0.8, 1.0):
            cfg = make_config(kappa)
            b = bob_povm(cfg)
            _, rho_a = source_state(cfg)
            for g, u in enumerate(group.unitaries):
                for y in range(4):
                    lhs = u @ b.element(y) @ u.conj().T
                    assert np.allclose(lhs, b.element((y + g) % 4), atol=1e-12)
                assert np.allclose(u @ b.element("out") @ u.conj().T, b.element("out"), atol=1e-12)
                assert np.allclose(u.conj() @ rho_a @ u.T, rho_a, atol=1e-12)

    def test_announcement_action(self):
        group = symmetry_group()
        assert group.act_announcement(2, "even") == "even"
        assert group.act_announcement(1, "even") == "odd"
        assert group.act_announcement(3, "odd") == "even"


class TestFilters:
    def test_sender_filter_always_flat(self):
        for variant in Variant:
            pair = filters(make_config(0.4, variant))
            assert np.allclose(pair.f_a, np.eye(2) / math.sqrt(2))

    def test_balanced_receiver_filter(self):
        pair = filters(make_config(1.0))
        assert np.allclose(pair.f_b, np.eye(2) / 2, atol=1e-12)

    def test_skewed_receiver_filter(self):
        pair = filters(make_config(0.5))
        assert np.allclose(np.diag(pair.f_b).real, [0.4082, 0.5774], atol=1e-4)

    def test_filter_squares_to_basis_sum(self):
        for kappa in (0.3, 0.7, 1.0):
            cfg = make_config(kappa)
            b = bob_povm(cfg)
            pair = filters(cfg)
            assert np.allclose(pair.f_b @ pair.f_b, b.element(0) + b.element(2), atol=1e-12)
            a = alice_povm(cfg)
            assert np.allclose(pair.f_a @ pair.f_a, a.element(1) + a.element(3), atol=1e-12)

    def test_commutes_with_group(self):
        group = symmetry_group()
        for variant in Variant:
            pair = filters(make_config(0.37, variant))
            for u in group.unitaries:
                assert np.allclose(pair.f_b @ u - u @ pair.f_b, 0.0, atol=1e-12)
                assert np.allclose(pair.f_a @ u - u @ pair.f_a, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kappa", [1e-8, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_closed_form_weights_match_povm(self, variant, kappa):
        # 2 F_B^2 = 2 (B_0 + B_2) is diagonal; its diagonal is the closed form
        cfg = make_config(kappa, variant)
        b = bob_povm(cfg)
        basis_sum = 2.0 * (b.element(0) + b.element(2))
        assert np.abs(basis_sum - np.diag(np.diag(basis_sum))).max() <= 1e-15
        expected = tuple(np.diag(basis_sum).real)
        assert cfg.receiver.weights == pytest.approx(expected, rel=0.0, abs=1e-15)


class TestPostselectedPovms:
    def test_even_elements_are_rank_one_projectors(self):
        m_a, _ = postselected_povms(make_config(0.9), "even")
        assert m_a.labels == (0, 2)
        for _, e in m_a.items():
            assert np.trace(e).real == pytest.approx(1.0)
            assert np.linalg.matrix_rank(e, tol=1e-10) == 1

    def test_odd_receiver_labels(self):
        _, m_b = postselected_povms(make_config(0.4), "odd")
        assert m_b.labels == (1, 3)
        pbs = bob_povm(make_config(0.4, Variant.PBS))
        for y in (1, 3):
            assert np.allclose(m_b.element(y), 2.0 * pbs.element(y), atol=1e-12)

    def test_filtered_measurement_consistency(self):
        # measuring the filtered state with the renormalized POVM reproduces
        # the original middle-click statistics
        rng = np.random.default_rng(12)
        cfg = make_config(0.7)
        pair = filters(cfg)
        b = bob_povm(cfg)
        for _ in range(20):
            sigma = random_density(rng, 2)
            for u, ys in (("even", (0, 2)), ("odd", (1, 3))):
                _, m_b = postselected_povms(cfg, u)
                for y in ys:
                    lhs = np.trace(pair.f_b @ m_b.element(y) @ pair.f_b.conj().T @ sigma).real
                    rhs = np.trace(b.element(y) @ sigma).real
                    assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_postselected_sets_coincide_across_variants(self):
        for u in ("even", "odd"):
            m_unb = postselected_povms(make_config(1.0), u)
            m_pbs = postselected_povms(make_config(1.0, Variant.PBS), u)
            for a, b in zip(m_unb[0].elements, m_pbs[0].elements):
                assert np.allclose(a, b, atol=1e-14)
            for a, b in zip(m_unb[1].elements, m_pbs[1].elements):
                assert np.allclose(a, b, atol=1e-14)
