import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from reference import eig_hermitian, kron, partial_trace, symmetry_group, von_neumann_entropy
from ubb84.qmath import binary_entropy, entropy_term


class TestEigHermitian:
    def test_identity(self):
        assert eig_hermitian(np.eye(2)) == pytest.approx([1.0, 1.0])

    def test_diagonal(self):
        assert eig_hermitian(np.diag([0.25, 0.75])) == pytest.approx([0.25, 0.75])

    def test_pauli_x(self):
        assert eig_hermitian(np.array([[0, 1], [1, 0]])) == pytest.approx([-1.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            eig_hermitian(np.eye(9))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_eigenvalue_sum_is_trace(self, seed):
        rho = random_density(np.random.default_rng(seed))
        assert abs(eig_hermitian(rho).sum() - np.trace(rho).real) < 1e-10

    def test_unitary_invariance_under_group(self):
        rng = np.random.default_rng(5)
        group = symmetry_group()
        for _ in range(10):
            m = random_density(rng, dim=2)
            base = eig_hermitian(m)
            for u in group.unitaries:
                rotated = eig_hermitian(u @ m @ u.conj().T)
                assert np.allclose(rotated, base, atol=1e-9)


class TestEntropy:
    def test_pure_state(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert von_neumann_entropy(np.outer(v, v)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_binary_entropy_diagonal(self):
        assert von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(0.8113, abs=1e-4)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            von_neumann_entropy(np.diag([1.1, -0.1]))

    def test_rejects_wrong_trace_unless_scaled(self):
        with pytest.raises(ValueError, match="trace"):
            von_neumann_entropy(np.diag([0.25, 0.25]))
        assert von_neumann_entropy(np.diag([0.25, 0.25]), scaled=True) == pytest.approx(0.5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_additive_on_products(self, seed):
        rng = np.random.default_rng(seed)
        rho, sig = random_density(rng, 2), random_density(rng, 2)
        lhs = von_neumann_entropy(kron(rho, sig))
        assert abs(lhs - von_neumann_entropy(rho) - von_neumann_entropy(sig)) < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_transpose_invariance(self, seed):
        rho = random_density(np.random.default_rng(seed))
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rho.T)) < 1e-9


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetric_point(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        assert binary_entropy(0.05) == pytest.approx(0.2864, abs=1e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.2)
        with pytest.raises(ValueError):
            binary_entropy(1.2)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_bounds_and_symmetry(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0 + 1e-12
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)
        assert h == entropy_term(p) + entropy_term(1.0 - p)

    def test_floor_below_1e_18(self):
        # the solver's entropy term floors at 1e-18, and h shares it
        assert binary_entropy(1e-20) == 0.0


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(2)
        rho, sig = random_density(rng, 2), random_density(rng, 2)
        assert np.allclose(partial_trace(kron(rho, sig), "A"), rho, atol=1e-12)
        assert np.allclose(partial_trace(kron(rho, sig), "B"), sig, atol=1e-12)

    def test_source_state_reduction(self):
        # |Phi> with xi = 2/3 traces to diag(2/3, 1/3) on A
        xi = 2.0 / 3.0
        ket = np.array([np.sqrt(xi), 0, 0, np.sqrt(1 - xi)])
        rho_a = partial_trace(np.outer(ket, ket), "A")
        assert np.allclose(rho_a, np.diag([xi, 1 - xi]), atol=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(partial_trace(np.eye(4) / 4, "B"), np.eye(2) / 2, atol=1e-12)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(2), "A")

    def test_trace_preserving_and_linear(self):
        rng = np.random.default_rng(3)
        x, y = random_density(rng), random_density(rng)
        mix = 0.3 * x + 0.7 * y
        assert np.trace(partial_trace(mix, "A")).real == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(
            partial_trace(mix, "B"),
            0.3 * partial_trace(x, "B") + 0.7 * partial_trace(y, "B"),
            atol=1e-12,
        )


class TestKron:
    def test_identities(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b), abs=1e-12)

    def test_partial_trace_roundtrip(self):
        rng = np.random.default_rng(4)
        a, b = random_density(rng, 2), random_density(rng, 2)
        prod = kron(2.0 * a, b)  # partner trace 1 and 2
        assert np.allclose(partial_trace(prod, "A"), 2.0 * a, atol=1e-12)
        assert np.allclose(partial_trace(prod, "B"), 2.0 * b, atol=1e-12)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            kron(np.eye(4), np.eye(4))
