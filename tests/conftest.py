"""Shared helpers: seeded random states and the purification test oracle."""

from __future__ import annotations

import numpy as np

from reference import alice_povm, bob_povm, sift, source_state
from ubb84.protocol import Variant, make_config


def random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Ginibre-induced random density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def every_variant(kappa: float):
    """The configs of all four variants at one kappa, in the order compare scans them."""
    return [make_config(kappa, v) for v in Variant]


def signal_kept_weight(cfg) -> float:
    """Share p_kept of sent signals that survive sifting, per config.

    Evaluated on the noiseless source-replacement state |Phi>; for the
    unbalanced protocol it is xi(1-xi), which carries the modulator's loss.
    A qubit rate per postselected signal times p_kept is the key per signal
    sent, the quantity that is monotone in kappa.
    """
    ket, _ = source_state(cfg)
    return sift(np.outer(ket, ket.conj()), cfg).p_kept


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(m)
    return (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T


def announcement_filters(cfg):
    """Even and odd filters sqrt(A_x + A_x') (x) sqrt(B_x + B_x'), x' = x + 2.

    Built straight from the sender and receiver POVMs, independently of
    ``reference.filters``: (0, 2) for the even announcement, (1, 3) for odd.
    """
    a, b = alice_povm(cfg), bob_povm(cfg)
    return [np.kron(_psd_sqrt(a.element(x) + a.element(x + 2)),
                    _psd_sqrt(b.element(x) + b.element(x + 2))) for x in (0, 1)]


def entropy_bits(mat: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(mat)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum())


def holevo_via_purification(rho_ab: np.ndarray, povm_a_elements) -> float:
    """Eve-side Holevo quantity chi = S(rho_E) - sum_x p(x) S(rho_E^x).

    Constructs an explicit purification |psi> = sum_i sqrt(lam_i)|e_i>|i>_E
    of the joint state and computes Eve's conditional states directly; this
    is the independent oracle for the joint-state route used in production.
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    lam, vecs = np.linalg.eigh(rho_ab)
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    chi = float(-(lam[lam > 1e-15] * np.log2(lam[lam > 1e-15])).sum())
    for e in povm_a_elements:
        a_full = np.kron(np.asarray(e, dtype=complex), np.eye(2))
        m = vecs.conj().T @ a_full @ vecs  # [j, i] = <e_j| A |e_i>
        rho_ex = np.sqrt(np.outer(lam, lam)) * m.T
        p = float(np.trace(rho_ex).real)
        if p > 1e-15:
            chi -= p * entropy_bits(rho_ex / p)
    return chi
