"""Measurement statistics, postselection map, Holevo quantities, symmetrization.

The postselection keeps matching-basis events via the filter map
F[rho] = (F_A (x) F_B) rho (F_A (x) F_B)^dag / p_tilde.  Because the filters
are identical for even and odd announcements, both announcement branches
produce the same normalized state with equal weight, so one kept weight
and one sifted state describe both.

The Holevo quantity is always computed on the joint A-B state: for rank-one
sender elements, chi = S(rho_AB) - sum_x p(x) S(rho_B^x).  Conditional
states are formed by the partial inner product <alpha|rho|alpha> on system A
(numerically stable; no pseudo-inverses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import ANNOUNCEMENTS, ProtocolConfig, filters, postselected_povms, symmetry_group
from .qmath import is_hermitian, kron, von_neumann_entropy

__all__ = [
    "DegeneratePostselectionError",
    "SiftStats",
    "SymmetricState",
    "conditional_on_a",
    "error_rate_Q",
    "holevo_ab",
    "joint_probability",
    "overall_holevo",
    "re_f_from_Q",
    "sift",
    "symmetrize",
]


class DegeneratePostselectionError(ValueError):
    """Raised when the kept weight of the postselection vanishes."""


@dataclass(frozen=True)
class SiftStats:
    """Kept weight of one announcement, total kept weight and sifted state.

    Each announcement occurs with probability 1/2 and keeps weight
    ``p_tilde``, so ``p_kept = 2 p_tilde``; ``rho`` is the normalized
    postselected state shared by both.
    """

    p_tilde: float
    p_kept: float
    rho: np.ndarray


@dataclass(frozen=True)
class SymmetricState:
    """Group-averaged attack state: diag(a, b, c, d) plus corner coherence f.

    The carried 4x4 matrix lives in the basis {|00>, |01>, |10>, |11>} with
    f at entry (3, 0) and its conjugate at (0, 3).
    """

    a: float
    b: float
    c: float
    d: float
    f: complex

    def __post_init__(self):
        for name in "abcd":
            if getattr(self, name) < -1e-10:
                raise ValueError(f"parameter {name} is negative")
        if abs(self.a + self.b + self.c + self.d - 1.0) > 1e-10:
            raise ValueError("trace condition a+b+c+d = 1 violated")
        if abs(self.f) ** 2 > self.a * self.d + 1e-12:
            raise ValueError("corner block not PSD: |f|^2 > a*d")

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.b, self.c, self.d
        m[3, 0] = self.f
        m[0, 3] = np.conj(self.f)
        return m


def joint_probability(rho_ab: np.ndarray, a_x: np.ndarray, b_y: np.ndarray) -> float:
    """p = tr{(A_x (x) B_y) rho_AB}."""
    return float(np.trace(kron(a_x, b_y) @ rho_ab).real)


def sift(rho_ab: np.ndarray, cfg: ProtocolConfig) -> SiftStats:
    """Apply the announcement filter map to ``rho_ab``.

    Equal filters on both announcements force equal kept weights and
    identical postselected states, so one filter serves both.
    """
    pair = filters(cfg)
    g = kron(pair.f_a, pair.f_b)
    filtered = g @ np.asarray(rho_ab, dtype=complex) @ g.conj().T
    p_tilde = float(np.trace(filtered).real)
    if p_tilde < 1e-15:
        raise DegeneratePostselectionError("postselection kept weight vanished")
    return SiftStats(p_tilde=p_tilde, p_kept=2.0 * p_tilde, rho=filtered / p_tilde)


def conditional_on_a(rho_ab: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Partial inner product <alpha| rho_AB |alpha> on system A (2x2 on B)."""
    r = np.asarray(rho_ab, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("a,abcd,c->bd", alpha.conj(), r, alpha)


def _rank_one_direction(element: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(element)
    if lam[-1] <= 1e-12:
        raise ValueError("POVM element is zero")
    if lam[0] > 1e-9 * lam[-1]:
        raise ValueError("Holevo evaluation requires rank-one sender elements")
    return vec[:, -1]


def holevo_ab(rho_ab: np.ndarray, povm_a) -> float:
    """chi = S(rho_AB) - sum_x p(x) S(rho_B^x) for rank-one sender elements.

    ``povm_a`` may be a Povm or any iterable of 2x2 rank-one operators; the
    state must be a normalized density matrix on the 2 (x) 2 space.
    Outcomes with p(x) below 1e-15 contribute zero.
    """
    elements = list(povm_a.elements) if hasattr(povm_a, "elements") else list(povm_a)
    rho_ab = np.asarray(rho_ab, dtype=complex)
    if not is_hermitian(rho_ab, atol=1e-9):
        raise ValueError("state is not Hermitian")
    chi = von_neumann_entropy(rho_ab)
    for e in elements:
        alpha = _rank_one_direction(np.asarray(e, dtype=complex))
        cond = conditional_on_a(rho_ab, alpha)
        weight = float(np.trace(e).real)
        p_x = float(np.trace(cond).real) * weight
        if p_x < 1e-15:
            continue
        chi -= weight * von_neumann_entropy(cond, scaled=True)
    return chi


def overall_holevo(rho_ab: np.ndarray, cfg: ProtocolConfig) -> float:
    """Announcement-averaged postselected Holevo quantity chi-bar.

    chi_bar = sum_u p(u) chi(F^u[rho], M_A^u) with p(u) = 1/2.  All branches
    share one sifted state, so chi_bar is the Holevo quantity of that state
    for the half-weighted union of both announcements' sender POVMs.
    """
    m_a = [0.5 * e for u in ANNOUNCEMENTS for e in postselected_povms(cfg, u)[0].elements]
    return holevo_ab(sift(rho_ab, cfg).rho, m_a)


def symmetrize(rho_ab: np.ndarray) -> SymmetricState:
    """Group-average (1/4) sum_g (U_g* (x) U_g) rho (U_g^T (x) U_g^dag).

    The average lands exactly on the sparse symmetric pattern; residual
    off-pattern entries are checked to be below 1e-12 and dropped.
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    group = symmetry_group()
    acc = np.zeros((4, 4), dtype=complex)
    for u in group.unitaries:
        g4 = kron(u.conj(), u)
        acc += g4 @ rho_ab @ g4.conj().T
    acc /= group.order
    pattern = np.zeros((4, 4), dtype=bool)
    pattern[np.diag_indices(4)] = True
    pattern[0, 3] = pattern[3, 0] = True
    if np.abs(acc[~pattern]).max() > 1e-12:
        raise ValueError("symmetrized state has off-pattern entries")
    return SymmetricState(
        a=float(acc[0, 0].real),
        b=float(acc[1, 1].real),
        c=float(acc[2, 2].real),
        d=float(acc[3, 3].real),
        f=complex(acc[3, 0]),
    )


def re_f_from_Q(a, b, c, d, q, xi):
    """The error-rate relation: Re[f] of a symmetric state with error rate Q.

    Re[f] = 2 p_tilde (1 - 2Q) / sqrt(xi(1-xi)) with the kept weight
    p_tilde = ((1-xi)(a+c) + xi(b+d)) / 4, elementwise on arrays; for a
    normalized state and 1/2 <= xi < 1, p_tilde >= (1-xi)/4 > 0.  The
    optimizer calls this once per objective evaluation and ``error_rate_Q``
    inverts it.  A result with |Re f| > sqrt(a d) signals an infeasible
    point; callers treat it as a constraint violation, not an exception.
    """
    p_tilde = ((1.0 - xi) * (a + c) + xi * (b + d)) / 4.0
    return 2.0 * p_tilde * (1.0 - 2.0 * q) / math.sqrt(xi * (1.0 - xi))


def error_rate_Q(s: SymmetricState, cfg: ProtocolConfig):
    """Average matching-basis error rate of a symmetric state.

    Returns (Q, p_tilde), read off ``re_f_from_Q``, which is affine in Q:
    with r0 = Re f at Q = 0, Q = (1 - Re[f] / r0) / 2 and
    p_tilde = r0 sqrt(xi(1-xi)) / 2.  This closed form equals the
    error-outcome sum of the skewed middle-click statistics; it is the
    coarse-grained estimator used for parameter estimation by every variant
    (the hardware fixes evaluate it at their balanced xi).
    """
    xi = cfg.xi_effective
    r0 = re_f_from_Q(s.a, s.b, s.c, s.d, 0.0, xi)
    p_tilde = 0.5 * r0 * math.sqrt(xi * (1.0 - xi))
    if p_tilde < 1e-15:
        raise DegeneratePostselectionError("kept weight vanished in error-rate evaluation")
    return 0.5 * (1.0 - s.f.real / r0), p_tilde
