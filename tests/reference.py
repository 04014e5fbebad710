"""Reference check paths that only the tests use.

The package computes every rate from the closed forms in ``ubb84.attack``,
which work in sifted coordinates.  This module holds the independent routes
the tests hold those closed forms to:

* a small Hermitian-matrix toolkit (eigenvalues, von Neumann entropy,
  partial trace, Kronecker product) for 2x2 and 4x4 operators;
* the protocol objects: signal and source states, the sender and receiver
  POVMs, the unbalanced receiver's one-photon linear optics and its
  squashed n-photon POVM, the four-element symmetry group, the sifting
  filters and the postselected POVMs;
* the matrix route: the filter map on 4x4 states, the Holevo quantities
  chi and chi-bar, group averaging and the error rate read back from a
  symmetric state;
* the raw state's side of the solver's coordinates: the error-rate
  relation ``re_f_from_Q`` on (a, b, c, d) and ``sifted``, the map from a
  raw state to the sifted point that ``chi_bar_of_params`` takes;
* predicates on package objects that only the tests ask for (the 4x4
  matrix of a ``SymmetricState``, the constraint violation of a point, the
  receiver's middle-click fraction);
* ``grid_oracle``, an exhaustive, feasibility-filtered grid search for the
  maximum of chi-bar.  It evaluates chi-bar through explicit sifted
  matrices and batched eigendecompositions, a code path independent of the
  scalar closed form ``ubb84.attack.chi_bar_of_params`` that the solver
  uses, so the tests hold the solver to it: the solver must reach at least
  the grid's best value.

All entropies and logarithms are base 2 (bits).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ubb84.attack import ConstraintSet, InfeasibleError
from ubb84.protocol import ProtocolConfig, Receiver, Variant
from ubb84.sifting import SymmetricState
from ubb84.squash import ClickPattern, EffectiveOutcome, squash_distribution

# ---------------------------------------------------------------------------
# Hermitian-matrix toolkit

HERMITIAN_ATOL = 1e-12
MAX_DIM = 8

# Eigenvalues in [_EIG_CLAMP, 0] are treated as numerical PSD noise and
# clamped to zero before logarithms; anything below is non-physical.
_EIG_CLAMP = -1e-8


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    """True if ``m`` is square and equals its conjugate transpose within atol."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.allclose(m, m.conj().T, rtol=0.0, atol=atol))


def eig_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Rejects non-Hermitian input (entrywise deviation beyond 1e-12) and
    dimensions above 8.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds the supported maximum {MAX_DIM}")
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance 1e-12")
    return np.linalg.eigvalsh(m)


def von_neumann_entropy(rho: np.ndarray, scaled: bool = False) -> float:
    """Von Neumann entropy S(rho) = -sum(lam * log2(lam)) in bits.

    By default ``rho`` must have unit trace.  With ``scaled=True`` the input
    may have any trace t > 0 and t * S(rho / t) is returned, which is the
    form needed for probability-weighted conditional entropies.
    """
    lam = eig_hermitian(rho)
    if lam[0] < _EIG_CLAMP:
        raise ValueError(f"matrix is not PSD: eigenvalue {lam[0]:.3e} below {_EIG_CLAMP}")
    lam = np.clip(lam, 0.0, None)
    t = float(lam.sum())
    if scaled:
        if t <= 0.0:
            raise ValueError("scaled entropy requires positive trace")
    elif abs(t - 1.0) > 1e-8:
        raise ValueError(f"expected unit trace, got {t!r} (use scaled=True for subnormalized input)")
    p = lam / t
    p = p[p > 0.0]
    return float(t * -(p * np.log2(p)).sum())


def partial_trace(rho_ab: np.ndarray, keep: str) -> np.ndarray:
    """Partial trace of a 4x4 operator on a 2 (x) 2 space.

    ``keep`` is "A" or "B"; the basis ordering is {|00>, |01>, |10>, |11>}.
    """
    rho_ab = np.asarray(rho_ab, dtype=complex)
    if rho_ab.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho_ab.shape}")
    r = rho_ab.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, limited to results of dimension <= 8."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[0] * b.shape[0] > MAX_DIM:
        raise ValueError("kron result would exceed the supported dimension 8")
    return np.kron(a, b)


# ---------------------------------------------------------------------------
# protocol objects

ANNOUNCEMENTS = ("even", "odd")


@dataclass(frozen=True)
class Povm:
    """A labeled list of positive operators summing to the identity."""

    labels: tuple
    elements: tuple

    def __post_init__(self):
        dim = self.elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for label, e in zip(self.labels, self.elements):
            if not is_hermitian(e, atol=1e-10):
                raise ValueError(f"POVM element {label!r} is not Hermitian")
            if np.linalg.eigvalsh(e)[0] < -1e-10:
                raise ValueError(f"POVM element {label!r} is not PSD")
            total += e
        if not np.allclose(total, np.eye(dim), atol=1e-10):
            raise ValueError("POVM elements do not sum to the identity")

    def element(self, label) -> np.ndarray:
        return self.elements[self.labels.index(label)]

    def items(self):
        return zip(self.labels, self.elements)


@dataclass(frozen=True)
class FilterPair:
    """Sifting filter operators; identical for even and odd announcements."""

    f_a: np.ndarray
    f_b: np.ndarray


@dataclass(frozen=True)
class SymmetryGroup:
    """The cyclic four-element symmetry of the signal set.

    ``unitaries[g] = diag(1, exp(i g pi/2))``.  The group permutes outcome
    labels by ``x -> x + g mod 4`` and flips the basis announcement when g
    is odd.
    """

    unitaries: tuple

    @property
    def order(self) -> int:
        return 4

    def act_announcement(self, g: int, u: str) -> str:
        if u not in ANNOUNCEMENTS:
            raise ValueError(f"unknown announcement {u!r}")
        if g % 2 == 0:
            return u
        return "odd" if u == "even" else "even"


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def signal_state(cfg: ProtocolConfig, x: int) -> np.ndarray:
    """Signal ket sqrt(xi)|0> + sqrt(1-xi) e^{i pi x/2} |1> for x in 0..3."""
    if x not in (0, 1, 2, 3):
        raise ValueError(f"signal index must be in 0..3, got {x!r}")
    xi = cfg.receiver.xi_effective
    return np.array([math.sqrt(xi), math.sqrt(1.0 - xi) * np.exp(1j * math.pi * x / 2)])


def source_state(cfg: ProtocolConfig):
    """Source-replacement state |Phi> = sqrt(xi)|00> + sqrt(1-xi)|11>.

    Returns the ket on A (x) S and the fixed reduced state
    rho_A = diag(xi, 1-xi).
    """
    xi = cfg.receiver.xi_effective
    ket = np.zeros(4, dtype=complex)
    ket[0] = math.sqrt(xi)
    ket[3] = math.sqrt(1.0 - xi)
    rho_a = np.diag([xi, 1.0 - xi]).astype(complex)
    return ket, rho_a


def alice_povm(cfg: ProtocolConfig) -> Povm:
    """Sender POVM {A_x}: half-weight BB84 projectors, independent of xi."""
    elements = []
    for x in range(4):
        v = np.array([1.0, np.exp(-1j * math.pi * x / 2)]) / math.sqrt(2.0)
        elements.append(0.5 * _projector(v))
    return Povm(labels=(0, 1, 2, 3), elements=tuple(elements))


def bob_povm(cfg: ProtocolConfig) -> Povm:
    """Receiver POVM for the variant.

    Unbalanced: four quarter-weight middle-click elements on the skewed
    directions plus the outside-click element diag(xi, 1-xi).  All other
    variants: four half-weight balanced BB84 elements.
    """
    if cfg.variant is Variant.UNBALANCED:
        xi = cfg.xi
        elements = []
        for y in range(4):
            v = np.array([math.sqrt(1.0 - xi), math.sqrt(xi) * np.exp(1j * math.pi * y / 2)])
            elements.append(0.25 * _projector(v))
        out = np.diag([xi, 1.0 - xi]).astype(complex)
        return Povm(labels=(0, 1, 2, 3, "out"), elements=(*elements, out))
    elements = []
    for y in range(4):
        v = np.array([1.0, np.exp(1j * math.pi * y / 2)]) / math.sqrt(2.0)
        elements.append(0.5 * _projector(v))
    return Povm(labels=(0, 1, 2, 3), elements=tuple(elements))


def receiver_amplitudes(kappa: float, basis: str) -> np.ndarray:
    """One-photon amplitude map of the unbalanced receiver in one basis.

    A photon arrives in the early (column 0) or late (column 1) time mode.
    A 50/50 splitter sends it into a short arm, which keeps its time slot,
    or a long arm of amplitude sqrt(kappa) e^{i theta}, one slot later, with
    theta = 0 in the even basis and pi/2 in the odd one; the long arm's loss
    mode takes the rest.  A 50/50 combiner maps (short, long) onto detectors
    c and d.  The 8 rows are c in slots 0, 1 and 2, d in slots 0, 1 and 2,
    and the loss modes of the early and late photon.
    """
    theta = {"even": 0.0, "odd": math.pi / 2}[basis]
    combiner = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)  # (short, long) -> (c, d)
    arms = np.zeros((2, 3, 2), dtype=complex)  # (arm, slot, input mode) amplitudes
    for mode in (0, 1):
        arms[0, mode, mode] = 1.0 / math.sqrt(2.0)
        arms[1, mode + 1, mode] = math.sqrt(kappa) * np.exp(1j * theta) / math.sqrt(2.0)
    detected = np.einsum("da,ati->dti", combiner, arms).reshape(6, 2)
    loss = math.sqrt(1.0 - kappa) / math.sqrt(2.0) * np.eye(2)  # the long arm's loss port
    return np.vstack([detected, loss])


def unbalanced_receiver_optics(kappa: float) -> Povm:
    """One-photon POVM of the unbalanced receiver, from its linear optics.

    Bob picks each basis of ``receiver_amplitudes`` with probability 1/2.
    Labels follow the squash table: the middle slot's even c, odd c, even d
    and odd d clicks are 0..3, both detectors' outside slots (0 and 2) are
    "out", and the loss modes are "none".
    """
    sums = {label: np.zeros((2, 2), dtype=complex) for label in (0, 1, 2, 3, "out", "none")}
    for parity, basis in enumerate(("even", "odd")):
        amplitudes = receiver_amplitudes(kappa, basis)
        rows = {parity: amplitudes[[1]], parity + 2: amplitudes[[4]],
                "out": amplitudes[[0, 2, 3, 5]], "none": amplitudes[6:]}
        for label, block in rows.items():
            sums[label] += sum(0.5 * np.outer(a.conj(), a) for a in block)
    return Povm(labels=tuple(sums), elements=tuple(sums.values()))


def squashed_receiver_povm(kappa: float, n: int) -> Povm:
    """The unbalanced receiver's n-photon POVM after the squash table.

    n photons in the early and late modes span the symmetric subspace, with
    basis |k late photons>, k = 0..n, embedded by the isometry P_sym.  Each
    photon passes the amplitude map A of ``receiver_amplitudes``, and
    threshold detectors report the set S of detector modes that any photon
    reached.  With V = (A (x) ... (x) A) P_sym, n factors, S has the element
    V^dagger Pi_S V, Pi_S the projector onto the output configurations that
    fire exactly S.  ``ubb84.squash.squash_distribution`` maps each
    (S, basis) onto the effective outcomes, each basis at 1/2.  Labels are
    those of ``unbalanced_receiver_optics``; at n = 3 it sums 8^3 = 512
    configurations.
    """
    sym = np.zeros((2 ** n, n + 1))
    for index in range(2 ** n):
        late = bin(index).count("1")
        sym[index, late] = 1.0 / math.sqrt(math.comb(n, late))
    labels = dict(zip(EffectiveOutcome, (0, 1, 2, 3, "out", "none")))
    sums = {label: np.zeros((n + 1, n + 1), dtype=complex) for label in labels.values()}
    for basis in ("even", "odd"):
        # one row per output configuration, the first photon's mode most significant
        v = functools.reduce(np.kron, [receiver_amplitudes(kappa, basis)] * n) @ sym
        for modes, row in zip(itertools.product(range(8), repeat=n), v):
            fired = ClickPattern(*(mode in modes for mode in range(6)), basis=basis)
            for outcome, p in squash_distribution(fired).items():
                sums[labels[outcome]] += 0.5 * p * np.outer(row.conj(), row)
    return Povm(labels=tuple(sums), elements=tuple(sums.values()))


def symmetry_group() -> SymmetryGroup:
    """The four diagonal unitaries diag(1, e^{i g pi/2}) with their actions."""
    us = tuple(np.diag([1.0, np.exp(1j * math.pi * g / 2)]) for g in range(4))
    return SymmetryGroup(unitaries=us)


def filters(cfg: ProtocolConfig) -> FilterPair:
    """Sifting filters F = sqrt(sum of same-basis POVM elements).

    The sender filter is 1/sqrt(2) times the identity for every variant.
    The unbalanced receiver filter carries the xi skew; the PBS protocol and
    the hardware fixes have the identity filter 1/sqrt(2).
    """
    f_a = np.eye(2, dtype=complex) / math.sqrt(2.0)
    if cfg.variant is Variant.UNBALANCED:
        xi = cfg.xi
        f_b = np.diag([math.sqrt(1.0 - xi), math.sqrt(xi)]).astype(complex) / math.sqrt(2.0)
    else:
        f_b = np.eye(2, dtype=complex) / math.sqrt(2.0)
    return FilterPair(f_a=f_a, f_b=f_b)


def postselected_povms(cfg: ProtocolConfig, u: str):
    """Renormalized POVMs conditioned on the matching announcement ``u``.

    The filter pseudo-inverses reduce to a plain factor 2 on the same-basis
    elements: M_A^even = {2A_0, 2A_2}, M_A^odd = {2A_1, 2A_3}, and the
    receiver side is built from the balanced elements, M_B^u = {2B'_y} for
    the matching parity y, for every variant.
    """
    if u not in ANNOUNCEMENTS:
        raise ValueError(f"announcement must be 'even' or 'odd', got {u!r}")
    ys = (0, 2) if u == "even" else (1, 3)
    a = alice_povm(cfg)
    m_a = Povm(labels=ys, elements=tuple(2.0 * a.element(y) for y in ys))
    elements = []
    for y in ys:
        v = np.array([1.0, np.exp(1j * math.pi * y / 2)]) / math.sqrt(2.0)
        elements.append(_projector(v))
    m_b = Povm(labels=ys, elements=tuple(elements))
    return m_a, m_b


# ---------------------------------------------------------------------------
# the matrix route: postselection map, Holevo quantities, symmetrization
#
# The Holevo quantity is always computed on the joint A-B state: for
# rank-one sender elements, chi = S(rho_AB) - sum_x p(x) S(rho_B^x).
# Conditional states are formed by the partial inner product
# <alpha|rho|alpha> on system A (numerically stable; no pseudo-inverses).


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


def state_matrix(s: SymmetricState) -> np.ndarray:
    """The 4x4 matrix of a symmetric state: f at (3, 0), its conjugate at (0, 3)."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = s.a, s.b, s.c, s.d
    m[3, 0] = s.f
    m[0, 3] = np.conj(s.f)
    return m


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
    normalized state and 1/2 <= xi < 1, p_tilde >= (1-xi)/4 > 0.  It is
    affine in Q, and ``error_rate_Q`` inverts it.  A result with
    |Re f| > sqrt(a d) signals an infeasible point.
    """
    p_tilde = ((1.0 - xi) * (a + c) + xi * (b + d)) / 4.0
    return 2.0 * p_tilde * (1.0 - 2.0 * q) / math.sqrt(xi * (1.0 - xi))


def sifted(cfg: ProtocolConfig, a, b, c, d, f):
    """The sifted point (alpha, beta, gamma, delta, phi) of a raw symmetric state.

    Diagonal (w0 a, w1 b, w0 c, w1 d)/T and corner sqrt(w0 w1) f / T, where
    (w0, w1) are the filter weights and T normalizes the trace.
    """
    w0, w1 = cfg.receiver.weights
    t = w0 * (a + c) + w1 * (b + d)
    return w0 * a / t, w1 * b / t, w0 * c / t, w1 * d / t, math.sqrt(w0 * w1) * complex(f) / t


def error_rate_Q(s: SymmetricState, cfg: ProtocolConfig):
    """Average matching-basis error rate of a symmetric state.

    Returns (Q, p_tilde), read off ``re_f_from_Q``, which is affine in Q:
    with r0 = Re f at Q = 0, Q = (1 - Re[f] / r0) / 2 and
    p_tilde = r0 sqrt(xi(1-xi)) / 2.  This closed form equals the
    error-outcome sum of the skewed middle-click statistics; it is the
    coarse-grained estimator used for parameter estimation by every variant
    (the hardware fixes evaluate it at their balanced xi).
    """
    xi = cfg.receiver.xi_effective
    r0 = re_f_from_Q(s.a, s.b, s.c, s.d, 0.0, xi)
    p_tilde = 0.5 * r0 * math.sqrt(xi * (1.0 - xi))
    if p_tilde < 1e-15:
        raise DegeneratePostselectionError("kept weight vanished in error-rate evaluation")
    return 0.5 * (1.0 - s.f.real / r0), p_tilde


# ---------------------------------------------------------------------------
# predicates on package objects


def violation(cs: ConstraintSet, a, b, c, d, f) -> float:
    """Total constraint violation of a point (0 on the feasible set)."""
    v = max(0.0, abs(f) ** 2 - a * d)
    v += sum(max(0.0, -x) for x in (a, b, c, d))
    v += abs(a + b + c + d - 1.0)
    lo, hi = cs.s_bounds()
    s = a + b
    v += max(0.0, lo - s) + max(0.0, s - hi)
    return v


def is_feasible(cs: ConstraintSet, a, b, c, d, f, tol=1e-8) -> bool:
    return violation(cs, a, b, c, d, f) <= tol


def middle_fraction(receiver: Receiver) -> float:
    """Share of the photons reaching a detector that land in a kept slot."""
    return receiver.kept / receiver.survival


# ---------------------------------------------------------------------------
# grid oracle

PSD_TOL = 1e-12  # the corner-condition slack that SymmetricState also allows


def _chi_bar_batch(cfg: ProtocolConfig, a, b, c, d, f):
    """chi-bar for stacked parameter arrays via explicit sifted matrices.

    Independent check path for the optimizer: builds the normalized sifted
    states, takes batched eigendecompositions of their corner blocks for
    S(sigma), and forms every postselected conditional state through the
    partial inner products with the sender directions.
    """
    w0, w1 = cfg.receiver.weights
    t = w0 * (a + c) + w1 * (b + d)
    n = a.shape[0]
    sig = np.zeros((n, 4, 4), dtype=complex)
    sig[:, 0, 0] = w0 * a / t
    sig[:, 1, 1] = w1 * b / t
    sig[:, 2, 2] = w0 * c / t
    sig[:, 3, 3] = w1 * d / t
    corner = math.sqrt(w0 * w1) * f / t
    sig[:, 3, 0] = corner
    sig[:, 0, 3] = np.conj(corner)

    def batch_entropy(lam):
        lam = np.clip(lam, 0.0, None)
        mask = lam > 0.0
        return -np.sum(np.where(mask, lam * np.log2(np.where(mask, lam, 1.0)), 0.0), axis=-1)

    # sigma is diagonal outside its (|00>, |11>) block, so its spectrum is that
    # block's eigenvalues and the two middle diagonal entries; a diagonal phase
    # makes the block's corner real, |phi|
    block = np.empty((n, 2, 2))
    block[:, 0, 0], block[:, 1, 1] = sig[:, 0, 0].real, sig[:, 3, 3].real
    block[:, 0, 1] = block[:, 1, 0] = np.abs(sig[:, 3, 0])
    chi = batch_entropy(np.concatenate([np.linalg.eigvalsh(block), sig[:, [1, 2], [1, 2]].real],
                                       axis=1))
    sig_r = sig.reshape(n, 2, 2, 2, 2)
    for x in range(4):
        v = np.array([1.0, np.exp(-1j * math.pi * x / 2)]) / math.sqrt(2.0)
        # <v|_A sigma |v>_A, summed term by term over the sender indices
        cond = sum(v[i].conjugate() * v[j] * sig_r[:, i, :, j, :] for i in range(2) for j in range(2))
        p_x = (cond[:, 0, 0] + cond[:, 1, 1]).real
        # eigenvalues of each Hermitian 2x2: (trace +- sqrt(diff^2 + 4|off|^2)) / 2
        spread = np.sqrt((cond[:, 0, 0] - cond[:, 1, 1]).real ** 2 + 4.0 * np.abs(cond[:, 0, 1]) ** 2)
        lam = np.clip(0.5 * np.stack([p_x - spread, p_x + spread], axis=1), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = lam / p_x[:, None]
            terms = np.where(lam > 0.0, lam * np.log2(np.where(ratio > 0.0, ratio, 1.0)), 0.0)
        # sum over u of p(u) chi_u folds into a single half-weighted x-sum
        chi += 0.5 * terms.sum(axis=1)
    return chi


def _b_interval(s: float, c, im, cs: ConstraintSet):
    """Feasible range of b at fixed (s, c, Im f), as arrays (lo, hi).

    With a = s-b and d = 1-s-c fixed, Re f = K (A0 + e b), where
    K = (1-2Q) / (2 sqrt(xi(1-xi))), A0 = (1-xi)(s+c) + xi d and
    e = 2 xi - 1, so |f|^2 <= a d reads A b^2 + B b + C <= 0 with
    A = K^2 e^2, B = 2 K^2 A0 e + d and C = K^2 A0^2 + Im f^2 - s d.
    A >= 0 makes the feasible b a single interval; at xi = 1/2 (A = 0) the
    condition is linear in b.  a d is relaxed by the relative slack
    ``PSD_TOL`` so that a feasible set shrunk to a point (Q = 0) keeps its
    b despite rounding.  Rows with no feasible b come back with lo > hi.
    """
    xi = cs.xi
    k = (1.0 - 2.0 * cs.q) / (2.0 * math.sqrt(xi * (1.0 - xi)))
    e = 2.0 * xi - 1.0
    d = 1.0 - s - c
    a0 = (1.0 - xi) * (s + c) + xi * d
    qa = k * k * e * e
    qb = 2.0 * k * k * a0 * e + d
    qc = k * k * a0 * a0 + im * im - s * d * (1.0 + PSD_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        if qa == 0.0:
            lo = np.full_like(qc, -np.inf)
            hi = np.where(qb > 0.0, -qc / qb, np.where(qc <= 0.0, np.inf, -np.inf))
        else:
            disc = qb * qb - 4.0 * qa * qc
            # cancellation-free roots; qb >= 0 since xi >= 1/2
            qq = -0.5 * (qb + np.sqrt(np.maximum(disc, 0.0)))
            r1, r2 = qq / qa, np.where(qq < 0.0, qc / qq, 0.0)
            lo = np.where(disc >= 0.0, np.minimum(r1, r2), np.inf)
            hi = np.where(disc >= 0.0, np.maximum(r1, r2), -np.inf)
    return np.maximum(lo, 0.0), np.minimum(hi, s)


def _c_interval(s: float, cs: ConstraintSet):
    """The c in [0, 1-s] where s d >= Re f^2 at b = 0, as (lo, hi); lo > hi if none.

    With d = 1-s-c, Re f at b = 0 is K (A00 - e c), where K and e are those
    of ``_b_interval`` and A00 = xi - e s, so the condition reads
    K^2 e^2 c^2 + (s - 2 K^2 A00 e) c + K^2 A00^2 - s (1-s) <= 0, with s d
    relaxed by ``PSD_TOL`` as there.  Outside this interval a d - Re f^2 < 0
    for every b in [0, s] (its maximum is at b = 0), so no point is feasible.
    """
    xi = cs.xi
    k = (1.0 - 2.0 * cs.q) / (2.0 * math.sqrt(xi * (1.0 - xi)))
    e = 2.0 * xi - 1.0
    a00 = xi - e * s
    slack = s * (1.0 + PSD_TOL)
    qa = k * k * e * e
    qb = slack - 2.0 * k * k * a00 * e
    qc = k * k * a00 * a00 - slack * (1.0 - s)
    if qa == 0.0:  # xi = 1/2: linear in c, and qb = s >= 0
        lo, hi = 0.0, (-qc / qb if qb > 0.0 else (math.inf if qc <= 0.0 else -math.inf))
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return 1.0, 0.0
        qq = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))  # cancellation-free roots
        roots = (qq / qa, qc / qq if qq else 0.0)
        lo, hi = min(roots), max(roots)
    return max(lo, 0.0), min(hi, 1.0 - s)


def grid_oracle(cfg: ProtocolConfig, constraints: ConstraintSet, resolution: int):
    """Exhaustive chi-bar lower bound on a feasibility-filtered grid.

    Deterministic; ``resolution`` points per free dimension (>= 20).  The
    s, c and Im f axes are uniform.  Because Re f is pinned by Q the
    feasible states form a thin sliver near |Re f| = sqrt(a d), which
    uniform b and Im f axes miss.  So, per (s, c), the Im f axis spans
    [0, max over b of sqrt(a d - Re f^2)] (Im f >= 0 only, since chi-bar
    is even in Im f); a d - Re f^2 is a concave quadratic in b whose
    vertex lies at b <= 0 (``_b_interval``: B >= 0), so the maximum over
    [0, s] is at b = 0.  Per s, the c axis keeps the spacing of
    ``resolution`` points over [0, 1-s] but spans only the c where that
    maximum is >= 0 (``_c_interval``), since no b or Im f is feasible
    elsewhere.  The b points are then spread across the feasible
    b-interval of each (s, c, Im f), solved in closed form by
    ``_b_interval``.  Returns (chi_max, argmax).
    """
    if resolution < 20:
        raise ValueError("grid oracle needs at least 20 points per free dimension")
    lo, hi = constraints.s_bounds()
    s_axis = np.linspace(lo, hi, resolution) if hi - lo > 1e-12 else np.array([lo])
    t = np.linspace(0.0, 1.0, resolution)
    best_chi = -math.inf
    best = None
    for s in s_axis:
        c_lo, c_hi = _c_interval(s, constraints)
        if c_lo > c_hi:
            continue
        # the spacing of resolution points over [0, 1-s], inside the feasible interval
        width = c_hi - c_lo
        c_axis = np.linspace(c_lo, c_hi, 2 + int(resolution * width / (1.0 - s)) if width else 1)
        d_axis = (1.0 - s) - c_axis
        re_b0 = re_f_from_Q(s, 0.0, c_axis, d_axis, constraints.q, constraints.xi)
        im_cap = np.sqrt(np.maximum(s * d_axis - re_b0 * re_b0, 0.0))
        cc = np.repeat(c_axis, resolution)
        ii = (im_cap[:, None] * t).ravel()
        b_lo, b_hi = _b_interval(s, cc, ii, constraints)
        rows = b_lo <= b_hi
        if not rows.any():
            continue
        bb = (b_lo[rows, None] + (b_hi - b_lo)[rows, None] * t).ravel()
        cc = np.repeat(cc[rows], resolution)
        ii = np.repeat(ii[rows], resolution)
        aa = s - bb
        dd = (1.0 - s) - cc
        re = re_f_from_Q(aa, bb, cc, dd, constraints.q, constraints.xi)
        feas = re * re + ii * ii <= aa * dd + PSD_TOL
        if not feas.any():
            continue
        f = re[feas] + 1j * ii[feas]
        chi = _chi_bar_batch(cfg, aa[feas], bb[feas], cc[feas], dd[feas], f)
        k = int(np.argmax(chi))
        if chi[k] > best_chi:
            best_chi = float(chi[k])
            best = (float(aa[feas][k]), float(bb[feas][k]), float(cc[feas][k]),
                    float(dd[feas][k]), complex(f[k]))
    if best is None:
        raise InfeasibleError("grid oracle found no feasible point")
    a, b, c, d, f = best
    return best_chi, SymmetricState(a=a, b=b, c=c, d=d, f=f)
