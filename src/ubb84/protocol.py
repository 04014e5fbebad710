"""Protocol objects for phase-encoded BB84 with an uneven interferometer.

The sender encodes bit and basis in the relative phase of two pulse modes
|0> and |1>.  A lossy phase modulator (transmissivity ``kappa``) in the long
arm skews the pulse amplitudes, parametrized by the beamsplitter
transmissivity ``xi = 1/(1+kappa)``.  Four protocol variants are supported:

* ``unbalanced`` - the skewed protocol; the receiver keeps interfering
  middle-slot clicks and lumps non-interfering events into an "out" outcome.
* ``pbs`` - pulses polarization-multiplexed so everything interferes; the
  receiver's measurement is balanced BB84 on the incoming qubit.
* ``fix-loss`` / ``fix-uneven-bs`` - hardware rebalancing fixes.  At the
  qubit level both behave as ideal balanced BB84 (xi_effective = 1/2); the
  extra apparatus loss is handled by the channel model.

Everything here is an immutable value object; construction and queries are
pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .qmath import is_hermitian

__all__ = [
    "FilterPair",
    "Povm",
    "ProtocolConfig",
    "SymmetryGroup",
    "Variant",
    "alice_povm",
    "bob_povm",
    "filters",
    "make_config",
    "postselected_povms",
    "signal_state",
    "source_state",
    "symmetry_group",
]

ANNOUNCEMENTS = ("even", "odd")


class Variant(str, Enum):
    UNBALANCED = "unbalanced"
    PBS = "pbs"
    FIX_LOSS = "fix-loss"
    FIX_UNEVEN_BS = "fix-uneven-bs"


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol variant plus the phase-modulator transmissivity ``kappa``."""

    kappa: float
    variant: Variant
    xi: float

    @property
    def xi_effective(self) -> float:
        """xi used for state/POVM construction.

        The hardware fixes restore balanced BB84 structure, so they build
        their qubit objects at xi = 1/2 regardless of kappa.
        """
        if self.variant in (Variant.FIX_LOSS, Variant.FIX_UNEVEN_BS):
            return 0.5
        return self.xi

    @cached_property
    def filter_weights(self) -> tuple[float, float]:
        """Diagonal (w0, w1) of 2 F_B^2: (1-xi, xi) unbalanced, (1, 1) otherwise.

        Built once per config from ``filters``; the sifted-state formulas
        read it on every chi-bar evaluation.
        """
        f_b = filters(self).f_b
        return 2.0 * float(f_b[0, 0].real) ** 2, 2.0 * float(f_b[1, 1].real) ** 2


def make_config(kappa: float, variant: Variant | str = Variant.UNBALANCED) -> ProtocolConfig:
    """Build a configuration; requires kappa in (0, 1].

    Below about 1.1e-16, xi = 1/(1+kappa) rounds to 1 and the skewed
    filter weight 1 - xi vanishes, so such a kappa is rejected too.
    """
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must be in (0, 1], got {kappa!r}")
    xi = 1.0 / (1.0 + kappa)
    if xi == 1.0:
        raise ValueError(f"kappa = {kappa!r} is too small: xi = 1/(1+kappa) rounds to 1")
    return ProtocolConfig(kappa=float(kappa), variant=Variant(variant), xi=xi)


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
    xi = cfg.xi_effective
    return np.array([math.sqrt(xi), math.sqrt(1.0 - xi) * np.exp(1j * math.pi * x / 2)])


def source_state(cfg: ProtocolConfig):
    """Source-replacement state |Phi> = sqrt(xi)|00> + sqrt(1-xi)|11>.

    Returns the ket on A (x) S and the fixed reduced state
    rho_A = diag(xi, 1-xi).
    """
    xi = cfg.xi_effective
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
