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

The analysis needs one fact about each variant's measurement: the receiver
sifting filter F_B, whose square 2 F_B^2 = diag(w0, w1) weighs the sifted
state (``ProtocolConfig.filter_weights``).  The explicit signal states,
POVMs, filters and symmetry group it summarizes live in
``tests/reference.py``, where the tests check the closed form against them.

Everything here is an immutable value object; construction and queries are
pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

__all__ = [
    "ProtocolConfig",
    "Variant",
    "make_config",
]


class Variant(str, Enum):
    UNBALANCED = "unbalanced"
    PBS = "pbs"
    FIX_LOSS = "fix-loss"
    FIX_UNEVEN_BS = "fix-uneven-bs"


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol variant plus the phase-modulator transmissivity ``kappa``.

    Requires kappa in (0, 1].  Below about 1.1e-16, xi = 1/(1+kappa) rounds
    to 1 and the skewed filter weight 1 - xi vanishes, so such a kappa is
    rejected too.
    """

    kappa: float
    variant: Variant

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"kappa must be in (0, 1], got {self.kappa!r}")
        if self.xi == 1.0:
            raise ValueError(f"kappa = {self.kappa!r} is too small: xi = 1/(1+kappa) rounds to 1")

    @property
    def xi(self) -> float:
        """Beamsplitter transmissivity 1/(1+kappa) that balances the skewed arms."""
        return 1.0 / (1.0 + self.kappa)

    @property
    def xi_effective(self) -> float:
        """xi of the qubit-level structure: the constraints and the error rate.

        The hardware fixes restore balanced BB84 structure, so they build
        their qubit objects at xi = 1/2 regardless of kappa.
        """
        if self.variant in (Variant.FIX_LOSS, Variant.FIX_UNEVEN_BS):
            return 0.5
        return self.xi

    @cached_property
    def filter_weights(self) -> tuple[float, float]:
        """Diagonal (w0, w1) of 2 F_B^2: (1-xi, xi) unbalanced, (1, 1) otherwise.

        The unbalanced receiver keeps its same-basis middle clicks,
        B_0 + B_2 = diag(1-xi, xi) / 2; the PBS protocol and the hardware
        fixes measure balanced BB84, B_0 + B_2 = I / 2.  The sifted-state
        formulas read the weights on every chi-bar evaluation.
        """
        if self.variant is Variant.UNBALANCED:
            return 1.0 - self.xi, self.xi
        return 1.0, 1.0


def make_config(kappa: float, variant: Variant | str = Variant.UNBALANCED) -> ProtocolConfig:
    """Build a configuration from a number and a variant or its name."""
    return ProtocolConfig(kappa=float(kappa), variant=Variant(variant))
