"""Protocol objects for phase-encoded BB84 with an uneven interferometer.

The sender encodes bit and basis in the relative phase of two pulse modes
|0> and |1>.  A lossy phase modulator (transmissivity ``kappa``) in the long
arm skews the pulse amplitudes, parametrized by the beamsplitter
transmissivity ``xi = 1/(1+kappa)``.  Four protocol variants are supported:

* ``unbalanced`` - the skewed protocol; the receiver keeps interfering
  middle-slot clicks and lumps non-interfering events into an "out" outcome.
* ``pbs`` - pulses polarization-multiplexed so everything interferes.  Its
  receiver row (below) pairs the balanced filter weights (1, 1) with the
  skewed xi, so its error relation has u != v.  ``tests/reference.py``
  builds a balanced BB84 POVM for PBS instead of one derived from the
  polarization routing; ROADMAP item 2 settles the difference.
* ``fix-loss`` / ``fix-uneven-bs`` - hardware rebalancing fixes.  At the
  qubit level both behave as ideal balanced BB84 (xi_effective = 1/2); only
  their extra apparatus loss sets them apart.

The variants differ only in their receivers, and each receiver is one row
of one table, ``ProtocolConfig.receiver``: the qubit-level xi, the weights
2 F_B^2 = diag(w0, w1) of the sifting filter F_B, and the shares of the
light that reach a detector and land in a kept slot.  The explicit signal
states, POVMs, filters and symmetry group the row summarizes live in
``tests/reference.py``, where the tests check the table against them.

Everything here is an immutable value object; construction and queries are
pure.
"""

from enum import Enum
from typing import NamedTuple


class Variant(str, Enum):
    UNBALANCED = "unbalanced"
    PBS = "pbs"
    FIX_LOSS = "fix-loss"
    FIX_UNEVEN_BS = "fix-uneven-bs"


class Receiver(NamedTuple):
    """What a variant's receiver makes of the light it is sent.

    ``xi_effective`` is the xi of the qubit-level structure, the constraints
    and the error rate: the hardware fixes restore balanced BB84, so theirs
    is 1/2 regardless of kappa.  ``weights`` is the diagonal (w0, w1) of
    2 F_B^2: the unbalanced receiver keeps its same-basis middle clicks,
    B_0 + B_2 = diag(1-xi, xi) / 2, and the others have balanced weights,
    B_0 + B_2 = I / 2.  With xi = 1/2 that is balanced BB84; PBS pairs the
    balanced weights with the skewed xi, so its error relation
    phi = u (alpha+gamma) + v (beta+delta) alone has u != v.  ``survival``
    is the probability that a photon reaches a detector at all (outside
    slots included); ``kept`` the probability that it lands in a kept slot.
    """

    xi_effective: float
    weights: tuple[float, float]
    survival: float
    kept: float


class _ConfigFields(NamedTuple):
    kappa: float
    variant: Variant


class ProtocolConfig(_ConfigFields):
    """Protocol variant plus the phase-modulator transmissivity ``kappa``.

    Takes kappa as any number and the variant as a ``Variant`` or its name;
    ``make_config`` is this constructor.  Requires kappa in (0, 1].  Below
    about 1.1e-16, xi = 1/(1+kappa) rounds to 1 and the skewed filter weight
    1 - xi vanishes, so such a kappa is rejected too.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates

    def __new__(cls, kappa: float, variant: Variant | str = Variant.UNBALANCED):
        self = super().__new__(cls, float(kappa), Variant(variant))
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"kappa must be in (0, 1], got {self.kappa!r}")
        if self.xi == 1.0:
            raise ValueError(f"kappa = {self.kappa!r} is too small: xi = 1/(1+kappa) rounds to 1")
        return self

    @property
    def xi(self) -> float:
        """Beamsplitter transmissivity 1/(1+kappa) that balances the skewed arms."""
        return 1.0 / (1.0 + self.kappa)

    @property
    def receiver(self) -> Receiver:
        """The variant's row of the receiver table, built anew on each access.

        This is the one place that reads the variant.  The unbalanced
        receiver keeps a middle fraction 2 xi (1-xi) of the photons that
        reach it; the PBS receiver keeps every click.
        """
        k = self.kappa
        xi = self.xi
        if self.variant is Variant.UNBALANCED:
            return Receiver(xi, (1.0 - xi, xi), survival=1.0 / (2.0 * xi), kept=1.0 - xi)
        if self.variant is Variant.PBS:
            t = xi + (1.0 - xi) * k
            return Receiver(xi, (1.0, 1.0), survival=t, kept=t)
        if self.variant is Variant.FIX_LOSS:
            return Receiver(0.5, (1.0, 1.0), survival=k, kept=k / 2.0)
        return Receiver(0.5, (1.0, 1.0), survival=2.0 * k / (1.0 + k), kept=k / (1.0 + k))


make_config = ProtocolConfig
