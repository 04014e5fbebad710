"""The sifted symmetric attack state and the error-rate relation.

The postselection keeps matching-basis events via the filter map
F[rho] = (F_A (x) F_B) rho (F_A (x) F_B)^dag / p_tilde.  Because the filters
are identical for even and odd announcements, both announcement branches
produce the same normalized state with equal weight, so one kept weight
and one sifted state describe both.  Group averaging reduces every attack
state to the five parameters of ``SymmetricState``, and the observed error
rate pins the real part of its coherence (``re_f_from_Q``).

The explicit matrix route (the filter map on 4x4 matrices, Holevo
quantities, group averaging, the error rate read back from a state) is the
tests' independent check and lives in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SymmetricState",
    "re_f_from_Q",
]


@dataclass(frozen=True)
class SymmetricState:
    """Group-averaged attack state: diag(a, b, c, d) plus corner coherence f.

    The 4x4 matrix it stands for lives in the basis {|00>, |01>, |10>, |11>}
    with f at entry (3, 0) and its conjugate at (0, 3).
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


def re_f_from_Q(a, b, c, d, q, xi):
    """The error-rate relation: Re[f] of a symmetric state with error rate Q.

    Re[f] = 2 p_tilde (1 - 2Q) / sqrt(xi(1-xi)) with the kept weight
    p_tilde = ((1-xi)(a+c) + xi(b+d)) / 4, elementwise on arrays; for a
    normalized state and 1/2 <= xi < 1, p_tilde >= (1-xi)/4 > 0.  The
    optimizer calls this once per objective evaluation; it is affine in Q,
    and the tests' ``error_rate_Q`` inverts it.  A result with
    |Re f| > sqrt(a d) signals an infeasible point; callers treat it as a
    constraint violation, not an exception.
    """
    p_tilde = ((1.0 - xi) * (a + c) + xi * (b + d)) / 4.0
    return 2.0 * p_tilde * (1.0 - 2.0 * q) / math.sqrt(xi * (1.0 - xi))
