"""The sifted symmetric attack state.

The postselection keeps matching-basis events via the filter map
F[rho] = (F_A (x) F_B) rho (F_A (x) F_B)^dag / p_tilde.  Because the filters
are identical for even and odd announcements, both announcement branches
produce the same normalized state with equal weight, so one kept weight
and one sifted state describe both.  Group averaging reduces every attack
state to the five parameters of ``SymmetricState``.

The explicit matrix route (the filter map on 4x4 matrices, Holevo
quantities, group averaging, the error rate read back from a state) is the
tests' independent check and lives in ``tests/reference.py``.
"""

from typing import NamedTuple


class _StateFields(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    f: complex


class SymmetricState(_StateFields):
    """Group-averaged attack state: diag(a, b, c, d) plus corner coherence f.

    The 4x4 matrix it stands for lives in the basis {|00>, |01>, |10>, |11>}
    with f at entry (3, 0) and its conjugate at (0, 3).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in "abcd":
            if getattr(self, name) < -1e-10:
                raise ValueError(f"parameter {name} is negative")
        if abs(self.a + self.b + self.c + self.d - 1.0) > 1e-10:
            raise ValueError("trace condition a+b+c+d = 1 violated")
        if abs(self.f) ** 2 > self.a * self.d + 1e-12:
            raise ValueError("corner block not PSD: |f|^2 > a*d")
        return self
