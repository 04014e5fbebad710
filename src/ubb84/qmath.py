"""Binary entropy, the one entropy the closed-form rates need.

All entropies and logarithms are base 2 (bits) throughout.  The matrix
toolkit (Hermitian eigenvalues, von Neumann entropy, partial trace) that
the tests' reference route uses lives in ``tests/reference.py``.
"""

from __future__ import annotations

import math

__all__ = ["binary_entropy"]


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"probability out of range: {p!r}")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
