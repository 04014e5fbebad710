"""The entropy term, binary entropy and Brent's 1-D maximizer, shared by the rates and the solver.

All entropies and logarithms are base 2 (bits); ``entropy_term`` takes the
only log2.  The matrix toolkit (Hermitian eigenvalues, von Neumann entropy,
partial trace) that the tests' reference route uses lives in
``tests/reference.py``.
"""

from __future__ import annotations

import math
import sys

# the golden-section fraction (3 - sqrt 5) / 2 of a bracket
GOLD = 0.5 * (3.0 - math.sqrt(5.0))
# a few ulps: the relative part of brent_max's least step
ULPS = 4.0 * sys.float_info.epsilon


def entropy_term(x: float) -> float:
    """-x log2 x, taken as 0 at or below x = 1e-18: one eigenvalue's share of an entropy."""
    return 0.0 if x <= 1e-18 else -x * math.log2(x)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p) by ``entropy_term``: 0 at p = 1 and p <= 1e-18."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError(f"probability out of range: {p!r}")
    p = min(max(p, 0.0), 1.0)
    return entropy_term(p) + entropy_term(1.0 - p)


def brent_max(fn, a: float, b: float, x: float, fx: float, span: float):
    """Maximize a unimodal ``fn`` on [a, b] by Brent's method, from x with fx = fn(x).

    R. P. Brent, Algorithms for Minimization without Derivatives (1973):
    parabolic steps through the three best points, a golden-section step
    whenever the parabola is not trusted, and no two evaluations closer
    than ``span`` plus a few ulps of x.  Callers pass span = 1.5e-8 (about
    sqrt(epsilon), where a smooth maximum goes flat to rounding) times their
    whole range, not |x|, to resolve maxima near an end of a short range far
    from 0.  Returns the best point evaluated, (x, fn(x)).
    """
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = span + ULPS * abs(x)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b - x) if x < m else (a - x)
            d = GOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = fn(u)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
