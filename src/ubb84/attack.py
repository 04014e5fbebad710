"""Constrained maximization of the eavesdropper's Holevo quantity.

The feasible set is the family of group-symmetric attack states written as
(a, b, c, d, f) under one reduced-state constraint.  With a fraction
p_lost of the single photons lost, xi - (1-p_lost)(a+b) >= 0 and
(1-xi) - (1-p_lost)(c+d) >= 0: the lost photons must account for the
remainder with a valid density matrix.  The qubit-level bound is the case
p_lost = 0, where the constraint pins a+b = xi, c+d = 1-xi.  Re[f] is
eliminated by the observed error rate (the relation of "Normalization"
below) and the corner block must stay PSD (|f|^2 <= a d).

Where the exact branch below applies, the maximum is returned in closed
form and no search runs.  Everywhere else the search works in the sifted
coordinates of "Normalization" below.  chi-bar is concave and even in
Im phi, and the feasible set is symmetric under phi -> conj(phi), so the
maximum has Im phi = 0.  The reduced-state constraint only bounds
s = a+b.  As on the exact branch, the search first leaves it out (see
"Free maximum"); if the free maximum's s lies within the s-bounds it is
the answer, and otherwise concavity puts the maximum on the s-bound it
violates, where s is pinned.  At fixed s the trace and the s-constraint
make beta and gamma affine in (alpha, delta), and the error-rate relation
makes phi affine too.  So each s-slice is a convex set in the
(alpha, delta) plane: at fixed alpha the linear constraints bound delta
and phi^2 <= alpha delta is a quadratic in delta, which gives the
feasible delta-interval in closed form.  Two nested 1-D searches maximize
over delta and then over alpha.  Each 1-D search is Brent's method
(parabolic steps, golden-section fallback) that tries both ends of its
range first, because maxima sit on or next to a boundary of the feasible
set.  Every evaluation is a call of ``chi_bar_of_params`` at a feasible
point, and the best point evaluated is the result.

The tests hold the search to an independent lower bound, the grid oracle
in ``tests/reference.py``, which evaluates chi-bar through explicit sifted
matrices instead of the closed form ``chi_bar_of_params``.

Normalization.  The qubit rate 1 - h(Q) - chi_max is per postselected
signal.  The receiver's row ``cfg.receiver`` supplies the filter weights
(w0, w1) and xi = xi_effective.  Write the sifted state in normalized
coordinates: diagonal (alpha, beta, gamma, delta) = (w0 a, w1 b, w0 c, w1 d)/T
and corner phi = sqrt(w0 w1) f / T, where T is the trace; the solver works
in these coordinates alone, and ``_state`` maps a point back to a state.
The error rate Q fixes
Re phi = u (alpha+gamma) + v (beta+delta), where u = k (1-xi)/w0,
v = k xi/w1 and k = sqrt(w0 w1) (1-2Q) / (2 sqrt(xi(1-xi))).  For the
unbalanced variant u = v = 1/2 - Q, and the qubit constraint becomes the
hyperplane L_kappa: alpha + kappa beta = gamma/kappa + delta.  chi-bar
depends on these coordinates alone, is concave (spot-checked by
acceptance criterion 3) and is invariant under the swap alpha<->delta,
beta<->gamma, phi -> conj(phi), which maps L_kappa onto L_(1/kappa).
Averaging a feasible point with its swap gives a point on L_1 with at
least the same chi, so chi_max(kappa, Q) <= chi_max(1, Q) = h(Q): per
postselected signal the unbalanced rate is never below BB84's.  The
modulator's loss enters through the kept weight instead: the noiseless
source state |Phi> survives sifting with p_kept = xi(1-xi), and the key
per signal sent is p_kept (1 - h(Q) - chi_max).  That product, not the
rate per postselected signal, is the one that is nondecreasing in kappa.
How an honest noisy channel changes p_kept is not modelled here.

Exact branch.  When u = v (within 1e-12), Re phi = u is the same for
every state of trace 1, and there u = 1/2 - Q.  That holds for the
unbalanced variant, for both hardware fixes (xi_effective = 1/2, balanced
weights) and for PBS at kappa = 1, but not for PBS at kappa < 1
(u - v = k (1 - 2 xi) < 0).
Leave out the reduced-state constraint: the remaining feasible set is
invariant under the swap alpha<->delta, beta<->gamma and under
phi -> conj(phi), and chi-bar is concave (relative entropy is jointly
convex), so the maximum lies at alpha = delta, beta = gamma, Im phi = 0.
On that line chi-bar is S(sigma) - h(Q), and S(sigma) is stationary at
beta = Q(1-Q), alpha = 1/2 - Q(1-Q), where sigma has spectrum
{(1-Q)^2, Q(1-Q), Q(1-Q), Q^2} and entropy 2 h(Q); so chi = h(Q), the
BB84 bound of Shor and Preskill.  ``_state`` maps the point
(alpha, beta, beta, alpha, 1/2 - Q) back to a state.  It is PSD, since
alpha = 1/2 - Q(1-Q) >= 1/2 - Q = phi.  If its s lies within
``ConstraintSet.s_bounds`` (1e-12 slack) the point is the maximum over the
full feasible set, and ``_maximize`` returns it with ``iterations=0``.
Otherwise (at p_lost = 0 and kappa < 1 with Q > 0, where
s = xi + 2 Q(1-Q)(1 - 2 xi) misses the pinned s = xi, and at higher loss
when an s-bound binds) the pinned search runs, and its maximum is at
most h(Q).

Free maximum (u != v, PBS at kappa < 1).  Write A = alpha+gamma, so
beta+delta = 1-A.  The relation makes phi = u A + v (1-A) a function of
A alone, and so is S(conditional) = h((1+r)/2) with
r = sqrt((2A-1)^2 + 4 phi^2).  At fixed A, chi-bar is therefore
S(sigma) - h((1+r)/2), and its maximizer is the state of largest entropy
with the three linear constraints trace 1, alpha+gamma = A and corner
phi(A): sigma = exp(m1 P + m3 X) / Z with P = |00><00| + |10><10| and
X = |00><11| + |11><00|, that is beta = 1/Z, gamma = e^m1 / Z and
[[alpha, phi], [phi, delta]] = exp([[m1, m3], [m3, 0]]) / Z.  The
multipliers minimize the convex dual log Z - m1 A - 2 m3 phi(A) (the
primal side of the dual formulation of Coles, Metodiev and Lutkenhaus,
Nat. Commun. 7, 11712 (2016)); ``_max_entropy`` finds them by Newton's
method with backtracking, warm-started from the previous A.  The best
value g(A) of an A-slice is concave in A, because the slices are sections
of the convex feasible set by the hyperplanes alpha+gamma = A and chi-bar
is concave, so one Brent search over A finds the free maximum.  A ranges
over the closed-form interval where phi(A)^2 <= A(1-A), the largest
alpha delta of the slice; at its ends the slice is the pure point
beta = gamma = 0, evaluated directly.  The corner condition keeps the
search's slack: the interval allows phi^2 <= A(1-A) + _SLACK and the
largest-entropy state takes the corner sqrt(phi^2 - _SLACK), so the point
evaluated, with phi recomputed from the relation, meets
phi^2 <= alpha delta + _SLACK as the nested search's points do.  At
u = v, phi is constant and the free maximum is the exact branch's point,
beta = Q(1-Q).  At p_lost = 0 the s-bounds coincide and the pinned search
runs at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .protocol import ProtocolConfig
from .sifting import SymmetricState

__all__ = [
    "ConstraintSet",
    "InfeasibleError",
    "OptimResult",
    "chi_bar_of_params",
    "constraint_set",
    "maximize_holevo_qubit",
]

# corner-condition slack of the search, in sifted units; SymmetricState allows 1e-12
_SLACK = 1e-14


class InfeasibleError(ValueError):
    """Raised when no attack state is compatible with the constraints."""


@dataclass(frozen=True)
class ConstraintSet:
    """Feasible-region description for the attack optimization."""

    xi: float
    q: float
    p_lost: float = 0.0

    def s_bounds(self):
        """Allowed range of s = a+b implied by the reduced-state constraint.

        Written so that p_lost = 0 gives exactly (xi, xi).
        """
        kept = 1.0 - self.p_lost
        if kept <= 1e-15:
            return 0.0, 1.0
        return max(0.0, (self.xi - self.p_lost) / kept), min(1.0, self.xi / kept)


@dataclass(frozen=True)
class OptimResult:
    """Maximum, maximizer and search effort.

    ``iterations`` counts the chi-bar evaluations of the search, 0 on the
    exact branch.
    """

    chi_max: float
    argmax: SymmetricState
    iterations: int


def constraint_set(cfg: ProtocolConfig, q: float, p_lost: float = 0.0) -> ConstraintSet:
    """Validated constraints for error rate q and single-photon loss p_lost."""
    if not 0.0 <= q < 0.5:
        raise ValueError(f"error rate must be in [0, 0.5), got {q!r}")
    if not 0.0 <= p_lost < 1.0 + 1e-12:
        raise ValueError(f"p_lost must be in [0, 1), got {p_lost!r}")
    return ConstraintSet(xi=cfg.receiver.xi_effective, q=float(q), p_lost=float(p_lost))


def _h_term(x: float) -> float:
    return 0.0 if x <= 1e-18 else -x * math.log2(x)


def chi_bar_of_params(alpha, beta, gamma, delta, phi) -> float:
    """Closed-form chi-bar of a sifted symmetric state (optimizer fast path).

    (alpha, beta, gamma, delta) is the diagonal of the normalized sifted
    state sigma and phi its corner (see "Normalization" above).  All four
    postselected conditional states share one spectrum, so
    chi-bar = S(sigma) - S(conditional).  Agrees with the matrix route
    (``overall_holevo`` in ``tests/reference.py``) to machine precision.
    """
    phi = complex(phi)
    f2 = phi.real * phi.real + phi.imag * phi.imag
    half = 0.5 * (alpha - delta)
    disc = math.sqrt(half * half + f2)
    mid = 0.5 * (alpha + delta)
    s4 = _h_term(beta) + _h_term(gamma) + _h_term(mid + disc) + _h_term(max(mid - disc, 0.0))
    gap = alpha + gamma - beta - delta
    r = min(1.0, math.sqrt(gap * gap + 4.0 * f2))
    s2 = _h_term(0.5 * (1.0 + r)) + _h_term(0.5 * (1.0 - r))
    return s4 - s2


def _error_relation(cfg: ProtocolConfig, cs: ConstraintSet):
    """(u, v) of the error-rate relation phi = u (alpha+gamma) + v (beta+delta)."""
    w0, w1 = cfg.receiver.weights
    k = math.sqrt(w0 * w1) * (1.0 - 2.0 * cs.q) / (2.0 * math.sqrt(cs.xi * (1.0 - cs.xi)))
    return k * (1.0 - cs.xi) / w0, k * cs.xi / w1


def _state(cfg: ProtocolConfig, alpha, beta, gamma, delta, phi) -> SymmetricState:
    """The state of trace 1 whose sifted point is (alpha, beta, gamma, delta, phi)."""
    w0, w1 = cfg.receiver.weights
    a, b, c, d = alpha / w0, beta / w1, gamma / w0, delta / w1
    total = a + b + c + d
    return SymmetricState(a=a / total, b=b / total, c=c / total, d=d / total,
                          f=complex(phi / math.sqrt(w0 * w1) / total, 0.0))


# ---------------------------------------------------------------------------
# optimizer

_GOLD = 0.5 * (3.0 - math.sqrt(5.0))
_ULPS = 4.0 * sys.float_info.epsilon


def _brent_max(fn, lo: float, hi: float, rtol: float = 1.5e-8):
    """Maximize a unimodal ``fn`` on [lo, hi] by Brent's method.

    Parabolic steps through the three best points, a golden-section step
    whenever the parabola is not trusted, and no two evaluations closer
    than rtol (hi - lo) plus a few ulps.  The tolerance scales with the
    range, not with |x|, to resolve maxima close to an end of a short
    range far from 0.  A maximum on or next to an end is common here (a
    boundary of the feasible set), and Brent's method would close in on
    it by golden steps alone, so both ends are evaluated first.  An end
    that beats the first interior point is the maximum if fn does not
    rise one tolerance step inward; otherwise the search runs between
    that end and the first point, from the step.  Returns (x, fn(x)).
    """
    x = lo + _GOLD * (hi - lo)
    fx = fn(x)
    if hi <= lo:
        return x, fx
    span = rtol * (hi - lo)
    f_end, end = max((fn(lo), lo), (fn(hi), hi))
    a, b = lo, hi
    if f_end >= fx:
        step = end + math.copysign(span + _ULPS * abs(end), x - end)
        f_step = fn(step) if abs(step - end) < abs(x - end) else -math.inf
        if f_step <= f_end:
            return end, f_end
        a, b = sorted((end, x))
        x, fx = step, f_step
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = span + _ULPS * abs(x)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
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
            d = _GOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = fn(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return (end, f_end) if f_end > fx else (x, fx)


def _edge(feasible, inside: float, outside: float) -> float:
    """The last feasible point from ``inside`` towards ``outside``, by bisection."""
    if feasible(outside):
        return outside
    for _ in range(60):
        mid = 0.5 * (inside + outside)
        inside, outside = (mid, outside) if feasible(mid) else (inside, mid)
    return inside


class _Slice:
    """The search at fixed s = a+b, in sifted coordinates (alpha, delta).

    The trace alpha+beta+gamma+delta = 1 and the s-constraint
    (1-s)(alpha/w0 + beta/w1) = s(gamma/w0 + delta/w1) make beta and gamma
    affine in (alpha, delta), and the error-rate relation (u, v) makes phi
    (real) affine too; each is stored as (constant, alpha and delta
    coefficients).
    """

    def __init__(self, cfg: ProtocolConfig, uv, s: float):
        w0, w1 = cfg.receiver.weights
        u, v = uv
        den = (1.0 - s) * w0 + s * w1
        self.beta = b0, ba, bd = w1 * s / den, -w1 / den, s * (w0 - w1) / den
        self.gamma = g0, ga, gd = w0 * (1.0 - s) / den, (1.0 - s) * (w1 - w0) / den, -w0 / den
        self.phi = (u * g0 + v * b0, u * (1.0 + ga) + v * ba, u * gd + v * (1.0 + bd))

    def point(self, alpha: float, delta: float):
        """The sifted point (alpha, beta, gamma, delta, phi)."""
        (b0, ba, bd), (g0, ga, gd), (p0, pa, pd) = self.beta, self.gamma, self.phi
        return (alpha, b0 + ba * alpha + bd * delta, g0 + ga * alpha + gd * delta, delta,
                p0 + pa * alpha + pd * delta)

    def delta_range(self, alpha: float):
        """Feasible delta at fixed alpha as (lo, hi); lo > hi when empty.

        beta >= 0 and gamma >= 0 are linear in delta (one free of delta
        bounds alpha instead, in ``alpha_range``).  With phi = p0 + p1 delta
        the corner condition phi^2 <= alpha delta + _SLACK is the convex
        quadratic p1^2 delta^2 + (2 p0 p1 - alpha) delta + p0^2 - _SLACK <= 0,
        with discriminant alpha (alpha - 4 p0 p1) + 4 p1^2 _SLACK.  The slack
        keeps a feasible set that shrinks to a point (Q -> 0) from being
        emptied by rounding in a double root.
        """
        lo, hi = 0.0, math.inf
        for c0, ca, cd in (self.beta, self.gamma):
            if cd > 0.0:
                lo = max(lo, -(c0 + ca * alpha) / cd)
            elif cd < 0.0:
                hi = min(hi, (c0 + ca * alpha) / -cd)
        p0, p1 = self.phi[0] + self.phi[1] * alpha, self.phi[2]
        qa, qb, qc = p1 * p1, 2.0 * p0 * p1 - alpha, p0 * p0 - _SLACK
        disc = alpha * (alpha - 4.0 * p0 * p1) + 4.0 * qa * _SLACK
        if qa == 0.0:
            return (max(lo, qc / -qb) if qb < 0.0 else lo if qc <= 0.0 else math.inf), hi
        if disc < 0.0:
            return math.inf, hi
        t = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))  # cancellation-free roots
        r1, r2 = sorted((t / qa, qc / t)) if t != 0.0 else (0.0, 0.0)
        return max(lo, r1), min(hi, r2)

    def _width(self, alpha: float) -> float:
        lo, hi = self.delta_range(alpha)
        return hi - lo

    def alpha_peak(self):
        """(peak, lo, hi): a feasible alpha in the bracket [lo, hi], or None.

        A linear constraint free of delta and the sign of the (unrelaxed)
        discriminant, linear in alpha, bound alpha in closed form.  Inside,
        the width of ``delta_range`` is concave (an upper envelope of the
        convex slice minus a lower one), so Brent's method finds its peak,
        to near machine precision because a thin slice (small Q) is
        feasible only there; bisection then finds where it crosses 0.
        """
        lo, hi = 0.0, 1.0
        for c0, ca, cd in (self.beta, self.gamma):
            if cd == 0.0:  # c0 + ca alpha >= 0 with ca = -w1/den < 0
                hi = min(hi, c0 / -ca)
        p0, pa, p1 = self.phi
        k1, k0 = 1.0 - 4.0 * pa * p1, 4.0 * p0 * p1
        if k1 > 0.0:
            lo = max(lo, k0 / k1)
        elif k1 < 0.0:
            hi = min(hi, k0 / k1)
        elif k0 > 0.0:
            return None
        lo = min(lo, hi)  # a slice shrunk to a point may round to lo > hi
        peak, width = _brent_max(self._width, lo, hi, 1e-13)
        return (peak, lo, hi) if width >= 0.0 else None

    def alpha_range(self):
        """The feasible alpha-interval (lo, hi), or None when it is empty."""
        found = self.alpha_peak()
        if found is None:
            return None
        peak, lo, hi = found
        feasible = lambda alpha: self._width(alpha) >= 0.0  # noqa: E731
        return _edge(feasible, peak, lo), _edge(feasible, peak, hi)


def _a_range(cfg: ProtocolConfig, cs: ConstraintSet):
    """The interval of A = alpha+gamma with phi(A)^2 <= A(1-A) + _SLACK.

    A(1-A) is the largest alpha delta at trace 1, reached at beta = gamma = 0.
    With x = (1-xi) A / w0 and y = xi (1-A) / w1 the relation reads
    phi = k (x+y), and phi^2 - A(1-A) = K ((1-2Q)^2 (x-y)^2 - 16 Q(1-Q) x y)
    with K = w0 w1 / (4 xi (1-xi)).  In t = A - A0, where A0 is the A of
    x = y, that is a quadratic a2 t^2 + a1 t + a0 <= 0 with a0 < 0, whose
    roots need no cancelling discriminant.
    """
    w0, w1 = cfg.receiver.weights
    xi, q = cs.xi, cs.q
    p, r = (1.0 - xi) / w0, xi / w1
    a_mid, b_mid = r / (p + r), p / (p + r)
    c2 = 16.0 * q * (1.0 - q) * p * r
    a2 = (1.0 - 2.0 * q) ** 2 * (p + r) ** 2 + c2
    a1 = c2 * (a_mid - b_mid)
    a0 = -(c2 * a_mid * b_mid + _SLACK * 4.0 * xi * (1.0 - xi) / (w0 * w1))
    t = -0.5 * (a1 + math.copysign(math.sqrt(a1 * a1 - 4.0 * a2 * a0), a1))
    t1, t2 = sorted((t / a2, a0 / t))
    return max(0.0, a_mid + t1), min(1.0, a_mid + t2)


def _gibbs(m1: float, m3: float, a_sum: float, b_sum: float, corner: float):
    """The state exp(m1 P + m3 X) / Z: its dual value, sifted point and dual Hessian.

    P = |00><00| + |10><10| and X = |00><11| + |11><00|, so beta = 1/Z,
    gamma = e^m1 / Z and the (alpha, delta) block is exp([[m1, m3], [m3, 0]]) / Z,
    with eigenvalues e^(m1/2 +- rho) / Z, rho = hypot(m1/2, m3).  The
    multipliers grow without bound as the state nears a face of the slice
    (about 5e4 at kappa = 1e-4), so every weight is taken relative to the
    largest one, e^(m1/2 + rho), through rho - |m1|/2 = m3^2 / (rho + |m1|/2),
    and so is the dual value log Z - m1 a_sum - 2 m3 corner.  The Hessian of
    log Z is the Kubo-Mori covariance of (P, X): their spread over the four
    eigenstates, in pairwise form, plus the coherent term of the block.
    Returns (dual, point, (h11, h13, h33)).
    """
    rho = math.hypot(0.5 * m1, m3)
    near = m3 * m3 / (rho + 0.5 * abs(m1)) if rho > 0.0 else 0.0  # rho - |m1|/2
    if m1 >= 0.0:
        d_beta, d_gamma, offset = -(m1 + near), -near, m1 * b_sum
    else:
        d_beta, d_gamma, offset = -near, m1 - near, -m1 * a_sum
    low, gap = math.exp(-2.0 * rho), -math.expm1(-2.0 * rho)  # e^(-2 rho) and 1 - e^(-2 rho)
    zrel = 1.0 + low + math.exp(d_beta) + math.exp(d_gamma)
    wp = 1.0 / zrel
    wb, wg, wm = wp * math.exp(d_beta), wp * math.exp(d_gamma), wp * low
    if rho > 0.0:
        sc, c = 0.5 * m3 / rho, 0.5 * m1 / rho  # sin(theta)/2, cos(theta)
        half = near / (2.0 * rho)  # sin^2 or cos^2 of theta/2, whichever is smaller
        cp, cm = (1.0 - half, half) if m1 >= 0.0 else (half, 1.0 - half)
        coh = wp * gap / (2.0 * rho)
    else:
        sc, c, cp, cm, coh = 0.0, 1.0, 1.0, 0.0, wp
    dual = offset + near - 2.0 * m3 * corner + math.log(zrel)
    point = (wp * cp + wm * cm, wb, wg, wp * cm + wm * cp, wp * gap * sc)
    h11 = (wb * wg + wb * wp * cp * cp + wb * wm * cm * cm + wg * wp * cm * cm
           + wg * wm * cp * cp + wp * wm * c * c + 2.0 * coh * sc * sc)
    h13 = 2.0 * sc * (wb * wp * cp - wb * wm * cm - wg * wp * cm + wg * wm * cp
                      + 2.0 * wp * wm * c - coh * c)
    h33 = 4.0 * sc * sc * ((wb + wg) * (wp + wm) + 4.0 * wp * wm) + 2.0 * coh * c * c
    return dual, point, (h11, h13, h33)


def _max_entropy(a_sum: float, b_sum: float, corner: float, mu=None):
    """The largest-entropy sifted point of an A-slice, and its multipliers.

    The slice holds the points with alpha+gamma = a_sum, beta+delta = b_sum
    and corner ``corner``, where 0 < corner^2 < a_sum b_sum.  The point
    is exp(m1 P + m3 X) / Z (see ``_gibbs``), whose multipliers
    minimize the convex dual log Z - m1 a_sum - 2 m3 corner.  Newton's
    method on the dual, with backtracking, starts from ``mu`` (the
    multipliers of a previous solve) or from the diagonal solution m3 = 0,
    whichever has the lower dual value, and stops once the constraints
    hold to 1e-14 relative.
    """
    m1, m3 = math.log(a_sum / b_sum), 0.0
    dual, point, hess = _gibbs(m1, m3, a_sum, b_sum, corner)
    if mu is not None:
        warm = _gibbs(*mu, a_sum, b_sum, corner)
        if warm[0] < dual:
            (m1, m3), (dual, point, hess) = mu, warm
    for _ in range(60):
        alpha, beta, gamma, delta, phi = point
        # the residual of the smaller side keeps its relative precision
        g1 = alpha + gamma - a_sum if a_sum <= b_sum else b_sum - beta - delta
        g3 = 2.0 * (phi - corner)
        if abs(g1) <= 1e-14 * min(a_sum, b_sum) and abs(g3) <= 1e-14 * corner:
            break
        h11, h13, h33 = hess
        det = h11 * h33 - h13 * h13
        if not det > 0.0:
            break
        d1, d3 = (h13 * g3 - h33 * g1) / det, (h13 * g1 - h11 * g3) / det
        slope = g1 * d1 + g3 * d3
        # a near-singular Hessian can ask for any length; at most double the multipliers
        step = min(1.0, max(16.0, abs(m1), abs(m3)) / max(abs(d1), abs(d3)))
        noise = 1e-14 * (1.0 + abs(m1) + abs(m3))  # rounding of the dual's terms
        for _ in range(40):
            n1, n3 = m1 + step * d1, m3 + step * d3
            trial = _gibbs(n1, n3, a_sum, b_sum, corner)
            if trial[0] <= dual + 1e-4 * step * slope + noise:
                break
            step *= 0.5
        else:
            break
        m1, m3 = n1, n3
        dual, point, hess = trial
    return point, (m1, m3)


class _Search:
    """Brent searches that count evaluations and keep the best point.

    ``mu`` holds the multipliers of the last A-slice solved, the warm
    start of the next.
    """

    def __init__(self, cfg: ProtocolConfig, uv):
        self.cfg, self.uv = cfg, uv
        self.evals, self.chi, self.point = 0, -math.inf, None
        self.mu = None

    def _chi(self, point) -> float:
        chi = chi_bar_of_params(*point)
        self.evals += 1
        if chi > self.chi:
            self.chi, self.point = chi, point
        return chi

    def slice_max(self, s: float) -> float:
        """Best chi-bar of the slice at s: Brent over alpha of Brent over delta."""
        sl = _Slice(self.cfg, self.uv, s)
        alphas = sl.alpha_range()
        if alphas is None:
            return -math.inf

        def over_delta(alpha):
            lo, hi = sl.delta_range(alpha)
            return _brent_max(lambda delta: self._chi(sl.point(alpha, delta)), lo, max(lo, hi))[1]

        return _brent_max(over_delta, *alphas)[1]

    def _a_slice(self, a_sum: float) -> float:
        """chi-bar of the largest-entropy point with alpha+gamma = a_sum.

        S2 depends on a_sum alone there.  The corner condition keeps the
        search's slack; at the ends of the A-range the slice is the pure
        point beta = gamma = 0, and a corner within the slack leaves the
        diagonal point.
        """
        u, v = self.uv
        b_sum = 1.0 - a_sum
        corner2 = (u * a_sum + v * b_sum) ** 2 - _SLACK
        if corner2 <= 0.0:
            point = (0.5 * a_sum, 0.5 * b_sum, 0.5 * a_sum, 0.5 * b_sum)
        elif corner2 >= a_sum * b_sum:
            point = (a_sum, 0.0, 0.0, b_sum)
        else:
            point, self.mu = _max_entropy(a_sum, b_sum, math.sqrt(corner2), self.mu)
        alpha, beta, gamma, delta = point[:4]
        return self._chi((alpha, beta, gamma, delta, u * (alpha + gamma) + v * (beta + delta)))

    def free_max(self, cs: ConstraintSet) -> float:
        """Best chi-bar without the s-bounds: Brent over A of the A-slices."""
        return _brent_max(self._a_slice, *_a_range(self.cfg, cs))[1]


def _maximize(cfg: ProtocolConfig, cs: ConstraintSet) -> OptimResult:
    u, v = uv = _error_relation(cfg, cs)
    lo, hi = cs.s_bounds()
    search = _Search(cfg, uv)
    if abs(u - v) <= 1e-12:
        beta = cs.q * (1.0 - cs.q)
        # alpha+gamma = beta+delta = 1/2, so the relation gives phi = (u+v)/2
        point = (0.5 - beta, beta, beta, 0.5 - beta, 0.5 * (u + v))
    elif lo < hi:
        search.free_max(cs)
        point = search.point
    else:
        point = None
    if point is not None:
        state = _state(cfg, *point)
        if lo - 1e-12 <= state.a + state.b <= hi + 1e-12:
            # the exact branch's point is evaluated only here, outside the count
            chi = search.chi if search.evals else chi_bar_of_params(*point)
            return OptimResult(chi_max=chi, argmax=state, iterations=search.evals)
        # concavity puts the maximum on the s-bound that the free maximum violates
        lo = hi = min(max(state.a + state.b, lo), hi)
        search.chi, search.point = -math.inf, None
    search.slice_max(lo)
    if search.point is None:
        raise InfeasibleError(
            f"no feasible attack state found (q={cs.q}, p_lost={cs.p_lost})"
        )
    return OptimResult(chi_max=search.chi, argmax=_state(cfg, *search.point),
                       iterations=search.evals)


def maximize_holevo_qubit(cfg: ProtocolConfig, q: float, p_lost: float = 0.0) -> OptimResult:
    """Maximal chi-bar at error rate q with a fraction p_lost of single photons lost.

    At p_lost = 0 the reduced-state constraint is exact (a+b = xi,
    c+d = 1-xi), the qubit-level bound; above it the constraint is relaxed
    by the loss.  Re f is fixed by the error rate and Im f is free.
    """
    return _maximize(cfg, constraint_set(cfg, q, p_lost))
