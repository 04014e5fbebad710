"""Constrained maximization of the eavesdropper's Holevo quantity.

The feasible set is the family of group-symmetric attack states written as
(a, b, c, d, f) under one reduced-state constraint.  With a fraction
p_lost of the single photons lost, xi - (1-p_lost)(a+b) >= 0 and
(1-xi) - (1-p_lost)(c+d) >= 0: the lost photons must account for the
remainder with a valid density matrix.  The qubit-level bound is the case
p_lost = 0, where the constraint pins a+b = xi, c+d = 1-xi.  Re[f] is
eliminated by the observed error rate and the corner block must stay PSD
(|f|^2 <= a d).

Where the exact branch applies, the maximum is returned in closed form.
Elsewhere one search runs in the sifted coordinates of "Normalization",
with Im phi = 0 (chi-bar is concave and even in it).  The constraint only
bounds s = a+b.  The search first leaves it out ("A-search"); if the free
maximum's s lies within the s-bounds it is the answer, and otherwise
concavity puts the maximum on the s-bound it violates, where the same
search runs at that s ("Pinned s").  Every evaluation is a call of
``chi_bar_of_params`` at a feasible point, and the best point is the
result.  The tests hold it to the grid oracle in ``tests/reference.py``.

Normalization.  The qubit rate 1 - h(Q) - chi_max is per postselected
signal.  The receiver's row ``cfg.receiver`` supplies the filter weights
(w0, w1) and xi = xi_effective, read once by ``constraint_set``; the solver
sees only the ``ConstraintSet``.  It works in the normalized
sifted coordinates (alpha, beta, gamma, delta) = (w0 a, w1 b, w0 c, w1 d)/T
and corner phi = sqrt(w0 w1) f / T, T the trace; ``_state`` maps a point
back.  The error rate Q fixes Re phi = u (alpha+gamma) + v (beta+delta),
where u = k (1-xi)/w0, v = k xi/w1 and k = sqrt(w0 w1) (1-2Q) /
(2 sqrt(xi(1-xi))).  For the unbalanced variant u = v = 1/2 - Q, and the
qubit constraint is the hyperplane L_kappa: alpha + kappa beta =
gamma/kappa + delta.  chi-bar is concave (spot-checked by acceptance
criterion 3) and invariant under the swap alpha<->delta, beta<->gamma,
phi -> conj(phi), which maps L_kappa onto L_(1/kappa); averaging a
feasible point with its swap gives a point on L_1 with at least the same
chi, so chi_max(kappa, Q) <= chi_max(1, Q) = h(Q).  The modulator's loss
enters through the kept weight instead: the noiseless source state |Phi>
survives sifting with p_kept = xi(1-xi), and the key per signal sent,
p_kept (1 - h(Q) - chi_max), is nondecreasing in kappa.  How an honest
noisy channel changes p_kept is not modelled here.

Exact branch.  When u = v (within 1e-12), Re phi = u = 1/2 - Q for every
state of trace 1: the unbalanced variant, both hardware fixes and PBS at
kappa = 1, not PBS at kappa < 1 (u - v = k (1 - 2 xi) < 0).  Without the
reduced-state constraint the feasible set is invariant under the swap and
chi-bar is concave, so the maximum lies at alpha = delta, beta = gamma,
where chi-bar is S(sigma) - h(Q), stationary at beta = Q(1-Q): sigma has
spectrum {(1-Q)^2, Q(1-Q), Q(1-Q), Q^2}, so chi = h(Q), the BB84 bound of
Shor and Preskill.  The point is PSD (alpha >= 1/2 - Q = phi).  If its s
lies within ``ConstraintSet.s_bounds`` (1e-12 slack) it is returned with
``iterations=0``; otherwise (p_lost = 0 with kappa < 1 and Q > 0, or a
binding s-bound) the pinned search runs.

A-search.  Write A = alpha+gamma.  The relation makes phi = u A + v (1-A),
and so S(conditional) = h((1+r)/2) with r = sqrt((2A-1)^2 + 4 phi^2), a
function of A alone.  At fixed A, chi-bar is therefore maximized by the
state of largest entropy under trace 1, alpha+gamma = A and corner phi(A):
sigma = exp(m1 P + m3 X) / Z with P = |00><00| + |10><10| and
X = |00><11| + |11><00|, whose multipliers minimize the convex dual
log Z - m1 A - 2 m3 phi(A) (the dual view of Coles, Metodiev and
Lutkenhaus, Nat. Commun. 7, 11712 (2016)); ``_max_entropy`` finds them by
Newton's method.  The best value of an A-slice is concave in A (sections
of a convex set, a concave objective), and its slope comes with the
multipliers: by the envelope theorem the slice entropy moves with A as
-m.c'/ln 2, c' the derivative of the dual's constraint values, and its
curvature follows from the dual Hessian H, since the multipliers move by
H^-1 c' (``_Search._slope``), which also predicts the next slice's
multipliers.  So a safeguarded Newton search on that slope, inside the
bracket its signs keep and from the middle of the A-range, finds the
maximum in a few slices.  Where a slice
has no slope (a face point, a failed solve, r >= 1, or a slice that the
slack below shapes), or the Newton point lies past an untried end of the
A-range, Brent's search (``qmath.brent_max``, after the ends) takes over
on the bracket left, and Newton steps then resume from the best slice.
Free, A ranges where phi(A)^2 <= A(1-A), the slice's largest alpha delta,
at beta = gamma = 0.  The range allows a slack, phi^2 <= alpha delta +
_SLACK, and the largest-entropy state takes the corner
sqrt(max(phi^2 - _SLACK, 0)), so every point evaluated keeps within it.

Pinned s.  The s-constraint (1-s)(a+b) = s(c+d) reads gamma/w0 +
delta/w1 = K(A) = (1-s)(A/w0 + (1-A)/w1) at fixed A, a third linear
constraint on a slice where phi(A) stays constant, so the argument carries
over with one more multiplier: sigma = exp(m1 P + m2 D + m3 X) / Z with
D = diag(0, 0, 1/w0, 1/w1), still a diagonal plus one 2x2 block.  That
constraint (``_Search.pin``) alone describes the slice: a segment in gamma
along which alpha delta falls from the face, gamma = 0 below the kink
A_k = s w0 / (s w0 + (1-s) w1) and beta = 0 above it, where alpha delta is
f1 = (1-s) A (1-A + A w1/w0) and f2 = s (1-A) (A + (1-A) w0/w1); A ranges
where phi(A)^2 <= min(f1, f2) + _SLACK.  Each of its two pieces, and the
free interval, is where a quadratic is <= 0, found by one routine,
``_reach``; above the kink with u = v and w0 = w1 the quadratic is a line,
and its piece runs from the kink to the line's root.  The face point
answers slices no wider than 2 _SLACK and failed Newton solves: the
multipliers diverge, and the solve fails, only where the slice's entropy
peaks on the face, to rounding.  Free or pinned, every point takes its phi
from the one relation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .protocol import ProtocolConfig
from .qmath import GOLD, ULPS, brent_max, entropy_term
from .sifting import SymmetricState

# corner-condition slack of the search, in sifted units; SymmetricState allows 1e-12
_SLACK = 1e-14
_LN2 = math.log(2.0)


class InfeasibleError(ValueError):
    """Raised when no attack state is compatible with the constraints."""


class ConstraintSet(NamedTuple):
    """The solver's whole input: receiver xi and weights (w0, w1), error rate q, loss p_lost."""

    xi: float
    weights: tuple[float, float]
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


class OptimResult(NamedTuple):
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
    receiver = cfg.receiver
    return ConstraintSet(receiver.xi_effective, receiver.weights, float(q), float(p_lost))


def chi_bar_of_params(alpha, beta, gamma, delta, phi) -> float:
    """Closed-form chi-bar of a sifted symmetric state (optimizer fast path).

    (alpha, beta, gamma, delta) is the diagonal of the normalized sifted
    state sigma and phi its corner (see "Normalization").  All four
    postselected conditional states share one spectrum, so chi-bar =
    S(sigma) - S(conditional), as the matrix route (``overall_holevo`` in
    ``tests/reference.py``) gives to machine precision.
    """
    phi = complex(phi)
    f2 = phi.real * phi.real + phi.imag * phi.imag
    half = 0.5 * (alpha - delta)
    disc = math.sqrt(half * half + f2)
    mid = 0.5 * (alpha + delta)
    s4 = (entropy_term(beta) + entropy_term(gamma) + entropy_term(mid + disc)
          + entropy_term(max(mid - disc, 0.0)))
    gap = alpha + gamma - beta - delta
    r = min(1.0, math.sqrt(gap * gap + 4.0 * f2))
    s2 = entropy_term(0.5 * (1.0 + r)) + entropy_term(0.5 * (1.0 - r))
    return s4 - s2


def _error_relation(cs: ConstraintSet):
    """(u, v) of the error-rate relation phi = u (alpha+gamma) + v (beta+delta)."""
    w0, w1 = cs.weights
    k = math.sqrt(w0 * w1) * (1.0 - 2.0 * cs.q) / (2.0 * math.sqrt(cs.xi * (1.0 - cs.xi)))
    return k * (1.0 - cs.xi) / w0, k * cs.xi / w1


def _state(weights, alpha, beta, gamma, delta, phi) -> SymmetricState:
    """The state of trace 1 whose sifted point is (alpha, beta, gamma, delta, phi)."""
    w0, w1 = weights
    a, b, c, d = alpha / w0, beta / w1, gamma / w0, delta / w1
    total = a + b + c + d
    return SymmetricState(a=a / total, b=b / total, c=c / total, d=d / total,
                          f=complex(phi / math.sqrt(w0 * w1) / total, 0.0))


# ---------------------------------------------------------------------------
# optimizer


def _reach(c2: float, c1: float, c0: float, disc: float, length: float):
    """The piece of [0, length] where c2 t^2 + c1 t + c0 <= 0, from 0 if c0 <= 0, else
    from the first positive root, as (lo, hi); lo > hi if there is none.  ``disc`` is
    c1^2 - 4 c2 c0, which the caller writes in the form that cancels least."""
    t = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1)) if disc >= 0.0 else 0.0
    roots = (t / c2 if c2 and t else 0.0, c0 / t if t else 0.0)  # c2 = 0: the second, -c0/c1
    ends = ([0.0] if c0 <= 0.0 else []) + sorted(r for r in roots if r > 0.0) + [math.inf] * 2
    return ends[0], min(ends[1], length)


def _gibbs(m, a_sum: float, b_sum: float, corner: float, pin):
    """The state exp(m1 P + m2 E + m3 X) / Z: its dual value, sifted point and dual Hessian.

    P = |00><00| + |10><10|, X = |00><11| + |11><00|, and at pinned s
    E = D - dd (I - P) = diag(0, -dd, dg, 0), D = diag(0, 0, dg, dd) from pin:
    the family of D with the (alpha, delta) block of the free solve (m2 = 0).
    So beta = e^(-m2 dd) / Z, gamma = e^(m1 + m2 dg) / Z, and the block is
    exp([[m1, m3], [m3, 0]]) / Z with eigenvalues e^(m1/2 +- rho) / Z.  The
    multipliers grow without bound near a face, so the weights and the dual
    log Z - m1 a_sum - m2 (k_sum - dd b_sum) - 2 m3 corner are taken
    relative to the largest weight, via rho - |m1|/2 = m3^2 / (rho + |m1|/2).
    The Hessian is the Kubo-Mori covariance of (P, E, X): their pairwise
    spread over the eigenstates plus the block's coherent term (free, E's
    row is the identity's).  Returns (dual, point, (h11, h12, h13, h22, h23, h33)).
    """
    m1, m2, m3 = m
    dg, dd, k_sum = pin[:3] if pin else (0.0, 0.0, 0.0)
    rho = math.hypot(0.5 * m1, m3)
    near = m3 * m3 / (rho + 0.5 * abs(m1)) if rho > 0.0 else 0.0  # rho - |m1|/2
    if m1 >= 0.0:
        d_beta, d_gamma, offset = -(m1 + near), -near, m1 * b_sum
    else:
        d_beta, d_gamma, offset = -near, m1 - near, -m1 * a_sum
    d_beta, d_gamma = d_beta - m2 * dd, d_gamma + m2 * dg
    shift = max(0.0, d_beta, d_gamma)  # above 0 when beta or gamma outweighs the block
    low, gap = math.exp(-2.0 * rho), -math.expm1(-2.0 * rho)  # e^(-2 rho) and 1 - e^(-2 rho)
    top = math.exp(-shift)
    zrel = top + top * low + math.exp(d_beta - shift) + math.exp(d_gamma - shift)
    wr = 1.0 / zrel
    wp = wr * top
    wb, wg, wm = wr * math.exp(d_beta - shift), wr * math.exp(d_gamma - shift), wp * low
    if rho > 0.0:
        sc, c = 0.5 * m3 / rho, 0.5 * m1 / rho  # sin(theta)/2, cos(theta)
        half = near / (2.0 * rho)  # sin^2 or cos^2 of theta/2, whichever is smaller
        cp, cm = (1.0 - half, half) if m1 >= 0.0 else (half, 1.0 - half)
        coh = wp * gap / (2.0 * rho)
    else:
        sc, c, cp, cm, coh = 0.0, 1.0, 1.0, 0.0, wp
    dual = offset - m2 * (k_sum - dd * b_sum) + near + shift - 2.0 * m3 * corner + math.log(zrel)
    point = alpha, beta, gamma, delta, phi = (wp * cp + wm * cm, wb, wg, wp * cm + wm * cp,
                                              wp * gap * sc)
    h11 = (wb * wg + wb * wp * cp * cp + wb * wm * cm * cm + wg * wp * cm * cm
           + wg * wm * cp * cp + wp * wm * c * c + 2.0 * coh * sc * sc)
    h13 = 2.0 * sc * (wb * wp * cp - wb * wm * cm - wg * wp * cm + wg * wm * cp
                      + 2.0 * wp * wm * c - coh * c)
    h33 = 4.0 * sc * sc * ((wb + wg) * (wp + wm) + 4.0 * wp * wm) + 2.0 * coh * c * c
    if not pin:
        return dual, point, (h11, 0.0, h13, 1.0, 0.0, h33)
    h12 = wb * wg * (dd + dg) + dd * wb * alpha + dg * wg * delta
    h22 = wb * wg * (dd + dg) ** 2 + (wp + wm) * (wb * dd * dd + wg * dg * dg)
    return dual, point, (h11, h12, h13, h22, 2.0 * phi * (dd * wb - dg * wg), h33)


def _descent(hess, g1: float, g2: float, g3: float):
    """The Newton step -H^-1 g by LDL^T, or None if H is not positive definite.

    Near a face H has eigenvalues as small as the nearly empty eigenstates'
    weights, where elimination keeps its pivots and a determinant cancels.
    """
    h11, h12, h13, h22, h23, h33 = hess
    l21, l31 = (h12 / h11, h13 / h11) if h11 > 0.0 else (0.0, 0.0)
    p2, r = h22 - l21 * h12, h23 - l31 * h12
    p3 = h33 - l31 * h13 - r * r / p2 if p2 > 0.0 else 0.0
    if not (h11 > 0.0 and p3 > 0.0):
        return None
    y2 = -g2 + l21 * g1
    d3 = (-g3 + l31 * g1 - r / p2 * y2) / p3
    d2 = (y2 - r * d3) / p2
    return -g1 / h11 - l21 * d2 - l31 * d3, d2, d3


def _max_entropy(a_sum: float, b_sum: float, corner: float, pin=None, mu=None):
    """The largest-entropy sifted point of an A-slice, its multipliers and dual Hessian, or None.

    The slice: alpha+gamma = a_sum, beta+delta = b_sum, corner ``corner``,
    and at pinned s gamma dg + delta dd = k_sum, alpha dg + beta dd = k_rest,
    from pin = (dg, dd, k_sum, k_rest).  Newton's method with backtracking on the
    dual of ``_gibbs`` starts from ``mu`` (multipliers predicted from a solved
    slice) or from (log(a_sum/b_sum), 0, 0), whichever has the lower dual.
    The Hessian, (h11, h12, h13, h22, h23, h33) at the returned multipliers,
    gives the slice's slope and curvature in A (``_Search.a_slice``).
    """
    dg, dd, k_sum, k_rest = pin or (0.0, 0.0, 0.0, 0.0)
    m1, m2, m3 = math.log(a_sum / b_sum), 0.0, 0.0
    dual, point, hess = _gibbs((m1, m2, m3), a_sum, b_sum, corner, pin)
    if mu is not None:
        warm = _gibbs(mu, a_sum, b_sum, corner, pin)
        if warm[0] < dual:
            (m1, m2, m3), (dual, point, hess) = mu, warm
    for _ in range(60):
        alpha, beta, gamma, delta, phi = point
        # the residual of the smaller side keeps its relative precision
        g1 = alpha + gamma - a_sum if a_sum <= b_sum else b_sum - beta - delta
        g2 = (gamma * dg + delta * dd - k_sum if k_sum <= k_rest
              else k_rest - alpha * dg - beta * dd + (dg - dd) * g1)
        g3 = 2.0 * (phi - corner)
        if (abs(g1) <= 1e-14 * min(a_sum, b_sum) and abs(g2) <= 1e-14 * min(k_sum, k_rest)
                and abs(g3) <= 1e-14 * corner):
            return point, (m1, m2, m3), hess
        e2 = g2 + dd * g1  # E's residual, the dual's gradient in m2
        d = _descent(hess, g1, e2, g3)
        if d is None:
            return None
        d1, d2, d3 = d
        slope = g1 * d1 + e2 * d2 + g3 * d3
        # a near-singular Hessian can ask for any length; at most double the multipliers
        step = min(1.0, max(16.0, abs(m1), abs(m2), abs(m3)) / max(abs(d1), abs(d2), abs(d3)))
        noise = 1e-14 * (1.0 + abs(m1) + abs(m2) + abs(m3))  # rounding of the dual's terms
        for _ in range(40):
            trial_m = (m1 + step * d1, m2 + step * d2, m3 + step * d3)
            trial = _gibbs(trial_m, a_sum, b_sum, corner, pin)
            if trial[0] <= dual + 1e-4 * step * slope + noise:
                break
            step *= 0.5
        else:
            return None
        (m1, m2, m3), (dual, point, hess) = trial_m, trial
    return None


class _Search:
    """One search over A = alpha+gamma of the A-slices' largest-entropy points.

    Free when ``s`` is None, else at pinned s.  Each slice's constraint,
    ``pin`` (None when free), is built once and passed to ``face`` and the
    Newton solve.  Every point takes its corner phi from the one error-rate
    relation (``relation``).
    Keeps the best point, the evaluation count, each evaluated slice's
    (chi, slope, curvature) by A (``slices``), and in ``warm`` the last
    solved slice's A, multipliers and their derivative in A, from which the
    next slice's solve starts.  ``run`` sets the A-interval (lo, hi).
    """

    def __init__(self, cs: ConstraintSet, s=None):
        self.uv = _error_relation(cs)
        self.weights = cs.weights
        self.s, self.warm, self.slices = s, None, {}
        self.evals, self.chi, self.point = 0, -math.inf, None
        self.lo = self.hi = None

    def relation(self, alpha: float, beta: float, gamma: float, delta: float):
        """The sifted point with the relation's corner phi = u (alpha+gamma) + v (beta+delta)."""
        u, v = self.uv
        return alpha, beta, gamma, delta, u * (alpha + gamma) + v * (beta + delta)

    def face(self, a_sum: float, b_sum: float, pin):
        """The A-slice's point of largest alpha delta: beta = gamma = 0 when free (pin None),
        else from ``pin``: gamma = 0 if delta = k_sum/dd fits in b_sum, else beta = 0."""
        if pin is None:
            return self.relation(a_sum, 0.0, 0.0, b_sum)
        dg, dd, k_sum, _ = pin
        if k_sum <= dd * b_sum:
            return self.relation(a_sum, b_sum - k_sum / dd, 0.0, k_sum / dd)
        gamma = (k_sum - dd * b_sum) / dg
        return self.relation(a_sum - gamma, 0.0, gamma, b_sum)

    def a_range(self):
        """The interval of A whose slices are feasible, lo > hi if none.

        ``_reach`` finds each piece.  Above the kink, and free, the slices'
        face is beta = 0, where alpha = a0 + a1 delta is affine in delta =
        1-A and the relation gives phi = u + (v-u) delta, solved from delta =
        0: at small kappa v is large, and the interval sits near A = 1.  With
        u = v and w0 = w1 (qa = 0) the quadratic is a line, <= 0 from its root
        to b_k.  Below the kink, phi^2 - f1 is expanded there.
        """
        (u, v), (w0, w1), s = self.uv, self.weights, self.s
        pieces = []
        if s is None:
            a0, a1, length = 1.0, -1.0, 1.0
        else:
            den = s * w0 + (1.0 - s) * w1
            a_k, b_k = s * w0 / den, (1.0 - s) * w1 / den
            a0, a1, length = s, s * (w0 - w1) / w1, b_k
            # below the kink, phi^2 - f1 - _SLACK in the distance t = A_k - A
            du, r, phi = u - v, w1 / w0, u * a_k + v * b_k
            c2 = du * du - (1.0 - s) * (r - 1.0)
            c1 = (1.0 - s) * (b_k - a_k + 2.0 * r * a_k) - 2.0 * phi * du
            c0 = phi * phi - a_k * b_k - _SLACK
            t1, t2 = _reach(c2, c1, c0, c1 * c1 - 4.0 * c2 * c0, a_k)
            if t1 <= t2:
                pieces.append((a_k - t2, a_k - t1))
        # phi^2 - alpha delta - _SLACK on the beta = 0 face, phi = f0 + f1 delta
        f0, f1 = u, v - u
        qa = f1 * f1 - a1  # 0 only if u = v and w0 = w1
        d_lo, d_hi = _reach(qa, 2.0 * f0 * f1 - a0, f0 * f0 - _SLACK,
                            a0 * (a0 - 4.0 * f0 * f1) + 4.0 * qa * _SLACK + 4.0 * a1 * f0 * f0,
                            length)
        if d_lo <= d_hi:
            pieces.append((1.0 - d_hi, 1.0 - d_lo))
        lows, highs = zip(*pieces) if pieces else ((1.0,), (0.0,))
        return max(0.0, min(lows)), min(1.0, max(highs))

    def pin(self, a_sum: float, b_sum: float):
        """A slice's s-constraint (dg, dd, k_sum, k_rest), D's largest entry 1; None when free."""
        if self.s is None:
            return None
        w0, w1 = self.weights
        dg, dd = (1.0, w0 / w1) if w0 <= w1 else (w1 / w0, 1.0)
        total = a_sum * dg + b_sum * dd
        return dg, dd, (1.0 - self.s) * total, self.s * total

    def a_slice(self, a_sum: float):
        """(chi, slope, curvature) of the largest-entropy point with alpha+gamma = a_sum.

        chi is chi-bar, S(sigma) - S2, where S2 is fixed by A.  The slice's ``pin`` is
        built once and serves both the face point and the Newton solve, which starts
        from the multipliers that the last solved slice predicts here; the corner comes
        from ``relation``.  The face point stands in where sqrt(phi^2 - _SLACK) meets
        the face (within 2 _SLACK when pinned) or the solve fails ("Pinned s"); such a
        slice has no multipliers, and its slope and curvature are None, as where
        ``_slope`` gives none.  A slice is solved at most once per search.
        """
        if a_sum in self.slices:
            return self.slices[a_sum]
        (u, v), b_sum = self.uv, 1.0 - a_sum
        corner2 = (u * a_sum + v * b_sum) ** 2 - _SLACK
        pin = self.pin(a_sum, b_sum)
        point = self.face(a_sum, b_sum, pin)
        thin = 0.0 if pin is None else 2.0 * _SLACK
        slope = curvature = None
        if a_sum * b_sum and corner2 + thin < point[0] * point[3]:
            mu = None
            if self.warm:
                at, m, dm = self.warm
                mu = tuple(mi + di * (a_sum - at) for mi, di in zip(m, dm))
            solved = _max_entropy(a_sum, b_sum, math.sqrt(max(corner2, 0.0)), pin, mu)
            if solved:
                point, m, hess = solved
                slope, curvature, dm = self._slope(a_sum, point, m, hess, pin)
                self.warm = a_sum, m, dm
        point = self.relation(*point[:4])
        chi = chi_bar_of_params(*point)
        self.evals += 1
        if chi > self.chi:
            self.chi, self.point = chi, point
        self.slices[a_sum] = chi, slope, curvature
        return chi, slope, curvature

    def _slope(self, a_sum: float, point, m, hess, pin):
        """A solved slice's slope and curvature of chi in A (or None, None), and dm/dA.

        The dual's constraint values c = (A, k_sum - dd (1-A), 2 corner) move
        with A by c' = (1, (1-s)(dg - dd) + dd, 2 phi (u-v) / corner), with 0
        in the middle when free.  The dual's minimum is the slice's entropy
        (nats), so by the envelope theorem its slope is -m.c'; the optimal
        multipliers move by dm/dA = H^-1 c', so its curvature is
        -c'.H^-1 c' - m3 c3'', where c3'' comes from the slack in the corner.
        S2 = h((1+r)/2), r^2 = (2A-1)^2 + 4 phi^2, is differentiated in
        closed form.  No slope where r = 0 or r >= 1, or where alpha delta <
        phi^2: there chi-bar, which evaluates the point at the corner phi,
        clips the block's small eigenvalue, and the slack, not the entropy
        whose slope this is, shapes the slice.  Nor where H^-1 c' is not
        defined (corner 0, H not positive definite).  dm/dA is 0 wherever
        there is no slope, so that a search without slopes starts each slice
        from the last slice's multipliers.
        """
        (u, v), du = self.uv, self.uv[0] - self.uv[1]
        phi = u * a_sum + v * (1.0 - a_sum)
        corner2 = phi * phi - _SLACK
        mid = 0.0 if pin is None else (1.0 - self.s) * (pin[0] - pin[1]) + pin[1]
        c = (1.0, mid, 2.0 * phi * du / math.sqrt(corner2)) if corner2 > 0.0 else None
        down = c and _descent(hess, *c)  # -H^-1 c'
        gap = 2.0 * a_sum - 1.0
        r = math.sqrt(gap * gap + 4.0 * phi * phi)
        if down is None or not 0.0 < r < 1.0 or point[0] * point[3] < phi * phi:
            return None, None, (0.0, 0.0, 0.0)
        c3_2 = -2.0 * du * du * _SLACK / (corner2 * math.sqrt(corner2))
        slope4 = -sum(mi * ci for mi, ci in zip(m, c)) / _LN2
        curv4 = (sum(ci * di for ci, di in zip(c, down)) - m[2] * c3_2) / _LN2
        r1 = (2.0 * gap + 4.0 * phi * du) / r
        r2 = (4.0 + 4.0 * du * du - r1 * r1) / r
        log_ratio = math.log2((1.0 - r) / (1.0 + r))
        curv2 = -r1 * r1 / (_LN2 * (1.0 - r) * (1.0 + r)) + 0.5 * log_ratio * r2
        return slope4 - 0.5 * log_ratio * r1, curv4 - curv2, (-down[0], -down[1], -down[2])

    def run(self) -> None:
        """Newton steps on the slices' slope, and Brent's search where they stop short.

        The Newton steps (``_newton``) start in the middle of the A-interval,
        where the qubit-level maxima lie close by.  Where they stop at a slice
        with no slope, or where the Newton point lies past an end of the
        A-interval that no slice has tried (maxima on an end are common at
        small kappa and with loss), the derivative-free ``_settle`` searches
        the bracket that the slopes leave, and Newton steps resume from the
        best slice.  If the middle slice has no slope, ``_settle`` starts as
        the search without slopes did, cold from the golden-section point.
        """
        self.lo, self.hi = lo, hi = self.a_range()
        if lo > hi:
            return
        if hi == lo:
            self.a_slice(lo)
            return
        x = self._newton(0.5 * (lo + hi))
        if x is not None:
            a, b = self._bracket()
            if (a, b) == (lo, hi) and self.slices[x][1] is None:
                x, self.warm = lo + GOLD * (hi - lo), None
            self._settle(a, b, x, 1.5e-8 * (hi - lo))
            self._newton(max(self.slices, key=lambda at: self.slices[at][0]))

    def _bracket(self):
        """The part of the A-interval where the slopes of the slices evaluated leave the maximum."""
        a, b = self.lo, self.hi
        for at, (_, slope, _) in self.slices.items():
            if slope is not None:
                a, b = (max(a, at), b) if slope > 0.0 else (a, min(b, at))
        return a, b

    def _newton(self, x: float):
        """Safeguarded Newton steps on the slope from x; None once they converge.

        The next point is x - slope/curvature, or the middle of the bracket
        (``_bracket``) where that leaves the bracket or is not half the step
        before last (the safeguard of rtsafe, Numerical Recipes, 9.4), so that
        the bracket keeps shrinking.  The steps stop once the predicted gain,
        slope step / 2, is below the rounding of chi, the step is below an ulp
        of x, or the slopes cross within rounding (an empty bracket).  They
        stop short, returning the last point, at a slice with no slope or where
        the Newton point lies past an end of the A-interval not yet tried.
        """
        older = last = math.inf
        while True:
            _, slope, curvature = self.a_slice(x)
            if slope is None:
                return x
            a, b = self._bracket()
            step = -slope / curvature if curvature < 0.0 else math.copysign(math.inf, slope)
            if slope == 0.0 or slope * step <= ULPS or not a < b:
                return None
            inside = a < x + step < b
            if not inside and (b if slope > 0.0 else a) not in self.slices:
                return x
            if not inside or abs(step) > 0.5 * older:
                step = 0.5 * (a + b) - x
            if abs(step) <= ULPS * abs(x):
                return None
            x, older, last = x + step, last, abs(step)

    def _settle(self, a: float, b: float, x: float, span: float) -> None:
        """Brent's search over [a, b] from x in it, the ends other than x first.

        Maxima on or next to an end are common here, and golden steps alone
        would close in on them slowly.  An end that beats x is the maximum if
        the slices do not rise one tolerance step inward; otherwise the search
        runs between that end and x.
        """
        def chi(a_sum):
            return self.a_slice(a_sum)[0]

        fx = chi(x)
        f_end, end = max((chi(e), e) for e in (a, b) if e != x)
        if f_end >= fx:
            step = end + math.copysign(span + ULPS * abs(end), x - end)
            f_step = chi(step) if abs(step - end) < abs(x - end) else -math.inf
            if f_step <= f_end:
                return
            a, b = sorted((end, x))
            x, fx = step, f_step
        brent_max(chi, a, b, x, fx, span)


def _maximize(cs: ConstraintSet) -> OptimResult:
    # min(chi, 1): one key bit bounds the Holevo quantity; PBS rounds above it at kappa < 1e-13
    lo, hi = cs.s_bounds()
    free = _Search(cs)
    u, v = free.uv
    if abs(u - v) <= 1e-12:
        beta = cs.q * (1.0 - cs.q)
        # alpha+gamma = beta+delta = 1/2, so the relation gives phi = (u+v)/2
        free.point = (0.5 - beta, beta, beta, 0.5 - beta, 0.5 * (u + v))
    elif lo < hi:
        free.run()
    if free.point is not None:
        state = _state(cs.weights, *free.point)
        if lo - 1e-12 <= state.a + state.b <= hi + 1e-12:
            # the exact branch's point is evaluated only here, outside the count
            chi = free.chi if free.evals else chi_bar_of_params(*free.point)
            return OptimResult(chi_max=min(chi, 1.0), argmax=state, iterations=free.evals)
        # concavity puts the maximum on the s-bound that the free maximum violates
        lo = min(max(state.a + state.b, lo), hi)
    pinned = _Search(cs, lo)
    pinned.run()
    if pinned.point is None:
        raise InfeasibleError(f"no feasible attack state found (q={cs.q}, p_lost={cs.p_lost})")
    return OptimResult(chi_max=min(pinned.chi, 1.0), argmax=_state(cs.weights, *pinned.point),
                       iterations=free.evals + pinned.evals)


def maximize_holevo_qubit(cfg: ProtocolConfig, q: float, p_lost: float = 0.0) -> OptimResult:
    """Maximal chi-bar at error rate q with a fraction p_lost of single photons lost.

    At p_lost = 0 the reduced-state constraint is exact (a+b = xi,
    c+d = 1-xi), the qubit-level bound; above it the constraint is relaxed
    by the loss.  Re f is fixed by the error rate and Im f is free.
    """
    return _maximize(constraint_set(cfg, q, p_lost))
