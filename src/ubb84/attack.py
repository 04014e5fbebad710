"""Constrained maximization of the eavesdropper's Holevo quantity.

The feasible set is the family of group-symmetric attack states written as
(a, b, c, d, f).  Two constraint modes exist:

* qubit - the reduced sender state is pinned exactly: a+b = xi, c+d = 1-xi.
* realistic - only the weaker conservation constraint survives:
  xi - (1-p_lost)(a+b) >= 0 and (1-xi) - (1-p_lost)(c+d) >= 0, i.e. the lost
  photons must account for the remainder with a valid density matrix.

In both modes Re[f] is eliminated by the observed error rate and the corner
block must stay PSD (|f|^2 <= a d).  The free coordinates are
(s, b, c, Im f) with s = a+b; in qubit mode s is pinned at xi, which matches
the (b, c, Im f) parametrization after the textbook eliminations.

Where the exact branch below applies, the maximum is returned in closed
form and no search runs.  Everywhere else the search is a multi-start
Nelder-Mead simplex (deterministic seeded starts, clamping plus penalty
1e3 * violation) followed by bounded coordinate refinement.  A
feasibility-filtered dense grid serves as an independent lower-bound
oracle; it spreads its b points over the feasible b-interval of each
(s, c, Im f) and evaluates chi-bar through explicit sifted matrices and
batched eigendecompositions, a separate code path from the scalar closed
form used by the optimizer.

Normalization.  The qubit rate 1 - h(Q) - chi_max is per postselected
signal.  Write the sifted state in normalized coordinates: diagonal
(alpha, beta, gamma, delta) = (w0 a, w1 b, w0 c, w1 d)/T and corner
phi = sqrt(w0 w1) f / T.  For the unbalanced variant the qubit constraint
becomes the hyperplane L_kappa: alpha + kappa beta = gamma/kappa + delta,
and Q fixes Re phi = 1/2 - Q.  chi-bar depends on these coordinates alone,
is concave (spot-checked by acceptance criterion 3) and is invariant under
the swap alpha<->delta, beta<->gamma, phi -> conj(phi), which maps L_kappa
onto L_(1/kappa).  Averaging a feasible point with its swap gives a point
on L_1 with at least the same chi, so chi_max(kappa, Q) <= chi_max(1, Q)
= h(Q): per postselected signal the unbalanced rate is never below BB84's.
The modulator's loss enters through the kept weight instead: the noiseless
source state |Phi> survives sifting with p_kept = xi(1-xi), and the key per
signal sent is p_kept (1 - h(Q) - chi_max).  That product, not the rate
per postselected signal, is the one that is nondecreasing in kappa.  How
an honest noisy channel changes p_kept is not modelled here.

Exact branch.  When the filter weights satisfy w0 xi = w1 (1-xi) (within
1e-12), the error rate fixes Re phi = 1/2 - Q for every state.  That holds
for the unbalanced variant, for both hardware fixes (xi_effective = 1/2)
and for PBS at kappa = 1, but not for PBS at kappa < 1.  Leave out the
reduced-state constraint: the remaining feasible set is invariant under
the swap alpha<->delta, beta<->gamma and under phi -> conj(phi), and
chi-bar is concave (relative entropy is jointly convex), so the maximum
lies at alpha = delta, beta = gamma, Im phi = 0.  On that line chi-bar is
S(sigma) - h(Q), and S(sigma) is stationary at beta = Q(1-Q),
alpha = 1/2 - Q(1-Q), where sigma has spectrum
{(1-Q)^2, Q(1-Q), Q(1-Q), Q^2} and entropy 2 h(Q); so chi = h(Q), the
BB84 bound of Shor and Preskill.  Mapped back, (a, b, c, d) is
proportional to (alpha/w0, beta/w1, beta/w0, alpha/w1), Re f follows from
``re_f_from_Q`` and Im f = 0.  The reduced-state constraint only bounds
s = a+b, so if s lies within ``ConstraintSet.s_bounds`` (1e-12 slack) and
the point is PSD within ``PSD_TOL`` it is the maximum over the full
feasible set, and ``_maximize`` returns it with ``iterations=0``.
Otherwise Nelder-Mead runs: in qubit mode at kappa < 1 with Q > 0 (there
s = xi + 2 Q(1-Q)(1 - 2 xi) misses the pinned s = xi), in realistic mode
when an s-bound binds (low loss), and for PBS at kappa < 1.  By concavity
the true maximum then lies on the violated s-bound and is at most h(Q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .protocol import ProtocolConfig
from .qmath import binary_entropy
from .sifting import SymmetricState, re_f_from_Q

__all__ = [
    "ConstraintSet",
    "InfeasibleError",
    "OptimResult",
    "chi_bar_of_params",
    "constraint_set_qubit",
    "constraint_set_realistic",
    "grid_oracle",
    "maximize_holevo_qubit",
    "maximize_holevo_realistic",
    "qubit_keyrate",
    "qubit_keyrate_raw",
]

DEFAULT_SEED = 11
N_STARTS = 20
PENALTY = 1e3
PSD_TOL = 1e-12


class InfeasibleError(ValueError):
    """Raised when no attack state is compatible with the constraints."""


@dataclass(frozen=True)
class ConstraintSet:
    """Feasible-region description for the attack optimization."""

    mode: str  # "qubit" | "realistic"
    xi: float
    q: float
    p_lost: float = 0.0

    def s_bounds(self):
        """Allowed range of s = a+b implied by the reduced-state constraint."""
        if self.mode == "qubit":
            return self.xi, self.xi
        kept = 1.0 - self.p_lost
        if kept <= 1e-15:
            return 0.0, 1.0
        lo = max(0.0, 1.0 - (1.0 - self.xi) / kept)
        hi = min(1.0, self.xi / kept)
        return lo, hi

    def violation(self, a, b, c, d, f) -> float:
        """Total constraint violation (0 on the feasible set)."""
        v = max(0.0, abs(f) ** 2 - a * d)
        v += sum(max(0.0, -x) for x in (a, b, c, d))
        v += abs(a + b + c + d - 1.0)
        lo, hi = self.s_bounds()
        s = a + b
        v += max(0.0, lo - s) + max(0.0, s - hi)
        return v

    def is_feasible(self, a, b, c, d, f, tol=1e-8) -> bool:
        return self.violation(a, b, c, d, f) <= tol


@dataclass(frozen=True)
class OptimResult:
    chi_max: float
    argmax: SymmetricState
    iterations: int
    converged: bool


def constraint_set_qubit(cfg: ProtocolConfig, q: float) -> ConstraintSet:
    if not 0.0 <= q < 0.5:
        raise ValueError(f"error rate must be in [0, 0.5), got {q!r}")
    return ConstraintSet(mode="qubit", xi=cfg.xi_effective, q=float(q))

def constraint_set_realistic(cfg: ProtocolConfig, q: float, p_lost: float) -> ConstraintSet:
    if not 0.0 <= q < 0.5:
        raise ValueError(f"error rate must be in [0, 0.5), got {q!r}")
    if not 0.0 <= p_lost < 1.0 + 1e-12:
        raise ValueError(f"p_lost must be in [0, 1), got {p_lost!r}")
    return ConstraintSet(mode="realistic", xi=cfg.xi_effective, q=float(q), p_lost=float(p_lost))


def _h_term(x: float) -> float:
    return 0.0 if x <= 1e-18 else -x * math.log2(x)


def chi_bar_of_params(cfg: ProtocolConfig, a, b, c, d, f) -> float:
    """Closed-form chi-bar of a symmetric state (optimizer fast path).

    Sifting maps the state to sigma with diagonal (w0 a, w1 b, w0 c, w1 d)/T
    and corner sqrt(w0 w1) f / T, where (w0, w1) come from the receiver
    filter and T normalizes the trace.  All four postselected conditional
    states share one spectrum, so chi-bar = S(sigma) - S(conditional).
    Agrees with the generic matrix route to machine precision.
    """
    w0, w1 = cfg.filter_weights
    f = complex(f)
    t = w0 * (a + c) + w1 * (b + d)
    aa, bb, cc, dd = w0 * a / t, w1 * b / t, w0 * c / t, w1 * d / t
    f2 = w0 * w1 * (f.real * f.real + f.imag * f.imag) / (t * t)
    half = 0.5 * (aa - dd)
    disc = math.sqrt(half * half + f2)
    mid = 0.5 * (aa + dd)
    s4 = _h_term(bb) + _h_term(cc) + _h_term(mid + disc) + _h_term(max(mid - disc, 0.0))
    gap = aa + cc - bb - dd
    r = min(1.0, math.sqrt(gap * gap + 4.0 * f2))
    s2 = _h_term(0.5 * (1.0 + r)) + _h_term(0.5 * (1.0 - r))
    return s4 - s2


# ---------------------------------------------------------------------------
# optimizer


def _build_point(z, cs: ConstraintSet, pin_s: bool):
    """Clamp a raw simplex point into the box and derive the full state.

    Returns (a, b, c, d, re_f, im_f, violation); the only violation that can
    survive the clamping is the PSD corner condition.
    """
    lo, hi = cs.s_bounds()
    if pin_s:
        s = cs.xi
        b, c, im = z
    else:
        s, b, c, im = z
        s = min(max(s, lo), hi)
    b = min(max(b, 0.0), s)
    c = min(max(c, 0.0), 1.0 - s)
    im = min(max(im, -0.5), 0.5)
    a = s - b
    d = (1.0 - s) - c
    re = re_f_from_Q(a, b, c, d, cs.q, cs.xi)
    viol = max(0.0, re * re + im * im - a * d)
    return a, b, c, d, re, im, viol


def _objective(z, cfg, cs, pin_s):
    a, b, c, d, re, im, viol = _build_point(z, cs, pin_s)
    norm = math.hypot(re, im)
    cap = math.sqrt(max(a * d, 0.0))
    if norm > cap and norm > 0.0:
        # evaluate on the PSD boundary; the violation enters via the penalty
        scale = cap / norm * (1.0 - 1e-12)
        re, im = re * scale, im * scale
    chi = chi_bar_of_params(cfg, a, b, c, d, complex(re, im))
    return -(chi - PENALTY * viol)


def _finalize(z, cfg, cs, pin_s):
    """Project a candidate onto the feasible set; None if it cannot be."""
    a, b, c, d, re, im, _ = _build_point(z, cs, pin_s)
    ad = a * d
    if re * re > ad + PSD_TOL:
        return None
    cap = math.sqrt(max(ad - re * re, 0.0))
    im = math.copysign(min(abs(im), cap), im)
    f = complex(re, im)
    chi = chi_bar_of_params(cfg, a, b, c, d, f)
    return chi, (a, b, c, d, f)


def _start_points(cs: ConstraintSet, pin_s: bool, seed: int):
    lo, hi = cs.s_bounds()
    s0 = min(max(cs.xi, lo), hi)
    q = cs.q
    mix = min(1.0, 2.0 * q)
    canonical = [
        (s0, 0.0, 0.0, 0.0),
        (s0, s0 * 2.0 * q * (1.0 - q), (1.0 - s0) * 2.0 * q * (1.0 - q), 0.0),
        (s0, s0 * mix / 2.0, (1.0 - s0) * mix / 2.0, 0.0),
        (s0, s0 / 2.0, (1.0 - s0) / 2.0, 0.0),
    ]
    rng = np.random.default_rng(seed)
    points = []
    for s, b, c, im in canonical:
        points.append((b, c, im) if pin_s else (s, b, c, im))
    while len(points) < N_STARTS:
        s = rng.uniform(lo, hi) if not pin_s else s0
        b = rng.uniform(0.0, s)
        c = rng.uniform(0.0, 1.0 - s)
        im = rng.uniform(-0.4, 0.4)
        points.append((b, c, im) if pin_s else (s, b, c, im))
    return points[:N_STARTS]


def _symmetric_optimum(cfg: ProtocolConfig, cs: ConstraintSet) -> OptimResult | None:
    """The exact maximum chi = h(Q) where it applies, else None.

    Applies when the filter weights make Re phi = 1/2 - Q for every state
    (w0 xi = w1 (1-xi)) and the symmetric optimum meets the s-bounds; see
    "Exact branch" in the module docstring.
    """
    w0, w1 = cfg.filter_weights
    if abs(w0 * cs.xi - w1 * (1.0 - cs.xi)) > 1e-12:
        return None
    beta = cs.q * (1.0 - cs.q)
    alpha = 0.5 - beta
    raw = (alpha / w0, beta / w1, beta / w0, alpha / w1)
    total = sum(raw)
    a, b, c, d = (x / total for x in raw)
    lo, hi = cs.s_bounds()
    if not lo - 1e-12 <= a + b <= hi + 1e-12:
        return None
    re = re_f_from_Q(a, b, c, d, cs.q, cs.xi)
    if re * re > a * d + PSD_TOL:
        return None
    f = complex(re, 0.0)
    return OptimResult(
        chi_max=chi_bar_of_params(cfg, a, b, c, d, f),
        argmax=SymmetricState(a=a, b=b, c=c, d=d, f=f),
        iterations=0,
        converged=True,
    )


def _maximize(cfg: ProtocolConfig, cs: ConstraintSet, seed: int) -> OptimResult:
    exact = _symmetric_optimum(cfg, cs)
    if exact is not None:
        return exact
    lo, hi = cs.s_bounds()
    pin_s = (hi - lo) < 1e-12
    starts = _start_points(cs, pin_s, seed)

    iterations = 0
    converged = False
    candidates = list(starts)
    for z0 in starts:
        res = minimize(
            _objective,
            np.asarray(z0, dtype=float),
            args=(cfg, cs, pin_s),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-9, "maxiter": 4000},
        )
        iterations += int(res.nit)
        converged = converged or bool(res.success)
        candidates.append(tuple(res.x))

    best_chi = -math.inf
    best_z = None
    best_state = None
    for z in candidates:
        final = _finalize(z, cfg, cs, pin_s)
        if final is not None and final[0] > best_chi:
            best_chi, best_state = final
            best_z = z
    if best_state is None:
        raise InfeasibleError(
            f"no feasible attack state found (mode={cs.mode}, q={cs.q}, p_lost={cs.p_lost})"
        )

    # coordinate refinement around the incumbent
    boxes = ([(0.0, cs.xi), (0.0, 1.0 - cs.xi), (-0.5, 0.5)] if pin_s
             else [(lo, hi), (0.0, 1.0), (0.0, 1.0), (-0.5, 0.5)])
    z = list(best_z)
    for _ in range(3):
        for k, (blo, bhi) in enumerate(boxes):
            if bhi - blo < 1e-12:
                continue

            def along(v, k=k):
                zz = list(z)
                zz[k] = v
                return _objective(zz, cfg, cs, pin_s)

            res = minimize_scalar(along, bounds=(blo, bhi), method="bounded",
                                  options={"xatol": 1e-10})
            if res.fun < _objective(z, cfg, cs, pin_s):
                z[k] = float(res.x)
    final = _finalize(z, cfg, cs, pin_s)
    if final is not None and final[0] > best_chi:
        best_chi, best_state = final

    a, b, c, d, f = best_state
    return OptimResult(
        chi_max=best_chi,
        argmax=SymmetricState(a=a, b=b, c=c, d=d, f=f),
        iterations=iterations,
        converged=converged,
    )


def maximize_holevo_qubit(cfg: ProtocolConfig, q: float, *, seed: int = DEFAULT_SEED) -> OptimResult:
    """Maximal chi-bar under the exact reduced-state constraint.

    Maximizes over symmetric states with a+b = xi, c+d = 1-xi, Re f fixed by
    the error rate and Im f free.
    """
    return _maximize(cfg, constraint_set_qubit(cfg, q), seed)


def maximize_holevo_realistic(cfg: ProtocolConfig, q: float, p_lost: float, *,
                              seed: int = DEFAULT_SEED) -> OptimResult:
    """Maximal chi-bar under the loss-relaxed reduced-state constraint."""
    return _maximize(cfg, constraint_set_realistic(cfg, q, p_lost), seed)


def qubit_keyrate_raw(cfg: ProtocolConfig, q: float, *, seed: int = DEFAULT_SEED):
    """(rate, chi_max) with rate = 1 - h(Q) - chi_max, sign preserved."""
    result = maximize_holevo_qubit(cfg, q, seed=seed)
    return 1.0 - binary_entropy(q) - result.chi_max, result.chi_max


def qubit_keyrate(cfg: ProtocolConfig, q: float, *, seed: int = DEFAULT_SEED) -> float:
    """Key rate per postselected signal, floored at zero for reporting.

    For the unbalanced variant at kappa < 1 this is at least the balanced
    value; times the kept weight p_kept = xi(1-xi) it is the key per signal
    sent, which is the rate monotone in kappa (see the module docstring).
    """
    raw, _ = qubit_keyrate_raw(cfg, q, seed=seed)
    return max(0.0, raw)


# ---------------------------------------------------------------------------
# grid oracle


def _chi_bar_batch(cfg: ProtocolConfig, a, b, c, d, f):
    """chi-bar for stacked parameter arrays via explicit sifted matrices.

    Independent check path for the optimizer: builds the normalized sifted
    states, takes batched eigendecompositions for S(sigma), and forms every
    postselected conditional state through the partial inner products with
    the sender directions.
    """
    w0, w1 = cfg.filter_weights
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

    def batch_entropy(mats):
        lam = np.linalg.eigvalsh(mats)
        lam = np.clip(lam, 0.0, None)
        out = np.zeros(lam.shape[:-1])
        mask = lam > 0.0
        out = -np.sum(np.where(mask, lam * np.log2(np.where(mask, lam, 1.0)), 0.0), axis=-1)
        return out

    chi = batch_entropy(sig)
    sig_r = sig.reshape(n, 2, 2, 2, 2)
    for x in range(4):
        v = np.array([1.0, np.exp(-1j * math.pi * x / 2)]) / math.sqrt(2.0)
        cond = np.einsum("a,nabcd,c->nbd", v.conj(), sig_r, v)
        p_x = np.einsum("nbb->n", cond).real
        lam = np.linalg.eigvalsh(cond)
        lam = np.clip(lam, 0.0, None)
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
    condition is linear in b.  Rows with no feasible b come back with
    lo > hi.
    """
    xi = cs.xi
    k = (1.0 - 2.0 * cs.q) / (2.0 * math.sqrt(xi * (1.0 - xi)))
    e = 2.0 * xi - 1.0
    d = 1.0 - s - c
    a0 = (1.0 - xi) * (s + c) + xi * d
    qa = k * k * e * e
    qb = 2.0 * k * k * a0 * e + d
    qc = k * k * a0 * a0 + im * im - s * d
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


def grid_oracle(cfg: ProtocolConfig, constraints: ConstraintSet, resolution: int):
    """Exhaustive chi-bar lower bound on a feasibility-filtered grid.

    Deterministic; ``resolution`` points per free dimension (>= 20).  The
    s, c and Im f axes are uniform; the Im f axis spans [0, sqrt(max a d)]
    only, since chi-bar is even in Im f.  Because Re f is pinned by Q the
    feasible states form a thin sliver near |Re f| = sqrt(a d), which a
    uniform b axis misses; instead the b points are spread across the
    feasible b-interval of each (s, c, Im f), solved in closed form by
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
        c_axis = np.linspace(0.0, 1.0 - s, resolution)
        im_cap = math.sqrt(max(s * (1.0 - s), 0.0))
        im_axis = np.linspace(0.0, im_cap, resolution)
        cc, ii = (g.ravel() for g in np.meshgrid(c_axis, im_axis, indexing="ij"))
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
