"""Reference check paths that only the tests use.

``grid_oracle`` is an exhaustive, feasibility-filtered grid search for the
maximum of chi-bar.  It evaluates chi-bar through explicit sifted matrices
and batched eigendecompositions, a code path independent of the scalar
closed form ``ubb84.attack.chi_bar_of_params`` that the solver uses, so
the tests hold the solver to it: the solver must reach at least the grid's
best value.
"""

from __future__ import annotations

import math

import numpy as np

from ubb84.attack import ConstraintSet, InfeasibleError
from ubb84.protocol import ProtocolConfig
from ubb84.sifting import SymmetricState, re_f_from_Q

PSD_TOL = 1e-12  # the corner-condition slack that SymmetricState also allows


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
        mask = lam > 0.0
        return -np.sum(np.where(mask, lam * np.log2(np.where(mask, lam, 1.0)), 0.0), axis=-1)

    chi = batch_entropy(sig)
    sig_r = sig.reshape(n, 2, 2, 2, 2)
    for x in range(4):
        v = np.array([1.0, np.exp(-1j * math.pi * x / 2)]) / math.sqrt(2.0)
        # <v|_A sigma |v>_A, summed term by term over the sender indices
        cond = sum(v[i].conjugate() * v[j] * sig_r[:, i, :, j, :] for i in range(2) for j in range(2))
        p_x = (cond[:, 0, 0] + cond[:, 1, 1]).real
        # eigenvalues of each Hermitian 2x2: (trace +- sqrt(diff^2 + 4|off|^2)) / 2
        spread = np.sqrt((cond[:, 0, 0] - cond[:, 1, 1]).real ** 2 + 4.0 * np.abs(cond[:, 0, 1]) ** 2)
        lam = np.clip(0.5 * np.stack([p_x - spread, p_x + spread], axis=1), 0.0, None)
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
    condition is linear in b.  a d is relaxed by the relative slack
    ``PSD_TOL`` so that a feasible set shrunk to a point (Q = 0) keeps its
    b despite rounding.  Rows with no feasible b come back with lo > hi.
    """
    xi = cs.xi
    k = (1.0 - 2.0 * cs.q) / (2.0 * math.sqrt(xi * (1.0 - xi)))
    e = 2.0 * xi - 1.0
    d = 1.0 - s - c
    a0 = (1.0 - xi) * (s + c) + xi * d
    qa = k * k * e * e
    qb = 2.0 * k * k * a0 * e + d
    qc = k * k * a0 * a0 + im * im - s * d * (1.0 + PSD_TOL)
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
    s, c and Im f axes are uniform.  Because Re f is pinned by Q the
    feasible states form a thin sliver near |Re f| = sqrt(a d), which
    uniform b and Im f axes miss.  So, per (s, c), the Im f axis spans
    [0, max over b of sqrt(a d - Re f^2)] (Im f >= 0 only, since chi-bar
    is even in Im f); a d - Re f^2 is a concave quadratic in b whose
    vertex lies at b <= 0 (``_b_interval``: B >= 0), so the maximum over
    [0, s] is at b = 0.  The b points are then spread across the feasible
    b-interval of each (s, c, Im f), solved in closed form by
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
        d_axis = (1.0 - s) - c_axis
        re_b0 = re_f_from_Q(s, 0.0, c_axis, d_axis, constraints.q, constraints.xi)
        im_cap = np.sqrt(np.maximum(s * d_axis - re_b0 * re_b0, 0.0))
        cc = np.repeat(c_axis, resolution)
        ii = (im_cap[:, None] * t).ravel()
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
