"""Final key rates, mean-photon-number optimization, scans, CSV emission.

The realistic per-signal rate combines error correction on everything that
clicked with privacy amplification on the single-photon fraction only
(vacuum and multi-photon emissions are conceded in full):

    R = 1/2 * ( -p_click_total * f_ec * h(Q_tot)
                + p_click_s * (1 - chi_s_max[q, p_lost, kappa]) )

The single photons are credited with the honest channel's q_single, p_lost
and p_click_s = mu e^-mu d1: the asymptotic decoy-state assumption (Hwang
2003; Lo, Ma and Chen 2005), under which GLLP tagging applies.

The 1/2 is the basis-sifting factor and appears exactly once, here; the
qubit rate is per postselected signal and carries no 1/2.  Reported rates
are floored at zero in ``_point`` alone, the one builder of a CSV row; raw
signed values are kept for threshold detection and for the CSV diagnostic
column.

``distance_scan`` is the one realistic scan: ``distance-scan`` passes it one
config and ``compare`` all four, and each job is one ``optimize_mu``.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, NamedTuple

from .attack import maximize_holevo_qubit
from .protocol import ProtocolConfig
from .qmath import GOLD, binary_entropy, brent_max

if TYPE_CHECKING:  # the qubit commands never load the channel model
    from .channel import ChannelParams

# What a pool costs against running its jobs in-process: importing
# concurrent.futures.process, forking the workers, pickling jobs and rows, and the
# last chunk's tail.  Pooling compare and qubit-scan jobs after the first one took
# 0.04-0.06 s longer than their serial time split over two workers for 0.05-0.2 s
# of work, and 0.10-0.17 s for 0.3-1.4 s, as two workers reach about 1.6x (medians
# of 7 fresh interpreters, 2 vCPU).  Near the top of that range, a scan pools only
# where the saving clearly exceeds the cost.
POOL_COST_S = 0.15
# chunks per worker: enough to even out solves of unequal cost, few enough that
# pickling one chunk per round trip stays small against its solves
CHUNKS_PER_WORKER = 4


class KeyRatePoint(NamedTuple):
    """One evaluated parameter point; realistic scans fill every field."""

    variant: str
    kappa: float
    distance_km: float | None
    mu: float | None
    qber_total: float
    q_single: float
    p_lost: float
    chi_s_max: float
    rate_raw: float
    rate: float


CSV_HEADER = KeyRatePoint._fields


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value + 0.0, ".10g")  # + 0.0 turns -0.0 into 0


def format_csv(points) -> str:
    lines = [",".join(CSV_HEADER)]
    lines.extend(",".join(map(_fmt, p)) for p in points)
    return "\n".join(lines) + "\n"


def _raw_rate(stats, chi: float, f_ec: float) -> float:
    ec = stats.p_click_total * f_ec * binary_entropy(stats.q_tot)
    pa = stats.p_click_s * (1.0 - chi)
    return 0.5 * (pa - ec)


def _chi_s_max(cfg: ProtocolConfig, stats) -> float:
    """Maximal single-photon Holevo quantity for the observed statistics.

    Far past the cutoff eta_sys underflows and q_single rounds to 1/2,
    where no attack state is needed: one key bit bounds the eavesdropper's
    Holevo information, so chi = 1 errs in the secure direction and the
    rate is 0.
    """
    if stats.q_single >= 0.5:
        return 1.0
    return maximize_holevo_qubit(cfg, stats.q_single, stats.p_lost).chi_max


def _point(cfg: ProtocolConfig, distance_km: float | None, mu: float | None, q_tot: float,
           q_single: float, p_lost: float, chi: float, rate_raw: float) -> KeyRatePoint:
    """The CSV row of one point, its rate ``rate_raw`` floored at zero."""
    return KeyRatePoint(cfg.variant.value, cfg.kappa, distance_km, mu, q_tot, q_single,
                        p_lost, chi, rate_raw, max(0.0, rate_raw))


def realistic_keyrate(cfg: ProtocolConfig, params: ChannelParams, distance_km: float,
                      mu: float) -> KeyRatePoint:
    """Tagged key rate per emitted signal at one distance and mean photon number."""
    from .channel import honest_statistics

    stats = honest_statistics(cfg, params, distance_km)(mu)
    chi = _chi_s_max(cfg, stats)
    return _point(cfg, distance_km, mu, stats.q_tot, stats.q_single, stats.p_lost, chi,
                  _raw_rate(stats, chi, params.f_ec))


def optimize_mu(cfg: ProtocolConfig, params: ChannelParams, distance_km: float) -> KeyRatePoint:
    """Brent maximization of the realistic rate over mu in [1e-4, 2].

    The honest statistics are built once for the distance, and each mu
    evaluates only their Poisson aggregates.  q_single and p_lost do not
    depend on mu, so the Holevo maximization runs once too.  The point's
    ``mu`` is the best one evaluated, reported from that evaluation; if every
    rate in the bracket is negative the best (floored-to-zero) point is
    reported.
    """
    from .channel import honest_statistics

    lo, hi = 1e-4, 2.0
    at = honest_statistics(cfg, params, distance_km)
    seen = {lo: at(lo)}
    chi = _chi_s_max(cfg, seen[lo])

    def raw_of(mu: float) -> float:
        stats = seen[mu] = at(mu)
        return _raw_rate(stats, chi, params.f_ec)

    # without the solver's end-first rule, which would stop in the dip of rate(mu)
    # just above 1e-4; the ends are compared after, the lower mu first on a tie
    x = lo + GOLD * (hi - lo)
    mu_star, raw_star = brent_max(raw_of, lo, hi, x, raw_of(x), 1.5e-8 * (hi - lo))
    rates = {lo: _raw_rate(seen[lo], chi, params.f_ec), hi: raw_of(hi), mu_star: raw_star}
    mu = max(rates, key=rates.get)
    stats = seen[mu]
    return _point(cfg, distance_km, mu, stats.q_tot, stats.q_single, stats.p_lost, chi,
                  rates[mu])


def _scan(fn, jobs, threads: int):
    """``fn(*job)`` for every job, in job order.

    ``threads`` = 0 asks for one worker per usable core, and the workers never
    exceed the jobs left or the usable cores; a negative value means one.  Jobs run in order in-process
    while a pool would save less than ``POOL_COST_S``: with w workers it saves
    (1 - 1/w) of the work left, projected from the CPU time per finished job
    (``time.process_time``, which load from other processes does not
    advance), so one worker never pools.  The rest then fans out to a pool in
    about ``CHUNKS_PER_WORKER`` chunks per worker.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = max(1, min(threads or cores, cores))
    points = []
    start = time.process_time()
    while len(points) < len(jobs):
        left = len(jobs) - len(points)
        if points and ((1.0 - 1.0 / min(workers, left)) * left
                       * (time.process_time() - start) / len(points) > POOL_COST_S):
            break
        points.append(fn(*jobs[len(points)]))
    rest = jobs[len(points):]
    if rest:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(rest))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points.extend(pool.map(fn, *zip(*rest),
                                   chunksize=-(-len(rest) // (CHUNKS_PER_WORKER * workers))))
    return points


def distance_scan(cfgs, params: ChannelParams, distances, *, threads: int = 1):
    """Mu-optimized key-rate points for every (config, distance) pair, row-major in cfgs."""
    distances = list(distances)
    if not distances:
        raise ValueError("distance list is empty")
    return _scan(optimize_mu, [(cfg, params, d) for cfg in cfgs for d in distances], threads)


def cutoff_distance(points):
    """First scanned distance with nonpositive raw rate, or None."""
    for p in points:
        if p.rate_raw <= 0.0:
            return p.distance_km
    return None


def qubit_point(cfg: ProtocolConfig, q: float) -> KeyRatePoint:
    """Qubit-level rate 1 - h(Q) - chi_max per postselected signal; no distance or mu."""
    chi = maximize_holevo_qubit(cfg, q).chi_max
    return _point(cfg, None, None, q, q, 0.0, chi, 1.0 - binary_entropy(q) - chi)


def qubit_scan(cfgs, q_list, *, threads: int = 1):
    """Qubit rates for every (config, error rate) pair, row-major in cfgs."""
    return _scan(qubit_point, [(cfg, q) for cfg in cfgs for q in q_list], threads)
