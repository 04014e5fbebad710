"""Final key rates, mean-photon-number optimization, scans, CSV emission.

The realistic per-signal rate combines error correction on everything that
clicked with privacy amplification on the single-photon fraction only
(vacuum and multi-photon emissions are conceded in full):

    R = 1/2 * ( -p_click_total * f_ec * h(Q_tot)
                + p_click_s * (1 - chi_s_max[q, p_lost, kappa]) )

The 1/2 is the basis-sifting factor and appears exactly once, here; the
qubit rate is per postselected signal and carries no 1/2.  Reported rates
are floored at zero at this layer only; raw signed values are kept for
threshold detection and for the CSV diagnostic column.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields

from .attack import maximize_holevo_qubit
from .channel import ChannelParams, honest_statistics
from .protocol import ProtocolConfig, Variant, make_config
from .qmath import binary_entropy

__all__ = [
    "CSV_HEADER",
    "KeyRatePoint",
    "compare_variants",
    "cutoff_distance",
    "distance_scan",
    "format_csv",
    "optimize_mu",
    "qubit_point",
    "qubit_scan",
    "realistic_keyrate",
]

# What a pool costs before it does any work: importing concurrent.futures.process,
# forking two workers, one round trip and shutdown took 40-65 ms (median 47 ms)
# over 8 fresh interpreters on 2 vCPU.  Serial work shorter than this is cheaper
# in-process.
POOL_START_S = 0.05
# chunks per worker: enough to even out solves of unequal cost, few enough that
# pickling one chunk per round trip stays small against its solves
CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class KeyRatePoint:
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


CSV_HEADER = tuple(f.name for f in fields(KeyRatePoint))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value + 0.0, ".10g")  # + 0.0 turns -0.0 into 0


def format_csv(points) -> str:
    lines = [",".join(CSV_HEADER)]
    for p in points:
        lines.append(",".join(_fmt(getattr(p, field)) for field in CSV_HEADER))
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


def _point(cfg: ProtocolConfig, f_ec: float, distance_km: float, mu: float, stats,
           chi: float) -> KeyRatePoint:
    raw = _raw_rate(stats, chi, f_ec)
    return KeyRatePoint(
        variant=cfg.variant.value,
        kappa=cfg.kappa,
        distance_km=distance_km,
        mu=mu,
        qber_total=stats.q_tot,
        q_single=stats.q_single,
        p_lost=stats.p_lost,
        chi_s_max=chi,
        rate_raw=raw,
        rate=max(0.0, raw),
    )


def realistic_keyrate(cfg: ProtocolConfig, params: ChannelParams, distance_km: float,
                      mu: float) -> KeyRatePoint:
    """Tagged key rate per emitted signal at one distance and mean photon number."""
    stats = honest_statistics(cfg, params, distance_km, mu)
    return _point(cfg, params.f_ec, distance_km, mu, stats, _chi_s_max(cfg, stats))


def _golden_max(fn, lo: float, hi: float, xtol: float):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > xtol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = fn(x2)
    return (lo + hi) / 2.0


def optimize_mu(cfg: ProtocolConfig, params: ChannelParams, distance_km: float) -> KeyRatePoint:
    """Golden-section maximization of the realistic rate over mu in [1e-4, 2].

    q_single and p_lost do not depend on mu, so the Holevo maximization runs
    once.  The point's ``mu`` is the best one found; if every rate in the
    bracket is negative the best (floored-to-zero) point is reported.
    """
    lo, hi = 1e-4, 2.0
    chi = _chi_s_max(cfg, honest_statistics(cfg, params, distance_km, lo))

    def raw_of(mu: float) -> float:
        return _raw_rate(honest_statistics(cfg, params, distance_km, mu), chi, params.f_ec)

    # not attack._brent_max: rate(mu) dips just above 1e-4, where its end-first rule stops
    mu_star = _golden_max(raw_of, lo, hi, xtol=1e-4)
    best = max((lo, hi, mu_star), key=raw_of)
    stats = honest_statistics(cfg, params, distance_km, best)
    return _point(cfg, params.f_ec, distance_km, best, stats, chi)


def _scan(cfgs, params: ChannelParams, distances, threads: int):
    """Mu-optimized points for every (config, distance) pair, row-major in cfgs.

    ``threads`` = 0 asks for one worker per usable core, and the workers never
    exceed the jobs left or the usable cores.  Jobs run in order in-process
    until they are done or the in-process time passes ``POOL_START_S``, what a
    pool costs to start; the rest then fan out to a pool in about
    ``CHUNKS_PER_WORKER`` chunks per worker.  Below two workers every job runs
    in-process.  Results keep the job order either way.
    """
    distances = list(distances)
    if not distances:
        raise ValueError("distance list is empty")
    jobs = [(cfg, d) for cfg in cfgs for d in distances]
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(threads or cores, cores)
    points = []
    start = time.perf_counter()
    while len(points) < len(jobs) and (min(workers, len(jobs) - len(points)) < 2
                                       or time.perf_counter() - start < POOL_START_S):
        cfg, d = jobs[len(points)]
        points.append(optimize_mu(cfg, params, d))
    rest = jobs[len(points):]
    if rest:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(workers, len(rest))
        cfg_column, distance_column = zip(*rest)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points.extend(pool.map(optimize_mu, cfg_column, [params] * len(rest), distance_column,
                                   chunksize=-(-len(rest) // (CHUNKS_PER_WORKER * workers))))
    return points


def distance_scan(cfg: ProtocolConfig, params: ChannelParams, distances, *,
                  threads: int = 1):
    """Mu-optimized key-rate points, one per distance, in input order."""
    return _scan([cfg], params, distances, threads)


def cutoff_distance(points):
    """First scanned distance with nonpositive raw rate, or None."""
    for p in points:
        if p.rate_raw <= 0.0:
            return p.distance_km
    return None


def qubit_point(cfg: ProtocolConfig, q: float) -> KeyRatePoint:
    """Qubit-level rate 1 - h(Q) - chi_max per postselected signal; no distance or mu."""
    chi = maximize_holevo_qubit(cfg, q).chi_max
    raw = 1.0 - binary_entropy(q) - chi
    return KeyRatePoint(
        variant=cfg.variant.value,
        kappa=cfg.kappa,
        distance_km=None,
        mu=None,
        qber_total=q,
        q_single=q,
        p_lost=0.0,
        chi_s_max=chi,
        rate_raw=raw,
        rate=max(0.0, raw),
    )


def qubit_scan(cfgs, q_list):
    """Qubit rates for every (config, error rate) pair, row-major in cfgs."""
    return [qubit_point(cfg, q) for cfg in cfgs for q in q_list]


def compare_variants(kappa: float, params: ChannelParams, distances, *,
                     threads: int = 1):
    """Distance scans of all four variants at one kappa, concatenated."""
    return _scan([make_config(kappa, v) for v in Variant], params, distances, threads)
