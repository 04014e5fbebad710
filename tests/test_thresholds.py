"""The abstract's claim as a table: the unbalanced variant against kappa.

For kappa = 0.1, 0.2, ..., 1.0, ``tests/golden/unbalanced_thresholds.csv``
holds the qubit threshold Q* where ``rate_raw`` crosses 0, the key per signal
sent p_kept r at Q = 0.01, 0.03 and 0.05, and the realistic cutoff distance of
a 0-300 km scan in 5 km steps at the default channel.  A change that moves
the table on purpose re-records it from the repository root:

    PYTHONPATH=src:tests python -c "
    from test_thresholds import HEADER, KAPPAS, row
    print(HEADER, *(','.join(map(repr, row(k))) for k in KAPPAS), sep='\\n')
    " > tests/golden/unbalanced_thresholds.csv
"""

from pathlib import Path

import pytest

from conftest import signal_kept_weight
from ubb84.channel import default_params
from ubb84.engine import cutoff_distance, distance_scan, qubit_point
from ubb84.protocol import make_config

GOLDEN = Path(__file__).resolve().parent / "golden" / "unbalanced_thresholds.csv"
HEADER = "kappa,q_star,kept_rate_q0.01,kept_rate_q0.03,kept_rate_q0.05,cutoff_km"
KAPPAS = [k / 10 for k in range(1, 11)]
BB84_THRESHOLD = 0.110028  # 1 - 2 h(Q) = 0


def _threshold(cfg) -> float:
    """Q where the qubit rate_raw crosses 0, by bisection to 1e-7."""
    lo, hi = 0.0, 0.25
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if qubit_point(cfg, mid).rate_raw > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def row(kappa: float):
    """kappa, Q*, p_kept r at Q = 0.01, 0.03, 0.05, and the cutoff in km."""
    cfg = make_config(kappa)
    kept = signal_kept_weight(cfg)
    rates = [kept * qubit_point(cfg, q).rate for q in (0.01, 0.03, 0.05)]
    points = distance_scan([cfg], default_params(), [5.0 * i for i in range(61)])
    return (kappa, _threshold(cfg), *rates, cutoff_distance(points))


def test_unbalanced_thresholds_match_golden():
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert lines[0] == HEADER
    want = [[float(x) for x in line.split(",")] for line in lines[1:]]
    got = [row(kappa) for kappa in KAPPAS]
    assert [w[0] for w in want] == KAPPAS
    for (kappa, q_star, *rates, cutoff), w in zip(got, want):
        assert q_star == pytest.approx(w[1], abs=1e-6), kappa
        assert rates == pytest.approx(w[2:5], rel=1e-9, abs=0), kappa
        assert cutoff == w[5], kappa
    q_stars = [r[1] for r in got]
    assert all(a > b for a, b in zip(q_stars, q_stars[1:]))
    assert q_stars[-1] == pytest.approx(BB84_THRESHOLD, abs=1e-6)
    for column in range(2, 6):  # the modulator's loss never adds key or reach
        values = [r[column] for r in got]
        assert all(a <= b for a, b in zip(values, values[1:])), column
