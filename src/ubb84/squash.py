"""Classical post-processing of raw click patterns onto single-click outcomes.

The receiver resolves six detection slots: three time slots on each of the
two detectors (c = bit 0, d = bit 1; slot 2 is the interfering middle slot).
Arbitrary optical input can fire any subset; the post-processing maps each
pattern probabilistically onto one effective outcome so that single-photon
statistics are preserved and multi-clicks are turned into random noise:

    pattern class                 -> outcome distribution
    ------------------------------------------------------------------
    single middle click           -> the matching result, prob 1
    single / multi outside only   -> "out", prob 1
    both middle slots ("double")  -> the two same-basis results, 1/2 each
    middle + outside ("cross")    -> "out" 1/2, each result 1/8
    nothing                       -> no-click

Basis joins: even -> results {0, 2}, odd -> {1, 3}; c-detector clicks map
to the lower label of the pair.  Table probabilities are dyadic floats, exact,
so each running sum is a multiple of 1/8.  The Monte-Carlo check is the one
sampler.  It draws as ``random.Random.choices`` over those sums would:
CPython's ``random()`` is ``((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53`` for two
Mersenne-Twister words, so the top byte of w1 fixes the row ``choices`` picks,
and the check counts those bytes of ``getrandbits`` (the same words, in order)
in C.  Its stream and every printed table are therefore those of ``choices``.
A one-row table takes no draws, as every draw would land in its row, and each
table's last row is the remainder of ``trials``; neither moves a printed number.
"""

from __future__ import annotations

import bisect
import itertools
import random
from enum import Enum
from typing import NamedTuple

_BASES = ("even", "odd")


class EffectiveOutcome(Enum):
    RESULT_0 = "0"
    RESULT_1 = "1"
    RESULT_2 = "2"
    RESULT_3 = "3"
    OUT = "out"
    NO_CLICK = "none"


_RESULTS = (
    EffectiveOutcome.RESULT_0,
    EffectiveOutcome.RESULT_1,
    EffectiveOutcome.RESULT_2,
    EffectiveOutcome.RESULT_3,
)


class _PatternFields(NamedTuple):
    c1: bool = False
    c2: bool = False
    c3: bool = False
    d1: bool = False
    d2: bool = False
    d3: bool = False
    basis: str = "even"


class ClickPattern(_PatternFields):
    """Raw detection pattern plus the receiver's basis choice; hashable, so it keys dicts."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace validates

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.basis not in _BASES:
            raise ValueError(f"basis must be 'even' or 'odd', got {self.basis!r}")
        return self

    @property
    def middle_clicks(self) -> int:
        return int(self.c2) + int(self.d2)

    @property
    def outside_clicks(self) -> int:
        return int(self.c1) + int(self.c3) + int(self.d1) + int(self.d3)


def squash_distribution(pattern: ClickPattern) -> dict:
    """Exact outcome distribution of the post-processing for a pattern."""
    mid, out = pattern.middle_clicks, pattern.outside_clicks
    pair = _RESULTS[0::2] if pattern.basis == "even" else _RESULTS[1::2]
    if mid and out:
        return {**dict.fromkeys(_RESULTS, 0.125), EffectiveOutcome.OUT: 0.5}
    if mid == 2:
        return dict.fromkeys(pair, 0.5)
    if mid == 1:
        return {pair[0] if pattern.c2 else pair[1]: 1.0}
    return {EffectiveOutcome.OUT if out else EffectiveOutcome.NO_CLICK: 1.0}


_VALIDATION_PATTERNS = (
    ("single-middle c2/even", ClickPattern(c2=True, basis="even")),
    ("single-middle d2/odd", ClickPattern(d2=True, basis="odd")),
    ("double-middle even", ClickPattern(c2=True, d2=True, basis="even")),
    ("double-middle odd", ClickPattern(c2=True, d2=True, basis="odd")),
    ("single-outside c3", ClickPattern(c3=True)),
    ("multi-outside c1+d3", ClickPattern(c1=True, d3=True)),
    ("cross c2+d1", ClickPattern(c2=True, d1=True)),
)
_BATCH = 10_000  # draws per getrandbits call: 80 kB of bits, however many trials


def _count_draws(rng, cumulative, trials: int) -> list:
    """Per-row counts of ``rng.choices(..., cum_weights=cumulative, k=trials)``, same stream.

    The last row, the cross table's frequent 1/2 row, is ``trials`` minus the
    others, which spares ``bytes.count`` its slowest count.
    """
    if cumulative[-1] != 1.0 or any(c * 256 % 1 for c in cumulative):
        raise ValueError(f"running sums {cumulative} must be multiples of 1/256 ending at 1")
    rows = bytes(bisect.bisect(cumulative, t / 256, 0, len(cumulative) - 1) for t in range(256))
    counts = [0] * (len(cumulative) - 1)
    for done in range(0, trials, _BATCH):
        batch = min(_BATCH, trials - done)
        picked = rng.getrandbits(64 * batch).to_bytes(8 * batch, "little")[3::8].translate(rows)
        counts = [n + picked.count(row) for row, n in enumerate(counts)]
    return [*counts, trials - sum(counts)]


def monte_carlo_check(trials: int, seed: int):
    """Sampled frequencies vs. the exact table, with 3-sigma binomial bounds.

    Returns (rows, ok).  Each row is (pattern_name, outcome, expected,
    observed, bound, within); ``ok`` is True when every row is within its
    bound.  A one-row table draws nothing: its count is ``trials``, as every
    draw of ``choices`` would give, for any seed.  The nine drawn rows each
    face their own 3-sigma bound, uncorrected for nine tests, so correct code
    gives ``ok`` False for some seeds: at 1e5 trials, 14 of seeds 1-1000 (1.4%),
    21, 42, 126, 207, 391, 431, 460, 573, 639, 647, 746, 767, 835 and 977.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    rows = []
    ok = True
    for index, (name, pattern) in enumerate(_VALIDATION_PATTERNS):
        dist = squash_distribution(pattern)
        if len(dist) == 1:
            counts = dict.fromkeys(dist, trials)
        else:
            rng = random.Random((seed << 8) + index)
            cumulative = tuple(itertools.accumulate(dist.values()))
            counts = dict(zip(dist, _count_draws(rng, cumulative, trials)))
        for outcome, expected in sorted(dist.items(), key=lambda kv: kv[0].value):
            observed = counts[outcome] / trials
            bound = 3.0 * (expected * (1.0 - expected) / trials) ** 0.5
            within = abs(observed - expected) <= bound
            ok = ok and within
            rows.append((name, outcome, expected, observed, bound, within))
    return rows, ok
