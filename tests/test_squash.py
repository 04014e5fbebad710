import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ubb84 import squash
from ubb84.squash import (
    ClickPattern,
    _VALIDATION_PATTERNS,
    EffectiveOutcome,
    _count_draws,
    monte_carlo_check,
    squash_distribution,
)

R0, R1, R2, R3 = (
    EffectiveOutcome.RESULT_0,
    EffectiveOutcome.RESULT_1,
    EffectiveOutcome.RESULT_2,
    EffectiveOutcome.RESULT_3,
)
OUT, NONE = EffectiveOutcome.OUT, EffectiveOutcome.NO_CLICK

patterns = st.builds(
    ClickPattern,
    c1=st.booleans(), c2=st.booleans(), c3=st.booleans(),
    d1=st.booleans(), d2=st.booleans(), d3=st.booleans(),
    basis=st.sampled_from(["even", "odd"]),
)
ALL_PATTERNS = [
    ClickPattern(*clicks, basis=basis)
    for clicks in itertools.product((False, True), repeat=6)
    for basis in ("even", "odd")
]
CROSS = {R0: Fraction(1, 8), R1: Fraction(1, 8), R2: Fraction(1, 8), R3: Fraction(1, 8),
         OUT: Fraction(1, 2)}


def table(pattern):
    """(outcomes, running sums) of the pattern's distribution, the table the check draws from."""
    dist = squash_distribution(pattern)
    return tuple(dist), tuple(itertools.accumulate(dist.values()))


class TestClassify:
    # each click-count class of the squashing map, read off its row
    def test_single_middle(self):
        assert squash_distribution(ClickPattern(c2=True, basis="even")) == {R0: Fraction(1)}

    def test_multi_outside(self):
        assert squash_distribution(ClickPattern(c1=True, d3=True)) == {OUT: Fraction(1)}

    def test_cross(self):
        assert squash_distribution(ClickPattern(c2=True, d1=True)) == CROSS

    def test_double_middle(self):
        dist = squash_distribution(ClickPattern(c2=True, d2=True))
        assert dist == {R0: Fraction(1, 2), R2: Fraction(1, 2)}

    def test_no_click_and_single_outside(self):
        assert squash_distribution(ClickPattern()) == {NONE: Fraction(1)}
        assert squash_distribution(ClickPattern(d1=True)) == {OUT: Fraction(1)}

    def test_any_middle_with_any_outside_is_cross(self):
        assert squash_distribution(ClickPattern(c2=True, d2=True, c1=True)) == CROSS
        assert squash_distribution(ClickPattern(d2=True, c3=True, d1=True)) == CROSS

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            ClickPattern(c2=True, basis="diagonal")


class TestDistribution:
    def test_single_middle_label_join(self):
        assert squash_distribution(ClickPattern(c2=True, basis="even")) == {R0: Fraction(1)}
        assert squash_distribution(ClickPattern(d2=True, basis="even")) == {R2: Fraction(1)}
        assert squash_distribution(ClickPattern(c2=True, basis="odd")) == {R1: Fraction(1)}
        assert squash_distribution(ClickPattern(d2=True, basis="odd")) == {R3: Fraction(1)}

    def test_double_middle_rows(self):
        even = squash_distribution(ClickPattern(c2=True, d2=True, basis="even"))
        assert even == {R0: Fraction(1, 2), R2: Fraction(1, 2)}
        odd = squash_distribution(ClickPattern(c2=True, d2=True, basis="odd"))
        assert odd == {R1: Fraction(1, 2), R3: Fraction(1, 2)}

    def test_outside_rows(self):
        assert squash_distribution(ClickPattern(c1=True)) == {OUT: Fraction(1)}
        assert squash_distribution(ClickPattern(c1=True, d3=True, c3=True)) == {OUT: Fraction(1)}

    def test_cross_row(self):
        # the sampler walks the row in order, so the key order is pinned too,
        # in either basis
        for pattern in (ClickPattern(c2=True, d1=True),
                        ClickPattern(d2=True, c3=True, d1=True, basis="odd")):
            assert list(squash_distribution(pattern).items()) == list(CROSS.items()), pattern

    def test_no_click(self):
        assert squash_distribution(ClickPattern()) == {NONE: Fraction(1)}

    def test_sums_to_one_exactly(self):
        # power-of-two denominators make every float running sum exact, so
        # the sampler's last running sum is 1.0 and no draw falls past it
        assert len(set(ALL_PATTERNS)) == 128
        for pattern in ALL_PATTERNS:
            dist = squash_distribution(pattern)
            assert sum(dist.values()) == Fraction(1), pattern
            for p in dist.values():
                den = p.as_integer_ratio()[1]
                assert den & (den - 1) == 0, (pattern, p)

    def test_returns_a_fresh_dict(self):
        pattern = ClickPattern(c2=True, d2=True, basis="odd")
        squash_distribution(pattern)[R1] = Fraction(1)
        assert squash_distribution(pattern) == {R1: Fraction(1, 2), R3: Fraction(1, 2)}

    @given(patterns)
    @settings(max_examples=300)
    def test_single_clicks_are_deterministic(self, pattern):
        # single-photon consistency: one click maps with probability 1
        if pattern.middle_clicks + pattern.outside_clicks == 1:
            dist = squash_distribution(pattern)
            assert len(dist) == 1
            assert next(iter(dist.values())) == Fraction(1)

    def test_double_middle_maps_to_half_error(self):
        # both same-basis outcomes get equal weight, so the induced error
        # probability is exactly 1/2 whatever the true bit was
        for basis, pair in (("even", (R0, R2)), ("odd", (R1, R3))):
            dist = squash_distribution(ClickPattern(c2=True, d2=True, basis=basis))
            assert dist[pair[0]] == dist[pair[1]] == Fraction(1, 2)


class TestSampling:
    def test_monte_carlo_check_passes(self):
        rows, ok = monte_carlo_check(20_000, seed=9)
        assert ok
        assert all(within for *_, within in rows)

    def test_monte_carlo_check_reproducible(self):
        assert monte_carlo_check(5_000, seed=4) == monte_carlo_check(5_000, seed=4)


class TestByteCounts:
    # monte_carlo_check counts rows from the top byte of each draw's first
    # generator word; choices over the same running sums is the reference
    @given(seed=st.integers(min_value=-(2**80), max_value=2**80),
           trials=st.integers(min_value=1, max_value=25_000),
           index=st.integers(min_value=0, max_value=len(_VALIDATION_PATTERNS) - 1))
    @example(seed=-7, trials=10_000, index=6)
    @example(seed=2**64 + 3, trials=20_001, index=2)
    @example(seed=5, trials=10_001, index=0)  # one row: all remainder, stream still consumed
    @example(seed=13, trials=12_345, index=6)  # 5 rows, partial last batch
    @settings(max_examples=60, deadline=None)
    def test_counts_and_state_match_choices(self, seed, trials, index):
        outcomes, cumulative = table(_VALIDATION_PATTERNS[index][1])
        rng, twin = random.Random(seed), random.Random(seed)
        counts = _count_draws(rng, cumulative, trials)
        reference = Counter(twin.choices(outcomes, cum_weights=cumulative, k=trials))
        assert counts == [reference[outcome] for outcome in outcomes]
        assert rng.getstate() == twin.getstate()

    def test_rejects_sums_off_the_byte_grid(self):
        # a running sum of 1/3 falls between byte boundaries, so the top
        # byte would not fix the row
        with pytest.raises(ValueError):
            _count_draws(random.Random(1), (1 / 3, 2 / 3, 1.0), 10)

    def test_rejects_sums_not_ending_at_one(self):
        with pytest.raises(ValueError):
            _count_draws(random.Random(1), (0.25, 0.5), 10)


class TestExactByteMap:
    # a stub generator whose draws put 0, 1, ..., 255, 0, ... in byte 3 of each
    # 8-byte word, the byte that picks the row; 10,240 trials hold each byte
    # value 40 times and cross the _BATCH boundary, so every row of a drawn
    # table gets exactly p * trials
    class Cycling:
        def __init__(self):
            self.draws = 0

        def getrandbits(self, bits):
            assert bits % 64 == 0
            words = range(self.draws, self.draws + bits // 64)
            self.draws = words.stop
            return int.from_bytes(b"".join(bytes([0, 0, 0, n % 256, 0, 0, 0, 0]) for n in words),
                                  "little")

    @pytest.mark.parametrize("name", ["double-middle even", "double-middle odd", "cross c2+d1"])
    def test_every_row_gets_p_times_trials(self, name):
        pattern = dict(_VALIDATION_PATTERNS)[name]
        outcomes, cumulative = table(pattern)
        trials = 10_240
        assert trials % 256 == 0 and trials > squash._BATCH
        rng = self.Cycling()
        counts = _count_draws(rng, cumulative, trials)
        dist = squash_distribution(pattern)
        assert counts == [dist[outcome] * trials for outcome in outcomes]
        assert rng.draws == trials


class TestOneRowPatternsSkipped:
    # reference: every pattern, one-row tables too, draws with choices
    @staticmethod
    def reference(trials, seed):
        rows = []
        for index, (name, pattern) in enumerate(_VALIDATION_PATTERNS):
            outcomes, cumulative = table(pattern)
            rng = random.Random((seed << 8) + index)
            counts = Counter(rng.choices(outcomes, cum_weights=cumulative, k=trials))
            for outcome, p in sorted(squash_distribution(pattern).items(),
                                     key=lambda kv: kv[0].value):
                expected = float(p)
                observed = counts[outcome] / trials
                bound = 3.0 * (expected * (1.0 - expected) / trials) ** 0.5
                rows.append((name, outcome, expected, observed, bound,
                             abs(observed - expected) <= bound))
        return rows, all(row[-1] for row in rows)

    @pytest.mark.parametrize("trials", [1, 9_999, 10_001, 12_345])
    @pytest.mark.parametrize("seed", [1, 11, 21, 42, 54])
    def test_matches_drawing_every_pattern(self, seed, trials):
        assert monte_carlo_check(trials, seed) == self.reference(trials, seed)

    def test_draws_only_multi_row_patterns(self, monkeypatch):
        drawn = []

        def spy(rng, cumulative, trials):
            drawn.append(rng.getstate())
            return _count_draws(rng, cumulative, trials)

        monkeypatch.setattr(squash, "_count_draws", spy)
        monte_carlo_check(1_000, 3)
        multi = [index for index, (name, _) in enumerate(_VALIDATION_PATTERNS)
                 if name in ("double-middle even", "double-middle odd", "cross c2+d1")]
        assert drawn == [random.Random((3 << 8) + index).getstate() for index in multi]


class TestStreamPinned:
    # literals recorded with the sampler that built a Fraction table per draw
    # and scanned it in order; choices over the running sums draws the same
    # stream, and a sampler that moves one draw fails here
    OBSERVED_2000_11 = [1.0, 1.0, 0.4825, 0.5175, 0.5045, 0.4955, 1.0, 1.0,
                        0.122, 0.1245, 0.122, 0.118, 0.5135]
    FIRST_DRAWS_11 = [
        "0" * 32,
        "3" * 32,
        "00000200200200200202222202022000",
        "11313331331311111333113113313133",
        ["out"] * 32,
        ["out"] * 32,
        ["3", "out", "0", "3", "0", "0", "out", "out", "0", "1", "out", "out", "out", "0", "1",
         "out", "2", "out", "2", "1", "0", "out", "out", "out", "1", "out", "out", "out", "3",
         "0", "1", "out"],
    ]

    def test_matches_recorded_stream(self):
        rows, ok = monte_carlo_check(2000, 11)
        assert ok
        assert [observed for _, _, _, observed, _, _ in rows] == self.OBSERVED_2000_11
        for index, (_, pattern) in enumerate(_VALIDATION_PATTERNS):
            outcomes, cumulative = table(pattern)
            rng = random.Random((11 << 8) + index)
            draws = [o.value for o in rng.choices(outcomes, cum_weights=cumulative, k=32)]
            assert draws == list(self.FIRST_DRAWS_11[index]), index
