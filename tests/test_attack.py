import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_density, signal_kept_weight
from reference import (
    error_rate_Q,
    grid_oracle,
    is_feasible,
    overall_holevo,
    re_f_from_Q,
    sifted,
    state_matrix,
    symmetrize,
)
from ubb84 import attack
from ubb84.attack import (
    InfeasibleError,
    _error_relation,
    _max_entropy,
    _Search,
    chi_bar_of_params,
    constraint_set,
    maximize_holevo_qubit,
)
from ubb84.channel import default_params, honest_statistics
from ubb84.engine import qubit_point
from ubb84.protocol import ProtocolConfig, Variant, make_config
from ubb84.qmath import binary_entropy
from ubb84.sifting import SymmetricState


class TestReFInversion:
    def test_pure_state_consistency(self):
        assert re_f_from_Q(0.5, 0.0, 0.0, 0.5, 0.0, 0.5) == pytest.approx(0.5)

    def test_fully_symmetric_errors(self):
        assert re_f_from_Q(0.5, 0.0, 0.0, 0.5, 0.5, 0.5) == pytest.approx(0.0)

    def test_direct_inversion(self):
        assert re_f_from_Q(0.5, 0.0, 0.0, 0.5, 0.1, 0.5) == pytest.approx(0.4)

    def test_roundtrip_with_error_rate(self):
        cfg = make_config(0.55)
        a, b, c, d = 0.6, cfg.xi - 0.6, 0.05, 1 - cfg.xi - 0.05
        re = re_f_from_Q(a, b, c, d, 0.07, cfg.xi)
        assert re * re <= a * d  # the round trip needs a PSD state
        q, _ = error_rate_Q(SymmetricState(a=a, b=b, c=c, d=d, f=re), cfg)
        assert q == pytest.approx(0.07, abs=1e-12)


class TestChiBarFastPath:
    def test_matches_generic_route(self):
        # the optimizer's closed form must agree with the sift+Holevo matrix
        # route on symmetric states, for every variant
        rng = np.random.default_rng(77)
        for variant in Variant:
            for _ in range(12):
                cfg = make_config(rng.uniform(0.2, 1.0), variant)
                s = symmetrize(random_density(rng))
                fast = chi_bar_of_params(*sifted(cfg, s.a, s.b, s.c, s.d, s.f))
                generic = overall_holevo(state_matrix(s), cfg)
                assert fast == pytest.approx(generic, abs=1e-10)

    def test_even_in_im_f(self):
        cfg = make_config(0.7)
        up = chi_bar_of_params(*sifted(cfg, 0.4, 0.15, 0.1, 0.35, 0.2 + 0.1j))
        down = chi_bar_of_params(*sifted(cfg, 0.4, 0.15, 0.1, 0.35, 0.2 - 0.1j))
        assert up == pytest.approx(down, abs=1e-14)


class TestQubitOptimizer:
    def test_zero_error_balanced(self):
        assert maximize_holevo_qubit(make_config(1.0), 0.0).chi_max == pytest.approx(0.0, abs=1e-9)

    def test_zero_error_skewed(self):
        assert maximize_holevo_qubit(make_config(0.5), 0.0).chi_max == pytest.approx(0.0, abs=1e-9)

    def test_balanced_matches_binary_entropy(self):
        result = maximize_holevo_qubit(make_config(1.0), 0.05)
        assert result.chi_max == pytest.approx(binary_entropy(0.05), abs=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(variant=st.sampled_from(list(Variant)),
           log_kappa=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)),
           qs=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.45)), min_size=2, max_size=2))
    def test_chi_nondecreasing_in_error_rate(self, variant, log_kappa, qs):
        cfg = make_config(10.0 ** log_kappa, variant)
        lo, hi = (maximize_holevo_qubit(cfg, q).chi_max for q in sorted(qs))
        assert hi >= lo - 1e-12

    def test_argmax_feasible(self):
        for kappa in (0.3, 1.0):
            cfg = make_config(kappa)
            cs = constraint_set(cfg, 0.06)
            s = maximize_holevo_qubit(cfg, 0.06).argmax
            assert is_feasible(cs, s.a, s.b, s.c, s.d, s.f, tol=1e-8)

    def test_imaginary_part_vanishes_at_optimum(self):
        # conjugation symmetry suggests Im f = 0; we optimize over it and
        # record that the optimizer lands there
        for kappa in (0.4, 0.8):
            s = maximize_holevo_qubit(make_config(kappa), 0.08).argmax
            assert abs(s.f.imag) < 1e-4

    def test_dominates_canonical_seed(self):
        cfg = make_config(0.5)
        q = 0.04
        result = maximize_holevo_qubit(cfg, q)
        xi = cfg.xi
        mix = 2 * q
        a = (1 - mix) * xi + mix * xi / 2
        b = mix * xi / 2
        c = mix * (1 - xi) / 2
        d = (1 - mix) * (1 - xi) + mix * (1 - xi) / 2
        re = re_f_from_Q(a, b, c, d, q, xi)
        if re * re <= a * d:
            assert result.chi_max >= chi_bar_of_params(*sifted(cfg, a, b, c, d, re)) - 1e-9

    def test_feasible_set_shrunk_to_a_point(self):
        # as Q -> 0 the feasible set shrinks to the honest state; rounding
        # must not empty it
        cases = [(make_config(k, Variant.PBS), q, 0.0) for k in (1e-6, 0.2) for q in (0.0, 1e-12)]
        cases += [(make_config(1e-3), 1e-12, 0.0), (make_config(1e-3), 1e-12, 1e-13),
                  (make_config(0.5), 1e-10, 0.0)]
        for cfg, q, p_lost in cases:
            cs, result = constraint_set(cfg, q, p_lost), maximize_holevo_qubit(cfg, q, p_lost)
            s = result.argmax
            assert is_feasible(cs, s.a, s.b, s.c, s.d, s.f, tol=1e-8), (cfg, q)
            assert -1e-9 <= result.chi_max <= 1e-6, (cfg, q)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            maximize_holevo_qubit(make_config(1.0), 0.5)
        with pytest.raises(ValueError):
            maximize_holevo_qubit(make_config(1.0), -0.01)
        with pytest.raises(ValueError, match="p_lost"):
            maximize_holevo_qubit(make_config(1.0), 0.03, p_lost=1.5)


class TestReceiverReadOnce:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("q, p_lost", [(0.03, 0.0), (0.03, 0.96), (0.2, 0.3)])
    def test_one_solve_builds_the_row_once(self, monkeypatch, variant, q, p_lost):
        # constraint_set reads the receiver row; the solver works from the constraint set
        builds = []
        row = ProtocolConfig.receiver.fget

        def counting(cfg):
            builds.append(cfg)
            return row(cfg)

        monkeypatch.setattr(ProtocolConfig, "receiver", property(counting))
        maximize_holevo_qubit(make_config(0.5, variant), q, p_lost)
        assert len(builds) == 1


class TestSliceConstraintBuiltOnce:
    @pytest.mark.parametrize("variant", [Variant.UNBALANCED, Variant.PBS])
    @pytest.mark.parametrize("p_lost", [0.0, 0.3])
    def test_one_pin_per_slice(self, monkeypatch, variant, p_lost):
        # each A-slice builds its s-constraint once, for the face point and the solve alike;
        # iterations counts the slices (unbalanced at p_lost = 0.3 takes the exact branch)
        pins = []
        pin = _Search.pin

        def counting(self, a_sum, b_sum):
            pins.append(a_sum)
            return pin(self, a_sum, b_sum)

        monkeypatch.setattr(_Search, "pin", counting)
        result = maximize_holevo_qubit(make_config(0.5, variant), 0.03, p_lost)
        assert len(pins) == result.iterations


class TestIterationsCountEvaluations:
    def test_one_chi_bar_call_per_iteration(self, monkeypatch):
        # a search evaluates chi-bar once per slice it solves, and a slice it returns to
        # (at kappa = 0.01 every search below does) is not counted again; the exact
        # branch runs no search and evaluates its closed-form point once
        calls = []
        chi_bar = attack.chi_bar_of_params

        def counting(*point):
            calls.append(point)
            return chi_bar(*point)

        def solve(variant, kappa, p_lost):
            calls.clear()
            result = maximize_holevo_qubit(make_config(kappa, variant), 0.05, p_lost)
            return result.iterations, len(calls)

        monkeypatch.setattr(attack, "chi_bar_of_params", counting)
        free = [(Variant.PBS, kappa, p_lost) for kappa in (0.01, 0.5) for p_lost in (0.3, 1.0)]
        pinned = [(variant, kappa, 0.0) for variant in (Variant.UNBALANCED, Variant.PBS)
                  for kappa in (0.01, 0.5)]
        for case in free + pinned:
            iterations, evaluations = solve(*case)
            assert iterations == evaluations > 0, case
        exact = [(variant, 0.5, p_lost) for variant in (Variant.FIX_LOSS, Variant.FIX_UNEVEN_BS)
                 for p_lost in (0.0, 0.3)]
        exact += [(Variant.UNBALANCED, 0.5, 0.3), (Variant.PBS, 1.0, 0.3)]
        for case in exact:
            assert solve(*case) == (0, 1), case


class TestRealisticOptimizer:
    # a bound fed an upper estimate of q or p_lost errs in the secure direction only
    # if chi_max is nondecreasing in both
    @settings(max_examples=200, deadline=None)
    @given(variant=st.sampled_from(list(Variant)),
           log_kappa=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)), q=st.floats(0.0, 0.45),
           losses=st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                           min_size=2, max_size=2))
    def test_nondecreasing_in_loss(self, variant, log_kappa, q, losses):
        cfg = make_config(10.0 ** log_kappa, variant)
        lo, hi = (maximize_holevo_qubit(cfg, q, p_lost).chi_max for p_lost in sorted(losses))
        assert hi >= lo - 1e-12

    def test_zero_error_still_zero(self):
        assert maximize_holevo_qubit(make_config(0.7), 0.0, 0.8).chi_max == pytest.approx(
            0.0, abs=1e-9
        )

    def test_argmax_feasible(self):
        cfg = make_config(0.5)
        cs = constraint_set(cfg, 0.03, 0.7)
        s = maximize_holevo_qubit(cfg, 0.03, 0.7).argmax
        assert is_feasible(cs, s.a, s.b, s.c, s.d, s.f, tol=1e-8)

    def test_pbs_reaches_a_known_feasible_state(self):
        # a feasible state with chi-bar 0.36798170 exists; Nelder-Mead
        # stopped at 0.3679734
        result = maximize_holevo_qubit(make_config(0.2, Variant.PBS), 0.03304, 0.961)
        assert result.chi_max >= 0.3679816975 - 1e-9

    def test_grid_oracle_agreement(self):
        cfg = make_config(0.5)
        chi_grid, _ = grid_oracle(cfg, constraint_set(cfg, 0.02, 0.5), 30)
        gap = maximize_holevo_qubit(cfg, 0.02, 0.5).chi_max - chi_grid
        assert gap >= -1e-6  # optimizer dominates the grid
        assert abs(gap) <= 2e-3


class TestExactBranch:
    # variants whose filter weights satisfy w0 xi = w1 (1-xi)
    CONSISTENT = [(Variant.UNBALANCED, 0.5), (Variant.FIX_LOSS, 0.5),
                  (Variant.FIX_UNEVEN_BS, 0.5), (Variant.PBS, 1.0)]

    @pytest.mark.parametrize("variant, kappa", CONSISTENT)
    def test_reaches_binary_entropy(self, variant, kappa):
        cfg = make_config(kappa, variant)
        for p_lost in (0.9, 0.99):
            for q in (0.01, 0.05, 0.10):
                cs = constraint_set(cfg, q, p_lost)
                result = maximize_holevo_qubit(cfg, q, p_lost)
                assert result.iterations == 0  # no search ran
                assert abs(result.chi_max - binary_entropy(q)) <= 1e-12
                s = result.argmax
                assert is_feasible(cs, s.a, s.b, s.c, s.d, s.f, tol=1e-12)
                chi_grid, _ = grid_oracle(cfg, cs, 20)
                assert result.chi_max >= chi_grid - 1e-6

    def test_binding_s_bound_falls_through(self):
        # the symmetric optimum has s = a+b of about 0.77, below the lower
        # s-bound of about 0.815, so the search runs and stays below h(Q)
        cfg = make_config(0.2)
        q, p_lost = 0.05, 0.1
        cs = constraint_set(cfg, q, p_lost)
        assert cs.s_bounds()[0] > 0.8
        result = maximize_holevo_qubit(cfg, q, p_lost)
        assert result.iterations > 0
        chi_grid, _ = grid_oracle(cfg, cs, 30)
        assert result.chi_max >= chi_grid - 1e-6
        assert result.chi_max < binary_entropy(q)

    def test_qubit_bounded_by_binary_entropy(self):
        # chi_max(kappa, Q) <= chi_max(1, Q) = h(Q), derived in the
        # ubb84.attack module docstring
        for kappa in (0.2, 0.4, 0.6, 0.8, 1.0):
            cfg = make_config(kappa)
            for q in (0.01, 0.04, 0.07, 0.10):
                assert maximize_holevo_qubit(cfg, q).chi_max <= binary_entropy(q) + 1e-9


class TestOracleSweep:
    # small kappa and low Q, where Nelder-Mead underestimated chi_max
    QS = (0.001, 0.01, 0.05, 0.2)

    @pytest.mark.parametrize("p_lost", [0.0, 0.1, 0.9])
    @pytest.mark.parametrize("kappa", [1e-8, 1e-6, 1e-4, 1e-3, 2e-3, 0.3])
    @pytest.mark.parametrize("variant", [Variant.UNBALANCED, Variant.PBS])
    def test_reaches_grid_oracle(self, variant, kappa, p_lost):
        cfg = make_config(kappa, variant)
        for q in self.QS:
            cs, result = constraint_set(cfg, q, p_lost), maximize_holevo_qubit(cfg, q, p_lost)
            chi_grid, _ = grid_oracle(cfg, cs, 20)
            assert result.chi_max >= chi_grid - 1e-6, q
            s = result.argmax
            assert is_feasible(cs, s.a, s.b, s.c, s.d, s.f, tol=1e-8), q


def _chi_grid(name):
    """Rows (kappa, q, p_lost, chi_s_max) of ``golden/<name>``, by kappa.

    ``pbs_chi_grid.csv`` was recorded from the nested s-search solver over
    kappa x Q x p_lost, 7 x 7 x 7 points, and ``unbalanced_chi_grid.csv``
    from the Brent A-search, 6 x 7 x 3 points; values printed with ``repr``.
    """
    path = Path(__file__).resolve().parent / "golden" / name
    with path.open(encoding="utf-8") as fh:
        rows = [tuple(map(float, row)) for row in csv.reader(fh) if row[0] != "kappa"]
    kappas = sorted({row[0] for row in rows})
    return [(kappa, [row[1:] for row in rows if row[0] == kappa]) for kappa in kappas]


class TestPbsChiGrid:
    # PBS is the one variant with u != v; the grid runs from kappa = 1e-12
    # (where the corner slack of the search is a sizeable part of the set)
    # through single-point sets (Q = 0) to no loss constraint (p_lost = 1)
    GRID = _chi_grid("pbs_chi_grid.csv")
    # (kappa, Q, p_lost) whose recorded argmax, with phi recomputed from the
    # error-rate relation, exceeds the corner slack by 0.2-1.5%; at these
    # kappa the slack is much of the set, and the recorded value lies
    # 0.0008-0.65% above the solver's, whose point stays inside the slack
    OUTSIDE_SLACK = {(1e-12, 0.0, 1.0), (1e-12, 1e-12, 1.0), (1e-12, 1e-6, 1.0),
                     (1e-12, 0.01, 1.0), (1e-12, 0.1, 1.0), (1e-6, 1e-6, 0.9)}

    @pytest.mark.parametrize("kappa, rows", GRID, ids=[repr(kappa) for kappa, _ in GRID])
    def test_never_below_recorded(self, kappa, rows):
        cfg = make_config(kappa, Variant.PBS)
        assert len(rows) == 49
        for q, p_lost, recorded in rows:
            result = maximize_holevo_qubit(cfg, q, p_lost)
            assert math.isfinite(result.chi_max), (q, p_lost)
            if (kappa, q, p_lost) in self.OUTSIDE_SLACK:
                assert result.chi_max >= recorded * (1.0 - 1e-2), (q, p_lost)
            else:
                assert result.chi_max >= recorded - 1e-10, (q, p_lost)
            s = result.argmax
            assert is_feasible(constraint_set(cfg, q, p_lost), s.a, s.b, s.c, s.d, s.f,
                               tol=1e-8), (q, p_lost)

    def test_few_evaluations_on_the_default_channel(self):
        # the honest statistics of 0-60 km leave s free, so the A-search
        # answers alone; the nested s-search took 1,658-3,600 evaluations
        params = default_params()
        for kappa in (0.2, 0.5, 0.8):
            cfg = make_config(kappa, Variant.PBS)
            for distance in range(0, 65, 5):
                stats = honest_statistics(cfg, params, float(distance))(0.5)
                result = maximize_holevo_qubit(cfg, stats.q_single, stats.p_lost)
                assert result.iterations <= 40, (kappa, distance, result.iterations)


class TestUnbalancedChiGrid:
    # the qubit-scan's variant over its kappa range, from Q near 0 to 0.45 and
    # from the exact qubit constraint (p_lost = 0) to a loose one
    GRID = _chi_grid("unbalanced_chi_grid.csv")

    @pytest.mark.parametrize("kappa, rows", GRID, ids=[repr(kappa) for kappa, _ in GRID])
    def test_never_below_recorded(self, kappa, rows):
        cfg = make_config(kappa, Variant.UNBALANCED)
        assert len(rows) == 21
        for q, p_lost, recorded in rows:
            result = maximize_holevo_qubit(cfg, q, p_lost)
            assert result.chi_max >= recorded - 1e-13, (q, p_lost)
            s = result.argmax
            assert is_feasible(constraint_set(cfg, q, p_lost), s.a, s.b, s.c, s.d, s.f,
                               tol=1e-8), (q, p_lost)

    def test_few_slices_and_solves_on_the_qubit_scan(self, monkeypatch):
        # the benchmark's qubit-scan kappa menu; the Brent A-search took 13.9 slices
        # and 59.1 Newton evaluations (_gibbs calls) per solve on these rows
        calls = []
        gibbs = attack._gibbs

        def counting(*args):
            calls.append(args)
            return gibbs(*args)

        monkeypatch.setattr(attack, "_gibbs", counting)
        slices = [maximize_holevo_qubit(make_config(kappa), 0.01 * i).iterations
                  for kappa in (0.2, 0.3, 0.5, 0.6, 0.7, 0.8) for i in range(1, 13)]
        assert sum(slices) / len(slices) <= 6.0
        assert len(calls) / len(slices) <= 25.0


def _pinned_grid():
    """Rows (variant, kappa, q, p_lost, chi_s_max) of ``golden/pinned_chi_grid.csv``.

    Recorded from the nested alpha/delta search over kappa x Q x p_lost,
    8 x 8 x 4 points for the unbalanced and fix-loss variants, keeping the
    rows that searched (every fix-loss row takes the exact branch), values
    printed with ``repr``.
    """
    path = Path(__file__).resolve().parent / "golden" / "pinned_chi_grid.csv"
    with path.open(encoding="utf-8") as fh:
        return [(row[0], *map(float, row[1:])) for row in csv.reader(fh) if row[0] != "variant"]


class TestPinnedChiGrid:
    # the u = v variants search only with s pinned; the grid runs from
    # kappa = 1e-12 through Q = 1e-12 to a binding s-bound at p_lost = 0.99
    GRID = _pinned_grid()

    def test_never_below_recorded(self):
        assert len(self.GRID) == 152
        for variant, kappa, q, p_lost, recorded in self.GRID:
            cfg = make_config(kappa, variant)
            result = maximize_holevo_qubit(cfg, q, p_lost)
            assert result.iterations > 0, (variant, kappa, q, p_lost)
            assert result.chi_max >= recorded - 1e-13, (variant, kappa, q, p_lost)
            s = result.argmax
            assert is_feasible(constraint_set(cfg, q, p_lost), s.a, s.b, s.c, s.d, s.f,
                               tol=1e-8), (variant, kappa, q, p_lost)

    @pytest.mark.parametrize("variant", [Variant.UNBALANCED, Variant.PBS])
    def test_few_evaluations_on_the_qubit_scan(self, variant):
        # the benchmark's qubit-scan kappa menu; the nested alpha/delta search
        # took 125-451 evaluations on these rows
        for kappa in (0.2, 0.3, 0.5, 0.6, 0.7, 0.8):
            cfg = make_config(kappa, variant)
            for q in (0.01 * i for i in range(1, 13)):
                result = maximize_holevo_qubit(cfg, q)
                assert 0 < result.iterations <= 40, (kappa, q, result.iterations)


class TestMaxEntropySlice:
    """The inner solve of the A-search: the largest-entropy state of an A-slice."""

    @staticmethod
    def _entropy(alpha, beta, gamma, delta, phi):
        mid, half = 0.5 * (alpha + delta), 0.5 * (alpha - delta)
        disc = math.hypot(half, phi)
        return sum(-x * math.log(x) for x in (beta, gamma, mid + disc, mid - disc) if x > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(log_kappa=st.floats(-12.0, 0.0), q=st.floats(0.0, 0.45),
           frac=st.floats(0.02, 0.98), seed=st.integers(0, 2**32 - 1))
    def test_feasible_and_largest_entropy(self, log_kappa, q, frac, seed):
        cfg = make_config(10.0 ** log_kappa, Variant.PBS)
        cs = constraint_set(cfg, q)
        u, v = _error_relation(cs)
        lo, hi = _Search(cs).a_range()
        a_sum = lo + frac * (hi - lo)
        b_sum = 1.0 - a_sum
        corner = u * a_sum + v * b_sum
        assume(corner * corner < a_sum * b_sum * (1.0 - 1e-6))
        point, _, _ = _max_entropy(a_sum, b_sum, corner)
        alpha, beta, gamma, delta, phi = point
        assert min(alpha, beta, gamma, delta) >= 0.0
        # PSD up to rounding: near a face of the slice the block is almost pure
        assert alpha * delta - phi * phi >= -1e-15 * alpha * delta
        assert abs(alpha + gamma - a_sum) <= 1e-12
        assert abs(beta + delta - b_sum) <= 1e-12
        assert abs(phi - corner) <= 1e-12 * corner
        # the smaller side to its own relative precision (1-A is about kappa)
        small = min((a_sum, alpha + gamma), (b_sum, beta + delta))
        assert abs(small[1] - small[0]) <= 1e-12 * small[0]
        best = self._entropy(*point)
        # random states of the same slice: alpha in [corner^2/b_sum, a_sum],
        # delta in [corner^2/alpha, b_sum]
        rng = np.random.default_rng(seed)
        for _ in range(200):
            a = rng.uniform(corner * corner / b_sum, a_sum)
            d = rng.uniform(corner * corner / a, b_sum)
            assert best >= self._entropy(a, b_sum - d, a_sum - a, d, corner) - 1e-12

    @settings(max_examples=80, deadline=None)
    @given(pbs=st.booleans(), log_kappa=st.floats(-12.0, -0.01), q=st.floats(0.0, 0.45),
           p_lost=st.floats(0.0, 0.99), upper=st.booleans(), frac=st.floats(0.02, 0.98),
           seed=st.integers(0, 2**32 - 1))
    # k_sum > k_rest: the residual written from k_rest needs (dg - dd) g1; without it
    # Newton stalls here and the face (entropy 0.593) undervalues the slice (0.690)
    @example(pbs=False, log_kappa=-1.0, q=0.25, p_lost=0.875, upper=False, frac=0.25, seed=0)
    def test_pinned_slice(self, pbs, log_kappa, q, p_lost, upper, frac, seed):
        # at pinned s the s-constraint is a third linear constraint, and the
        # slice is a segment in gamma: alpha = a_sum - gamma,
        # delta = (k_sum - gamma dg) / dd, beta = b_sum - delta
        cfg = make_config(10.0 ** log_kappa, Variant.PBS if pbs else Variant.UNBALANCED)
        cs = constraint_set(cfg, q, p_lost)
        u, v = _error_relation(cs)
        search = _Search(cs, cs.s_bounds()[upper])
        lo, hi = search.a_range()
        assume(lo < hi)
        a_sum = lo + frac * (hi - lo)
        b_sum = 1.0 - a_sum
        corner = u * a_sum + v * b_sum
        dg, dd, k_sum, k_rest = pin = search.pin(a_sum, b_sum)
        face = search.face(a_sum, b_sum, pin)
        assume(corner * corner < face[0] * face[3] * (1.0 - 1e-6))
        solved = _max_entropy(a_sum, b_sum, corner, pin)
        # where dd is tiny (unbalanced, small kappa) gamma can be a sliver of
        # the slice, whose entropy then peaks at the face gamma = 0 and whose
        # multipliers diverge; the search then takes the face point
        point = alpha, beta, gamma, delta, phi = solved[0] if solved else face
        # the face's zero weight is exact, the solved point's to rounding
        assert min(alpha, beta, gamma, delta) >= -1e-15
        assert alpha * delta - phi * phi >= -1e-15 * alpha * delta
        small = min((a_sum, alpha + gamma), (b_sum, beta + delta))
        assert abs(small[1] - small[0]) <= 1e-12 * small[0]
        small = min((k_sum, gamma * dg + delta * dd), (k_rest, alpha * dg + beta * dd))
        assert abs(small[1] - small[0]) <= 1e-12 * small[0]
        assert abs(phi - corner) <= 1e-12 * corner
        best = self._entropy(*point)
        rng = np.random.default_rng(seed)
        g_lo, g_hi = max(0.0, (k_sum - b_sum * dd) / dg), min(a_sum, k_sum / dg)
        for g in rng.uniform(g_lo, g_hi, 200):
            d = (k_sum - g * dg) / dd
            if (a_sum - g) * d >= corner * corner:
                assert best >= self._entropy(a_sum - g, b_sum - d, g, d, corner) - 1e-12

    def test_face_fallbacks_are_slice_maxima(self, monkeypatch):
        # the slices whose Newton solve fails on CI's extreme qubit scans, on the
        # benchmark's kappa menu and at kappa = 1e-12 in Q steps of 0.01 (where solves
        # from predicted multipliers still fail): a_slice answers them by the face
        # gamma = g_lo, and no point of the gamma-segment of test_pinned_slice may beat it
        failed = []

        def solve(a_sum, b_sum, corner, pin=None, mu=None):
            solved = _max_entropy(a_sum, b_sum, corner, pin, mu)
            if solved is None:
                failed.append((a_sum, b_sum, corner, pin))
            return solved

        monkeypatch.setattr(attack, "_max_entropy", solve)
        grids = (((1e-12, 1e-4, 0.01), [round(0.05 * i, 2) for i in range(10)]),
                 ((0.2, 0.3, 0.5, 0.6, 0.7, 0.8), [round(0.01 * i, 2) for i in range(13)]),
                 ((1e-12,), [round(0.01 * i, 2) for i in range(46)]))
        for kappas, qs in grids:
            for variant in (Variant.UNBALANCED, Variant.PBS):
                for kappa in kappas:
                    cfg = make_config(kappa, variant)
                    for q in qs:
                        maximize_holevo_qubit(cfg, q)
        assert failed
        # a_slice solves only slices wider than 2 _SLACK, all of them pinned here
        for a_sum, b_sum, corner, (dg, dd, k_sum, _) in failed:
            g_lo, g_hi = max(0.0, (k_sum - b_sum * dd) / dg), min(a_sum, k_sum / dg)
            d = (k_sum - g_lo * dg) / dd
            face = self._entropy(a_sum - g_lo, b_sum - d, g_lo, d, corner)
            for g in np.linspace(g_lo, g_hi, 2001):
                d = (k_sum - g * dg) / dd
                if (a_sum - g) * d >= corner * corner:
                    assert self._entropy(a_sum - g, b_sum - d, g, d, corner) <= face + 1e-12


class TestSliceSlope:
    """The slope and curvature in A that each solved slice returns, from its multipliers."""

    @settings(max_examples=200, deadline=None)
    @given(variant=st.sampled_from(list(Variant)), log_kappa=st.floats(-3.0, 0.0),
           q=st.floats(0.005, 0.4), p_lost=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
           bound=st.sampled_from((None, 0, 1)), frac=st.floats(0.05, 0.95))
    def test_matches_central_differences(self, variant, log_kappa, q, p_lost, bound, frac):
        # bound: None for the free search, else the index of the pinned s-bound.  The
        # slope is held to central differences of chi-bar, and the curvature to those of
        # the slope: second differences of chi-bar lose up to 1e-4 to rounding near the
        # ends.  Richardson's extrapolation combines steps h and h/2, and each slice
        # comes from a search of its own, so no cache or warm start is shared
        cs = constraint_set(make_config(10.0 ** log_kappa, variant), q, p_lost)
        s = None if bound is None else cs.s_bounds()[bound]
        lo, hi = _Search(cs, s).a_range()
        assume(lo < hi)
        a_sum = lo + frac * (hi - lo)
        _, slope, curvature = _Search(cs, s).a_slice(a_sum)
        assume(slope is not None)

        def central(h):
            up, down = _Search(cs, s).a_slice(a_sum + h), _Search(cs, s).a_slice(a_sum - h)
            assume(up[1] is not None and down[1] is not None)
            return (up[0] - down[0]) / (2.0 * h), (up[1] - down[1]) / (2.0 * h)

        h = 1e-3 * (hi - lo) * min(frac, 1.0 - frac)
        (slope_h, curv_h), (slope_h2, curv_h2) = central(h), central(0.5 * h)
        want_slope, want_curv = (4.0 * slope_h2 - slope_h) / 3.0, (4.0 * curv_h2 - curv_h) / 3.0
        assert abs(slope - want_slope) <= 1e-6 * max(abs(want_slope), 1.0)
        assert abs(curvature - want_curv) <= 1e-6 * max(abs(want_curv), 1.0)


class TestARange:
    """The closed-form A-interval of ``_Search.a_range`` leaves out no feasible slice."""

    @staticmethod
    def _margin(search, a_sum):
        """alpha delta + _SLACK - phi^2 at the slice's face point, >= 0 where it is feasible."""
        alpha, _, _, delta, phi = search.face(a_sum, 1.0 - a_sum, search.pin(a_sum, 1.0 - a_sum))
        return alpha * delta + attack._SLACK - phi * phi

    @settings(max_examples=250, deadline=None)
    @given(variant=st.sampled_from(list(Variant)),
           log_kappa=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)), q=st.floats(0.0, 0.45),
           p_lost=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.just(1.0 - 1e-9)),
           bound=st.sampled_from((None, 0, 1)))
    # u = v and w0 = w1: the beta = 0 face's quadratic is a line, and its piece
    # (0.5, 0.595) of the interval (0.405, 0.595) must not be dropped
    @example(variant=Variant.UNBALANCED, log_kappa=0.0, q=0.05, p_lost=0.0, bound=0)
    def test_no_feasible_slice_outside(self, variant, log_kappa, q, p_lost, bound):
        # bound: None for the free search, else the index of the pinned s-bound
        cs = constraint_set(make_config(10.0 ** log_kappa, variant), q, p_lost)
        search = _Search(cs, None if bound is None else cs.s_bounds()[bound])
        lo, hi = search.a_range()
        offsets = np.geomspace(1e-13, 1e-2, 400).tolist()
        near = [end + o for end in (lo, hi) for o in [0.0, *offsets, *(-o for o in offsets)]]
        for a_sum in np.linspace(0.0, 1.0, 2001).tolist() + near:
            # feasible by more than the margin's rounding: where the margin is
            # tangent to 0 that rounding alone spans 2e-10 of A around an end
            if 0.0 <= a_sum <= 1.0 and self._margin(search, a_sum) >= 1e-15:
                assert lo - 1e-12 <= a_sum <= hi + 1e-12, (a_sum, lo, hi)
        if lo <= hi:
            assert min(self._margin(search, lo), self._margin(search, hi)) >= -1e-15, (lo, hi)


class TestSolverProperty:
    """Every variant, kappa down to 1e-15, Q and p_lost at their extremes."""

    @settings(max_examples=1500, deadline=None)
    @given(variant=st.sampled_from(list(Variant)), log_kappa=st.floats(-15.0, 0.0),
           q=st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.0, 0.5, exclude_max=True)),
           p_lost=st.one_of(st.just(0.0), st.just(1.0), st.just(1.0 - 1e-12),
                            st.floats(0.0, 1.0)))
    # PBS at kappa ~ 4e-15, p_lost = 1: chi-bar rounds to 1 + 1.9e-13 at a slack-dominated point
    @example(variant=Variant.PBS, log_kappa=-14.4, q=1e-12, p_lost=1.0)
    def test_finite_feasible_and_bounded(self, variant, log_kappa, q, p_lost):
        cfg = make_config(10.0 ** log_kappa, variant)
        result = maximize_holevo_qubit(cfg, q, p_lost)
        # chi-bar of a bit lies in [0, 1]; the closed form rounds at the 1e-13 level below 0
        assert math.isfinite(result.chi_max) and -1e-12 <= result.chi_max <= 1.0
        s = result.argmax
        assert is_feasible(constraint_set(cfg, q, p_lost), s.a, s.b, s.c, s.d, s.f, tol=1e-8)


class TestArgmaxReadBack:
    # the solver's sifted error-rate relation and state map against the
    # tests' raw relation (error_rate_Q) and weighting (sifted)
    @pytest.mark.parametrize("variant", list(Variant))
    def test_error_rate_and_chi_bar(self, variant):
        for kappa in (1e-8, 0.01, 0.2, 0.5, 1.0):
            cfg = make_config(kappa, variant)
            for q in (0.0, 0.01, 0.05, 0.2):
                for p_lost in (0.0, 0.5, 0.95):
                    result = maximize_holevo_qubit(cfg, q, p_lost)
                    s = result.argmax
                    # a skewed xi = 1/(1+kappa) has ~1e-16 of rounding, which 1/(1-xi) amplifies
                    tol = 1e-14 / (1.0 - cfg.receiver.xi_effective)
                    assert error_rate_Q(s, cfg)[0] == pytest.approx(q, abs=tol), (kappa, q, p_lost)
                    chi = chi_bar_of_params(*sifted(cfg, s.a, s.b, s.c, s.d, s.f))
                    assert chi == pytest.approx(result.chi_max, abs=1e-12), (kappa, q, p_lost)


class TestGridOracle:
    def test_balanced_anchor(self):
        cfg = make_config(1.0)
        chi, _ = grid_oracle(cfg, constraint_set(cfg, 0.05), 50)
        assert chi == pytest.approx(binary_entropy(0.05), abs=2e-3)

    def test_never_beats_optimizer(self):
        for kappa in (0.3, 0.8):
            cfg = make_config(kappa)
            cs = constraint_set(cfg, 0.05)
            chi_grid, arg = grid_oracle(cfg, cs, 25)
            chi_opt = maximize_holevo_qubit(cfg, 0.05).chi_max
            assert chi_grid <= chi_opt + 1e-6
            assert is_feasible(cs, arg.a, arg.b, arg.c, arg.d, arg.f, tol=1e-8)

    def test_uncorrelated_point_at_full_noise(self):
        # at Q = 1/2 the balanced problem reaches chi-bar = 1 at the
        # uncorrelated state; at kappa < 1 that state evaluates to h(xi)
        # and the maximum lies slightly above it
        cfg = make_config(1.0)
        chi, _ = grid_oracle(cfg, constraint_set(cfg, 0.4999999), 25)
        assert chi == pytest.approx(1.0, abs=1e-5)
        cfg = make_config(0.5)
        xi = cfg.xi
        product_chi = chi_bar_of_params(*sifted(cfg, xi / 2, xi / 2, (1 - xi) / 2, (1 - xi) / 2,
                                                0.0))
        assert product_chi == pytest.approx(binary_entropy(xi), abs=1e-12)
        chi_skew, _ = grid_oracle(cfg, constraint_set(cfg, 0.4999999), 25)
        assert chi_skew >= product_chi - 1e-9

    def test_single_feasible_point_at_zero_error(self):
        # at Q = 0 the qubit feasible set is the honest state alone
        cfg = make_config(0.02)
        cs = constraint_set(cfg, 0.0)
        chi, arg = grid_oracle(cfg, cs, 40)
        assert abs(chi) <= 1e-6
        assert is_feasible(cs, arg.a, arg.b, arg.c, arg.d, arg.f, tol=1e-8)
        assert arg.a == pytest.approx(cfg.xi, abs=1e-9)

    def test_rejects_low_resolution(self):
        cfg = make_config(1.0)
        with pytest.raises(ValueError):
            grid_oracle(cfg, constraint_set(cfg, 0.05), 10)


class TestQubitKeyrate:
    def test_perfect_correlations(self):
        assert qubit_point(make_config(1.0), 0.0).rate == pytest.approx(1.0, abs=1e-9)

    def test_balanced_analytic(self):
        assert qubit_point(make_config(1.0), 0.05).rate == pytest.approx(0.4272, abs=1e-3)

    def test_threshold_region(self):
        assert qubit_point(make_config(1.0), 0.11).rate <= 1e-3

    def test_raw_sign_preserved(self):
        point = qubit_point(make_config(1.0), 0.14)
        assert point.rate_raw < 0.0
        assert point.rate == 0.0

    def test_nondecreasing_in_kappa(self):
        # key per signal sent: the per-postselected rate times the kept weight
        cfgs = [make_config(k) for k in (0.3, 0.6, 1.0)]
        for q in (0.01, 0.05):
            rates = [signal_kept_weight(cfg) * qubit_point(cfg, q).rate for cfg in cfgs]
            for lo, hi in zip(rates, rates[1:]):
                assert hi >= lo - 1e-6
