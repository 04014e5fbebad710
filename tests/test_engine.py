import concurrent.futures
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import every_variant, signal_kept_weight
from ubb84 import channel, engine
from ubb84.attack import maximize_holevo_qubit
from ubb84.channel import default_params, honest_statistics, transmittance
from ubb84.engine import (
    CSV_HEADER,
    cutoff_distance,
    distance_scan,
    format_csv,
    optimize_mu,
    qubit_point,
    qubit_scan,
    realistic_keyrate,
)
from ubb84.protocol import Variant, make_config
from ubb84.qmath import binary_entropy


class TestRealisticKeyrate:
    def test_noiseless_closed_form(self):
        # perfect detectors, no dark counts, no misalignment: everything but
        # the single-photon term vanishes and chi = 0 at q = 0
        cfg = make_config(1.0, Variant.PBS)
        params = default_params()._replace(y0=0.0, e_d=0.0, eta_det=1.0)
        point = realistic_keyrate(cfg, params, 0.0, 0.1)
        assert point.chi_s_max == pytest.approx(0.0, abs=1e-9)
        assert point.rate == pytest.approx(0.0452, abs=1e-4)
        assert point.rate == pytest.approx(0.5 * 0.1 * math.exp(-0.1), abs=1e-9)

    def test_vanishing_source(self):
        cfg = make_config(1.0, Variant.PBS)
        params = default_params()._replace(y0=0.0, e_d=0.0, eta_det=1.0)
        assert realistic_keyrate(cfg, params, 0.0, 1e-6).rate < 1e-6

    def test_rate_bounded_by_single_photon_share(self):
        point = realistic_keyrate(make_config(0.5), default_params(), 20.0, 0.2)
        stats = honest_statistics(make_config(0.5), default_params(), 20.0)(0.2)
        assert point.rate <= 0.5 * stats.p_click_s + 1e-15
        assert point.rate <= 1.0

    def test_fields_propagate(self):
        cfg = make_config(0.5, Variant.PBS)
        point = realistic_keyrate(cfg, default_params(), 15.0, 0.3)
        stats = honest_statistics(cfg, default_params(), 15.0)(0.3)
        assert point.variant == "pbs"
        assert point.kappa == 0.5
        assert point.distance_km == 15.0
        assert point.mu == 0.3
        assert point.qber_total == pytest.approx(stats.q_tot)
        assert point.q_single == pytest.approx(stats.q_single)
        assert point.p_lost == pytest.approx(stats.p_lost)

    @pytest.mark.parametrize("kappa", [1e-14, 0.05, 0.5, 1.0])
    def test_optimized_rows_match_realistic_keyrate(self, kappa):
        # the mu search and the single-point path report the same row, every field, at
        # the chosen mu; past the cutoff too (250-900 km, where q_single nears 1/2)
        params = default_params()
        points = distance_scan(every_variant(kappa), params,
                               [0.0, 20.0, 100.0, 250.0, 500.0, 900.0])
        assert len(points) == 24
        for p in points:
            cfg = make_config(p.kappa, p.variant)
            assert realistic_keyrate(cfg, params, p.distance_km, p.mu) == p

    def test_qubit_bridge_at_unit_efficiency(self):
        # with eta = 1, no dark counts and e_d = Q the realistic single-photon
        # kernel reduces to the qubit rate formula
        q = 0.05
        cfg = make_config(1.0)
        params = default_params()._replace(y0=0.0, e_d=q, eta_det=1.0, f_ec=1.0)
        stats = honest_statistics(cfg, params, 0.0)(0.1)
        assert stats.q_single == pytest.approx(q, abs=1e-12)
        assert stats.p_lost == pytest.approx(0.0, abs=1e-12)
        point = realistic_keyrate(cfg, params, 0.0, 0.1)
        chi_qubit = maximize_holevo_qubit(cfg, q).chi_max
        assert point.chi_s_max == pytest.approx(chi_qubit, abs=1e-6)
        kernel = (2.0 * point.rate_raw
                  + stats.p_click_total * binary_entropy(stats.q_tot)) / stats.p_click_s
        assert kernel == pytest.approx(1.0 - point.chi_s_max, abs=1e-9)
        assert kernel - binary_entropy(q) == pytest.approx(
            1.0 - binary_entropy(q) - chi_qubit, abs=1e-6
        )


class TestOptimizeMu:
    def test_noiseless_interior_optimum(self):
        # R = mu exp(-mu) / 2 peaks exactly at mu = 1
        cfg = make_config(1.0, Variant.PBS)
        params = default_params()._replace(y0=0.0, e_d=0.0, eta_det=1.0)
        point = optimize_mu(cfg, params, 0.0)
        assert point.mu == pytest.approx(1.0, abs=2e-3)
        assert point.rate == pytest.approx(0.5 * math.exp(-1.0), abs=1e-5)

    def test_matches_dense_grid(self):
        grid = np.arange(1e-3, 2.0, 1e-3)
        default = default_params()
        noisy = default._replace(y0=1e-4, e_d=0.05)
        noiseless = default._replace(y0=0.0, e_d=0.0)
        # PBS at kappa = 0.05: rate(mu) dips just above mu = 1e-4, so a search that
        # trusts a bracket end stops there (the dense-grid best is mu ~ 0.325); at
        # 200 km every rate in the bracket is negative and the better end is the answer
        for kappa, variant, distance, params in (
                (0.5, Variant.UNBALANCED, 20.0, default), (0.05, Variant.PBS, 0.0, default),
                (0.05, Variant.PBS, 10.0, default), (0.5, Variant.UNBALANCED, 0.0, noisy),
                (0.5, Variant.PBS, 20.0, noiseless), (0.05, Variant.PBS, 200.0, default)):
            cfg = make_config(kappa, variant)
            point = optimize_mu(cfg, params, distance)
            # q_single and p_lost do not depend on mu, so one solve serves the grid
            chi = realistic_keyrate(cfg, params, distance, 0.1).chi_s_max
            rates = []
            for m in grid:
                stats = honest_statistics(cfg, params, distance)(m)
                rates.append(0.5 * (stats.p_click_s * (1.0 - chi) - stats.p_click_total
                                    * params.f_ec * binary_entropy(stats.q_tot)))
            case = (kappa, variant, distance)
            assert point.mu == pytest.approx(grid[int(np.argmax(rates))], abs=2e-3), case
            assert point.rate_raw >= max(rates) - 1e-9, case

    def test_few_rate_evaluations_on_the_benchmark_grid(self, monkeypatch):
        # the benchmark's compare jobs; the golden-section search took 28 statistics
        # per job, one for chi, 26 rates and one for the reported point
        calls = []

        def counted(*args):
            at = honest_statistics(*args)

            def counted_at(mu):
                calls.append(mu)
                return at(mu)

            return counted_at

        monkeypatch.setattr(channel, "honest_statistics", counted)
        counts = []
        for kappa in (0.2, 0.3, 0.5, 0.6, 0.7, 0.8):
            for variant in Variant:
                for distance in range(0, 61, 5):
                    calls.clear()
                    optimize_mu(make_config(kappa, variant), default_params(), float(distance))
                    counts.append(len(calls))
        assert len(counts) == 312
        assert sum(counts) / len(counts) <= 20.0
        assert max(counts) <= 30

    def test_distance_part_computed_once(self, monkeypatch):
        # the transmittance, the receiver row and what follows from them do not
        # depend on mu, so one search reads them once, not once per rate
        reads = []

        def counted(params, distance_km):
            reads.append(distance_km)
            return transmittance(params, distance_km)

        monkeypatch.setattr(channel, "transmittance", counted)
        for variant in Variant:
            for distance in (0.0, 30.0, 300.0):
                reads.clear()
                optimize_mu(make_config(0.5, variant), default_params(), distance)
                assert reads == [distance], (variant, distance)

    def test_beats_bracket_ends(self):
        cfg = make_config(1.0)
        point = optimize_mu(cfg, default_params(), 10.0)
        for mu_end in (1e-4, 2.0):
            end = realistic_keyrate(cfg, default_params(), 10.0, mu_end)
            assert point.rate_raw >= end.rate_raw - 1e-12

    def test_all_negative_reports_floored_zero(self):
        cfg = make_config(0.5)
        params = default_params()._replace(y0=1e-4, e_d=0.05)
        point = optimize_mu(cfg, params, 60.0)
        assert point.rate_raw < 0.0
        assert point.rate == 0.0


class TestScans:
    def test_distance_scan_monotone_and_ordered(self):
        cfg = make_config(0.5)
        points = distance_scan([cfg], default_params(), [0.0, 15.0, 30.0, 45.0])
        assert [p.distance_km for p in points] == [0.0, 15.0, 30.0, 45.0]
        rates = [p.rate_raw for p in points]
        for lo, hi in zip(rates[1:], rates):
            assert hi >= lo - 1e-12

    def test_cutoff_detection(self):
        cfg = make_config(0.5)
        params = default_params()._replace(y0=1e-4, e_d=0.05)
        points = distance_scan([cfg], params, [0.0, 10.0, 20.0])
        assert cutoff_distance(points) == 10.0
        assert cutoff_distance(points[:1]) is None

    @staticmethod
    def spy_pool(monkeypatch):
        """Count the jobs each real pool maps; a pool opens after the first job."""
        from concurrent.futures.process import ProcessPoolExecutor

        pooled = []

        class SpyPool(ProcessPoolExecutor):
            def map(self, fn, *columns, chunksize=1):
                pooled.append(len(columns[0]))
                return super().map(fn, *columns, chunksize=chunksize)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        monkeypatch.setattr(engine, "POOL_COST_S", 0.0)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return pooled

    def test_parallel_matches_serial(self, monkeypatch):
        pooled = self.spy_pool(monkeypatch)
        cfg = make_config(0.8, Variant.PBS)
        serial = distance_scan([cfg], default_params(), [0.0, 20.0, 40.0], threads=1)
        parallel = distance_scan([cfg], default_params(), [0.0, 20.0, 40.0], threads=2)
        assert serial == parallel
        assert pooled == [2]

    def test_qubit_scan_parallel_matches_serial(self, monkeypatch):
        pooled = self.spy_pool(monkeypatch)
        cfgs = [make_config(0.3), make_config(1.0, Variant.PBS)]
        qs = [0.0, 0.02, 0.07, 0.2]
        serial = qubit_scan(cfgs, qs, threads=1)
        assert qubit_scan(cfgs, qs, threads=2) == serial
        assert pooled == [7]

    @staticmethod
    def fake_pool(monkeypatch):
        """Record each pool's (max_workers, job count, chunksize) and map serially.

        A fork pool starts all max_workers processes at once, so it is sized
        without starting any; the scan sees three usable cores.
        """
        opened = []

        class FakePool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns, chunksize=1):
                opened.append((self.max_workers, len(columns[0]), chunksize))
                return map(fn, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        return opened

    def test_pool_capped_at_jobs_and_usable_cores(self, monkeypatch):
        # the first job runs in-process, so 3 distances leave 2 jobs and 4 variants 3
        opened = self.fake_pool(monkeypatch)
        monkeypatch.setattr(engine, "POOL_COST_S", 0.0)
        cfg = make_config(1.0)
        distances = [0.0, 20.0, 40.0]
        serial = distance_scan([cfg], default_params(), distances, threads=1)
        assert distance_scan([cfg], default_params(), distances, threads=10**6) == serial
        assert distance_scan([cfg], default_params(), distances, threads=-1) == serial
        distance_scan(every_variant(1.0), default_params(), [0.0], threads=10**6)
        distance_scan(every_variant(1.0), default_params(), [0.0], threads=0)
        sizes = [workers for workers, _, _ in opened]
        assert sizes == [2, 3, 3]

    def test_pool_takes_the_rest_in_chunks(self, monkeypatch):
        # a clock under which the k-th job takes k CPU seconds, against a pool that
        # costs 40 s.  After one job the 51 left project to 51 s; three workers would
        # save 2/3 of that, 34 s, so the scan goes on in-process.  After two the 50 left
        # project to 75 s and three workers save 50 s: the rest goes to them in four
        # chunks each, 5 jobs a chunk.  Two workers save half, 37.5 s, so they wait for
        # a third job: 49 left project to 98 s and save 49 s, in chunks of 7.
        opened = self.fake_pool(monkeypatch)
        distances = [5.0 * i for i in range(13)]
        serial = distance_scan(every_variant(0.5), default_params(), distances, threads=1)
        monkeypatch.setattr(engine, "POOL_COST_S", 40.0)
        for threads, expected in ((0, (3, 50, 5)), (2, (2, 49, 7))):
            readings = itertools.accumulate(itertools.count())  # 0, 1, 3, 6, ...
            monkeypatch.setattr(engine, "time",
                                SimpleNamespace(process_time=lambda: next(readings)))
            opened.clear()
            assert distance_scan(every_variant(0.5), default_params(), distances,
                                 threads=threads) == serial
            assert opened == [expected]

    @staticmethod
    def refuse_pool(monkeypatch):
        """Fail on any pool the scan opens; the scan sees three usable cores."""
        from concurrent.futures.process import ProcessPoolExecutor

        def refuse(self, *args, **kwargs):
            raise AssertionError("a 52-job scan opened a process pool")

        monkeypatch.setattr(ProcessPoolExecutor, "__init__", refuse)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)

    # The two default 52-job shapes of the benchmark take about 15 ms of CPU time
    # each, so three workers would save about 10 ms, far less than POOL_COST_S.  The
    # tests rely on the first jobs' CPU time, so they depend on the machine's speed,
    # not its load: a Python line tracer still inflates the CPU time, and under one
    # the scan can open a pool.

    def test_default_compare_runs_in_process(self, monkeypatch):
        self.refuse_pool(monkeypatch)
        distance_scan(every_variant(0.5), default_params(), [5.0 * i for i in range(13)],
                      threads=0)

    def test_default_qubit_scan_runs_in_process(self, monkeypatch):
        self.refuse_pool(monkeypatch)
        cfgs = [make_config(k) for k in (0.2, 0.5, 0.8, 1.0)]
        qubit_scan(cfgs, [0.01 * i for i in range(13)], threads=0)

    def test_empty_distance_list_rejected(self):
        with pytest.raises(ValueError):
            distance_scan([make_config(1.0)], default_params(), [])

    def test_qubit_scan_rows_and_orderings(self):
        cfgs = [make_config(0.5), make_config(1.0)]
        qs = [0.0, 0.03, 0.06]
        points = qubit_scan(cfgs, qs)
        assert len(points) == 6
        by_kappa = {0.5: points[:3], 1.0: points[3:]}
        kept = {kappa: signal_kept_weight(cfg) for kappa, cfg in zip((0.5, 1.0), cfgs)}
        for q_index in range(3):  # key per signal sent
            assert (kept[0.5] * by_kappa[0.5][q_index].rate
                    <= kept[1.0] * by_kappa[1.0][q_index].rate + 1e-6)
        for kappa in (0.5, 1.0):
            assert by_kappa[kappa][0].rate == pytest.approx(1.0, abs=1e-6)

    def test_compare_variants_ordering_at_single_distance(self):
        points = distance_scan(every_variant(0.5), default_params(), [20.0])
        rates = {p.variant: p.rate for p in points}
        assert rates["pbs"] >= rates["unbalanced"] >= rates["fix-loss"]
        assert rates["unbalanced"] == pytest.approx(rates["fix-uneven-bs"], abs=1e-4)


class TestCsv:
    def test_header(self):
        assert ",".join(CSV_HEADER) == (
            "variant,kappa,distance_km,mu,qber_total,q_single,p_lost,chi_s_max,rate_raw,rate"
        )

    def test_deterministic_output(self):
        points = qubit_scan([make_config(1.0)], [0.0, 0.05])
        again = qubit_scan([make_config(1.0)], [0.0, 0.05])
        assert format_csv(points) == format_csv(again)

    def test_negative_raw_retained(self):
        point = qubit_point(make_config(1.0), 0.2)
        text = format_csv([point])
        row = text.splitlines()[1].split(",")
        assert float(row[CSV_HEADER.index("rate_raw")]) < 0.0
        assert float(row[CSV_HEADER.index("rate")]) == 0.0

    def test_qubit_rows_leave_channel_fields_empty(self):
        text = format_csv([qubit_point(make_config(1.0), 0.05)])
        row = text.splitlines()[1].split(",")
        assert row[CSV_HEADER.index("distance_km")] == ""
        assert row[CSV_HEADER.index("mu")] == ""
