"""In-process tracing of ubb84 from outside the program.

Each traced function is replaced, at every ``ubb84.*`` module attribute that
binds it, by a wrapper; that is the name its caller looks up, so no source
file changes.  Leaving the ``Tracer`` context puts the originals back.

* Span functions record one ``Span`` per call: name, start, end, parent and
  self time (duration minus the time covered by traced children).
* Hot leaf functions (called ~10^5-10^6 times) record no span of their own;
  they add a count, total time and self time to their enclosing span.
* ``ProcessPoolExecutor`` in ``ubb84.engine`` is replaced by a subclass that
  counts pools and submitted jobs, and measures pool lifetime and the CPU of
  its reaped workers (a ``RUSAGE_CHILDREN`` delta), all on the parent side.

Everything stays in memory until ``layer_metrics`` reads it.  Worker processes
forked from a traced parent keep their own copies, which are lost, so leaf
counts must come from a ``--threads 1`` run.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import sys
import time

# (span name, defining module, attribute)
SPANS = (
    ("cli.main", "ubb84.cli", "main"),
    ("engine.compare_variants", "ubb84.engine", "compare_variants"),
    ("engine.distance_scan", "ubb84.engine", "distance_scan"),
    ("engine.qubit_scan", "ubb84.engine", "qubit_scan"),
    ("engine.qubit_point", "ubb84.engine", "qubit_point"),
    ("engine.optimize_mu", "ubb84.engine", "optimize_mu"),
    ("engine.format_csv", "ubb84.engine", "format_csv"),
    ("attack.solve", "ubb84.attack", "maximize_holevo_realistic"),
    ("attack.solve", "ubb84.attack", "maximize_holevo_qubit"),
    ("squash.monte_carlo_check", "ubb84.squash", "monte_carlo_check"),
)
LEAVES = (
    ("attack.chi_bar", "ubb84.attack", "chi_bar_of_params"),
    ("protocol.filters", "ubb84.protocol", "filters"),
    ("channel.honest_statistics", "ubb84.channel", "honest_statistics"),
    ("qmath.binary_entropy", "ubb84.qmath", "binary_entropy"),
    ("sifting.overall_holevo", "ubb84.sifting", "overall_holevo"),
    ("squash.sample", "ubb84.squash", "squash_sample"),
    ("squash.distribution", "ubb84.squash", "squash_distribution"),
)
# spans that run in the CLI's own process when scans fan out to a pool
PARENT_SPANS = ("cli.main", "engine.compare_variants", "engine.distance_scan",
                "engine.qubit_scan", "engine.format_csv")


class Span:
    __slots__ = ("name", "parent", "start", "end", "self_s", "leaves", "result")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = self.self_s = 0.0
        self.leaves = {}  # leaf name -> [count, total_s, self_s]
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Pool:
    __slots__ = ("workers", "jobs", "start", "end", "child_cpu_s")

    def __init__(self, workers):
        self.workers = workers
        self.jobs = 0
        self.start = self.end = self.child_cpu_s = 0.0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Installs wrappers on ubb84; use as a context manager around one run."""

    def __init__(self, *, leaves: bool = True, spans=None):
        self.root = Span("trace.root", None)
        self.spans = []
        self.pools = []
        # a frame is [time covered by traced children, owning span]
        self._stack = [[0.0, self.root]]
        self._leaves = leaves
        self._span_names = None if spans is None else set(spans)
        self._patched = []

    # -- installation --------------------------------------------------------

    def __enter__(self):
        for name, module, attr in SPANS:
            if self._span_names is None or name in self._span_names:
                self._replace(module, attr, lambda fn, name=name: self._span_wrapper(name, fn))
        if self._leaves:
            for name, module, attr in LEAVES:
                self._replace(module, attr, lambda fn, name=name: self._leaf_wrapper(name, fn))
        self._replace("ubb84.engine", "ProcessPoolExecutor", lambda cls: self._pool_class(cls))
        self.root.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.root.end = time.perf_counter()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _replace(self, module, attr, make_wrapper):
        """Rebind every ubb84 module attribute that refers to module.attr.

        A name the program no longer has is skipped, and its metrics read 0.
        """
        original = getattr(importlib.import_module(module), attr, None)
        if original is None:
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ubb84" or mod_name.startswith("ubb84.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1][1])
            spans.append(span)
            frame = [0.0, span]
            stack.append(frame)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = clock()
                stack.pop()
                span.self_s = span.end - span.start - frame[0]
                stack[-1][0] += span.end - span.start

        return wrapper

    def _leaf_wrapper(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owner = stack[-1][1]
            frame = [0.0, owner]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                agg = owner.leaves.get(name)
                if agg is None:
                    agg = owner.leaves[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]

        return wrapper

    def _pool_class(self, base):
        pools = self.pools

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench = Pool(self._max_workers)
                pools.append(self._bench)
                self._bench.child_cpu_s = -_children_cpu()
                self._bench.start = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                self._bench.jobs += 1
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                if wait and self._bench.end == 0.0:
                    self._bench.end = time.perf_counter()
                    self._bench.child_cpu_s += _children_cpu()

        return TracedPool

    # -- results -------------------------------------------------------------

    def calls(self, name) -> int:
        return sum(1 for s in self.spans if s.name == name) + self._leaf(name, 0)

    def self_s(self, name) -> float:
        return sum((s.self_s for s in self.spans if s.name == name), 0.0) + self._leaf(name, 2)

    def _leaf(self, name, field):
        return sum(s.leaves[name][field] for s in (self.root, *self.spans) if name in s.leaves)

    def durations(self, name):
        return [s.duration for s in self.spans if s.name == name]

    def results(self, name):
        return [s.result for s in self.spans if s.name == name]


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of values by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_metrics(full: Tracer, pooled: Tracer) -> dict:
    """Per-layer numbers from a --threads 1 run (full) and a --threads nproc
    run traced on the parent side only (pooled)."""
    solves = full.calls("attack.solve")
    evals = full.calls("attack.chi_bar")
    results = full.results("attack.solve")
    solve_ms = [d * 1e3 for d in full.durations("attack.solve")]
    pools = [p for p in pooled.pools if p.end > 0.0]
    busy = sum(p.child_cpu_s for p in pools)
    capacity = sum((p.end - p.start) * p.workers for p in pools)
    return {
        "attack.solve.calls": solves,
        "attack.solve.self_s": full.self_s("attack.solve"),
        "attack.solve.p50_ms": quantile(solve_ms, 0.5),
        "attack.solve.p80_ms": quantile(solve_ms, 0.8),
        "attack.chi_bar.calls": evals,
        "attack.chi_bar.self_s": full.self_s("attack.chi_bar"),
        "attack.evals_per_solve": evals / solves if solves else 0.0,
        "attack.nm_iterations": (sum(getattr(r, "iterations", 0) for r in results) / solves
                                 if solves else 0.0),
        "attack.converged_frac": (sum(1 for r in results if getattr(r, "converged", False))
                                  / solves if solves else 0.0),
        "protocol.filters.calls": full.calls("protocol.filters"),
        "protocol.filters.self_s": full.self_s("protocol.filters"),
        "channel.honest_statistics.calls": full.calls("channel.honest_statistics"),
        "channel.honest_statistics.self_s": full.self_s("channel.honest_statistics"),
        "engine.optimize_mu.self_s": full.self_s("engine.optimize_mu"),
        "engine.qubit_point.calls": full.calls("engine.qubit_point"),
        "engine.format_csv.self_s": full.self_s("engine.format_csv"),
        "engine.csv_bytes": sum(len(r.encode()) for r in full.results("engine.format_csv")),
        "qmath.binary_entropy.calls": full.calls("qmath.binary_entropy"),
        "sifting.overall_holevo.calls": full.calls("sifting.overall_holevo"),
        "engine.pool.created": len(pooled.pools),
        "engine.pool.jobs": sum(p.jobs for p in pooled.pools),
        "engine.pool.utilization": busy / capacity if capacity > 0.0 else 0.0,
        "squash.sample.calls": full.calls("squash.sample"),
        "squash.sample.self_s": full.self_s("squash.sample"),
        "squash.distribution.calls": full.calls("squash.distribution"),
        "squash.monte_carlo_check.self_s": full.self_s("squash.monte_carlo_check"),
        "cli.main.self_s": full.self_s("cli.main"),
    }
