"""In-memory spans around the simulator's public entry points.

Traced runs install :func:`install` in the process that simulates (the
batch worker, or the service launcher ``serve_traced.py``).  Each wrapped
call records one span ``(id, parent, name, start, end, sweep, label)``
in memory; :meth:`Tracer.dump` writes them out once, when the run ends.
Parents come from a per-thread stack, so a layer's self time is its
span's duration minus that of its child spans.  Untraced runs install
nothing, which is what ``tracing_overhead`` compares against.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: One entry per traced ``run_sweep``: execute phase vs cell time.
        self.sweeps: list[dict] = []
        self.stepped_cycles = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_sweep(self, sweep: str | None) -> None:
        """Tag this thread's following spans with a sweep id."""
        self._local.sweep = sweep

    @contextmanager
    def span(self, name: str, label: str | None = None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end,
                               getattr(self._local, "sweep", None), label))

    def wrap(self, owner, attr: str, name: str, label=None,
             on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``label(args, kwargs)`` names the span's subject (a workload);
        ``on_result(result)`` sees each return value.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name, label(args, kwargs) if label else None):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, wrapper)

    def count_stepped(self, result) -> None:
        """Add the cycles a detailed-core run actually stepped (not skipped)."""
        stepped = result.cycles - int(result.stats.get("skipped_cycles", 0))
        with self._lock:
            self.stepped_cycles += stepped

    def wrap_run_sweep(self, module) -> None:
        """Trace ``module.run_sweep``: a sweep span, its id, its overhead.

        The sweep id is the store owner (``svc-sweep-0001`` in the
        service).  The progress callback is chained to sum the elapsed
        time of simulated cells, and the run's ``RunLogger`` gives the
        execute phase, so their difference is the runner's own overhead.
        """
        from repro.telemetry.runlog import RunLogger

        original = module.run_sweep

        @functools.wraps(original)
        def run_sweep(spec, *args, progress=None, store=None, logger=None,
                      **kwargs):
            sweep = store.owner if store is not None else "sweep"
            logger = logger if logger is not None else RunLogger()
            elapsed = [0.0]

            def chained(done, total, job_result):
                if not job_result.from_store:
                    elapsed[0] += job_result.elapsed
                if progress is not None:
                    progress(done, total, job_result)

            self.set_sweep(sweep)
            try:
                with self.span("experiments.runner.sweep"):
                    return original(spec, *args, progress=chained, store=store,
                                    logger=logger, **kwargs)
            finally:
                with self._lock:
                    self.sweeps.append({
                        "sweep": sweep, "elapsed_s": elapsed[0],
                        "execute_s": logger.phase_seconds.get("execute", 0.0)})
                self.set_sweep(None)

        module.run_sweep = run_sweep

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "sweeps": self.sweeps,
                       "stepped_cycles": self.stepped_cycles}, handle)


def _trace_label(args, kwargs):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return trace.name.split("#")[0]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    import repro.workloads as workloads
    from repro.experiments import cache, runner
    from repro.isa.functional import FunctionalCore
    from repro.paper.store import ResultsStore
    from repro.pipeline.core import Core
    from repro.pipeline.sampling import SampledSimulator

    # Full-detail traces come from materialize_trace (each module holds its
    # own reference); sampled windows are recorded by the functional core.
    for module in (workloads, cache, runner):
        tracer.wrap(module, "materialize_trace", "workloads.trace",
                    label=lambda args, kwargs: args[0])
    tracer.wrap(FunctionalCore, "record", "workloads.trace")
    tracer.wrap(cache.TraceCache, "get", "experiments.cache.io")
    tracer.wrap(cache.TraceCache, "put", "experiments.cache.io")
    tracer.wrap(runner, "simulate_trace", "pipeline.core.simulate",
                label=lambda args, kwargs: args[0].name)
    tracer.wrap(Core, "run", "pipeline.core.run", label=_trace_label,
                on_result=tracer.count_stepped)
    tracer.wrap(Core, "snapshot", "pipeline.snapshot.capture")
    tracer.wrap(FunctionalCore, "fast_forward", "isa.functional.ff")
    tracer.wrap(SampledSimulator, "plan", "pipeline.sampling.plan")
    tracer.wrap(SampledSimulator, "execute_plan", "pipeline.sampling.execute")
    for op in ("claim", "release", "record", "query"):
        tracer.wrap(ResultsStore, op, f"paper.store.{op}")


def merge(dumps: list[dict]) -> dict:
    """One dump from several processes' dumps (span ids made unique)."""
    merged = {"spans": [], "sweeps": [], "stepped_cycles": 0}
    offset = 0
    for dumped in dumps:
        for span_id, parent, *rest in dumped["spans"]:
            merged["spans"].append((span_id + offset,
                                    parent + offset if parent else 0, *rest))
        offset += max((span[0] for span in dumped["spans"]), default=0)
        merged["sweeps"] += dumped["sweeps"]
        merged["stepped_cycles"] += dumped["stepped_cycles"]
    return merged


def summarize(dumped: dict) -> dict:
    """Layer host times (seconds) and store means (ms) from dumped spans."""
    spans = dumped["spans"]
    names = {span[0]: span[2] for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        child_time[span[1]] += span[4] - span[3]
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    by_workload: dict[str, float] = defaultdict(float)
    under_execute: dict[str, float] = defaultdict(float)
    store_by_sweep: dict[str, float] = defaultdict(float)
    sweep_time: dict[str, float] = defaultdict(float)
    for span_id, parent, name, start, end, sweep, label in spans:
        own = (end - start) - child_time[span_id]
        self_time[name] += own
        total[name] += end - start
        calls[name] += 1
        if name in ("pipeline.core.run", "pipeline.core.simulate") and label:
            by_workload[label] += own
        if names.get(parent) == "pipeline.sampling.execute":
            under_execute[name] += own
        if name.startswith("paper.store.") and name != "paper.store.query":
            store_by_sweep[sweep] += end - start
        if name == "experiments.runner.sweep":
            sweep_time[sweep] += end - start
    run_s = self_time["pipeline.core.run"]
    summary = {
        "workloads.trace_s": self_time["workloads.trace"],
        "experiments.cache.io_s": self_time["experiments.cache.io"],
        "pipeline.core.sim_s": run_s + self_time["pipeline.core.simulate"],
        "pipeline.core.us_per_stepped_cycle": (
            run_s / dumped["stepped_cycles"] * 1e6
            if dumped["stepped_cycles"] else 0.0),
        "isa.functional.ff_s": self_time["isa.functional.ff"],
        "pipeline.sampling.plan_s": self_time["pipeline.sampling.plan"],
        "pipeline.sampling.window_s": under_execute["pipeline.core.run"],
        "pipeline.snapshot.capture_s": under_execute["pipeline.snapshot.capture"],
        "experiments.runner.overhead_s": sum(
            sweep["execute_s"] - sweep["elapsed_s"] for sweep in dumped["sweeps"]),
        # Share of sweep-thread time spent in store claim/release/record.
        "paper.store.sweep_share": (
            sum(store_by_sweep[sweep] for sweep in sweep_time)
            / sum(sweep_time.values()) if sweep_time else 0.0),
    }
    for op in ("claim", "release", "record", "query"):
        name = f"paper.store.{op}"
        summary[f"{name}_ms"] = (total[name] / calls[name] * 1e3
                                 if calls[name] else 0.0)
        summary[f"{name}_calls"] = calls[name]
    for workload, seconds in sorted(by_workload.items()):
        summary[f"pipeline.core.sim_s.{workload}"] = seconds
    return summary
