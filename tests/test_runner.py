"""Parallel runner round-trip and partial-failure tests."""

import dataclasses
import gc
import tempfile
from collections import Counter

from repro.experiments import cache as cache_module
from repro.experiments import runner
from repro.experiments.cache import TraceCache
from repro.experiments.grid import SweepSpec
from repro.experiments.runner import run_jobs, run_sweep
from repro.isa.executor import Trace


def small_spec(**overrides):
    defaults = dict(schemes=("isrb",), workloads=("move_chain",), max_ops=800)
    defaults.update(overrides)
    return SweepSpec(**defaults)


def test_two_job_parallel_round_trip(tmp_path):
    jobs = small_spec().expand()
    assert len(jobs) == 2
    serial = run_jobs(jobs, workers=1, cache_dir=str(tmp_path))
    parallel = run_jobs(jobs, workers=2, cache_dir=str(tmp_path))
    assert all(result.ok for result in parallel)
    # Input order is preserved and parallel execution is cycle-identical.
    for one, two in zip(serial, parallel):
        assert one.job.job_id == two.job.job_id
        assert one.result.cycles == two.result.cycles
        assert one.result.stats == two.result.stats


def test_partial_failure_does_not_abort_the_sweep(tmp_path):
    jobs = small_spec().expand()
    broken = dataclasses.replace(jobs[0], workload="no_such_workload",
                                 job_id="broken__job")
    results = run_jobs([broken, jobs[1]], workers=2, cache_dir=str(tmp_path))
    assert results[0].ok is False
    assert "no_such_workload" in results[0].error
    assert results[1].ok is True


def test_run_sweep_uses_the_trace_cache_once_per_workload(tmp_path):
    spec = SweepSpec(schemes=("isrb", "refcount_checkpoint"),
                     workloads=("spill_reload", "move_chain"), max_ops=800)
    report = run_sweep(spec, workers=2, cache_dir=str(tmp_path / "cache"))
    # 6 jobs, but only one functional execution per workload.
    assert report.meta["jobs"] == 6
    assert report.cache_stats["traces_generated"] == 2
    assert report.cache_stats["traces_reused"] == 0
    assert not report.failures
    assert set(report.speedups) == {"spill_reload", "move_chain"}
    for workload in report.speedups:
        for speedup in report.speedups[workload].values():
            assert speedup > 0.5
    # Re-running the same sweep reuses every trace.
    again = run_sweep(spec, workers=1, cache_dir=str(tmp_path / "cache"))
    assert again.cache_stats["traces_generated"] == 0
    assert again.cache_stats["traces_reused"] == 2
    assert again.speedups == report.speedups


def test_run_jobs_with_cold_cache_writes_the_trace_back(tmp_path):
    jobs = small_spec().expand()
    cache = TraceCache(tmp_path / "cold")
    assert cache.get(*jobs[0].trace_key) is None
    run_jobs(jobs, workers=1, cache_dir=str(tmp_path / "cold"))
    # The first job's miss was persisted, so later jobs (and runs) hit.
    assert TraceCache(tmp_path / "cold").get(*jobs[0].trace_key) is not None


def test_progress_callback_sees_every_job(tmp_path):
    jobs = small_spec().expand()
    seen = []
    run_jobs(jobs, workers=1, cache_dir=str(tmp_path),
             progress=lambda done, total, result: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]


def test_in_process_sweep_hands_traces_over_in_memory(monkeypatch):
    """An in-process sweep without a cache dir builds each trace once,
    never pickles it or makes a temp dir, and keeps no trace alive once
    it returns."""
    # An op count no other test uses, so traces that other tests leave
    # alive (memoized 800-op ones, say) are not counted below.
    max_ops = 640
    workloads = ("spill_reload", "move_chain")

    def refuse(*_args, **_kwargs):
        raise AssertionError("an in-process sweep must not touch the disk")

    built = Counter()
    materialize = runner.materialize_trace

    def counting(name, *args, **kwargs):
        built[name] += 1
        return materialize(name, *args, **kwargs)

    monkeypatch.setattr(TraceCache, "put", refuse)
    monkeypatch.setattr(TraceCache, "get", refuse)
    monkeypatch.setattr(tempfile, "mkdtemp", refuse)
    for module in (runner, cache_module):
        monkeypatch.setattr(module, "materialize_trace", counting)
    spec = SweepSpec(schemes=("isrb", "refcount_checkpoint"),
                     workloads=workloads, max_ops=max_ops)
    report = run_sweep(spec, workers=1, cache_dir=None)
    assert not report.failures
    assert report.meta["jobs"] == 6
    assert built == {workload: 1 for workload in workloads}

    gc.collect()
    alive = [obj for obj in gc.get_objects()
             if isinstance(obj, Trace) and obj.name in workloads
             and len(obj) == max_ops]
    assert alive == []
