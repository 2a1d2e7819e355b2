"""Trace-cache hit/miss, persistence and provider-hook tests."""

from repro.experiments.cache import TraceCache
from repro.workloads import clear_trace_provider, generate_trace


def test_miss_then_hit(tmp_path):
    cache = TraceCache(tmp_path)
    assert cache.get("move_chain", 500, 1) is None
    assert cache.stats.misses == 1

    trace = cache.get_or_generate("move_chain", 500, 1)
    assert len(trace) == 500
    assert cache.stats.generated == 1

    again = cache.get("move_chain", 500, 1)
    assert again is not None
    assert cache.stats.hits == 1
    assert [op.seq for op in again] == [op.seq for op in trace]


def test_persists_across_instances(tmp_path):
    TraceCache(tmp_path).get_or_generate("spill_reload", 400, 1)
    fresh = TraceCache(tmp_path)
    assert fresh.get("spill_reload", 400, 1) is not None
    assert fresh.stats.hits == 1
    assert fresh.stats.generated == 0


def test_keys_distinguish_workload_ops_and_seed(tmp_path):
    cache = TraceCache(tmp_path)
    cache.get_or_generate("move_chain", 400, 1)
    assert cache.get("move_chain", 400, 2) is None
    assert cache.get("move_chain", 500, 1) is None
    assert cache.get("spill_reload", 400, 1) is None


def test_corrupt_file_counts_invalid_and_regenerates(tmp_path):
    cache = TraceCache(tmp_path)
    cache.get_or_generate("move_chain", 300, 1)
    cache.path("move_chain", 300, 1).write_bytes(b"not a pickle")
    trace = cache.get_or_generate("move_chain", 300, 1)
    assert len(trace) == 300
    assert cache.stats.invalid == 1
    assert cache.stats.generated == 2


def test_warm_generates_each_distinct_trace_once(tmp_path):
    cache = TraceCache(tmp_path)
    keys = [("move_chain", 300, 1), ("spill_reload", 300, 1),
            ("move_chain", 300, 1), ("move_chain", 300, 1)]
    warmed = cache.warm(keys)
    assert list(warmed) == [("move_chain", 300, 1), ("spill_reload", 300, 1)]
    assert (cache.stats.generated, cache.stats.hits) == (2, 0)
    # A second warm of the same keys reuses everything.
    again = TraceCache(tmp_path)
    rewarmed = again.warm(keys)
    assert (again.stats.generated, again.stats.hits) == (0, 2)
    assert [len(trace) for trace in rewarmed.values()] \
        == [len(trace) for trace in warmed.values()]


def test_installed_cache_intercepts_generate_trace(tmp_path):
    cache = TraceCache(tmp_path)
    try:
        with cache:
            first = generate_trace("move_chain", max_ops=300, seed=1)
            second = generate_trace("move_chain", max_ops=300, seed=1)
        assert cache.stats.generated == 1
        assert cache.stats.hits == 1
        assert [op.pc for op in first] == [op.pc for op in second]
        # After uninstall the executor runs directly again (no new stats).
        generate_trace("move_chain", max_ops=300, seed=1)
        assert cache.stats.generated == 1
    finally:
        clear_trace_provider()
