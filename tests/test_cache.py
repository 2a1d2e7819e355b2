"""Trace-cache hit/miss and persistence tests."""

from repro.experiments.cache import TraceCache, warm
from repro.pipeline.config import CoreConfig
from repro.pipeline.sampling import SampledSimulator, SamplingConfig


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
    # Trace files and sample-plan files share one read path: corrupt each.
    simulator = SampledSimulator(CoreConfig(), SamplingConfig(
        period=600, window=200, warmup=100, cooldown=100))
    cases = {"trace": ("move_chain", 300, 1),
             "plan": ("move_chain", 1_200, 1, simulator)}
    for name, key in cases.items():
        cache = TraceCache(tmp_path / name)
        first = cache.get_or_generate(*key)
        cache.path(*key).write_bytes(b"not a pickle")
        assert cache.get_or_generate(*key) == first, name
        assert (cache.stats.invalid, cache.stats.generated) == (1, 2), name


def test_warm_generates_each_distinct_trace_once(tmp_path):
    cache = TraceCache(tmp_path)
    keys = [("move_chain", 300, 1), ("spill_reload", 300, 1),
            ("move_chain", 300, 1), ("move_chain", 300, 1)]
    warmed = warm(keys, cache=cache)
    assert list(warmed) == [("move_chain", 300, 1), ("spill_reload", 300, 1)]
    assert (cache.stats.generated, cache.stats.hits) == (2, 0)
    # A second warm of the same keys reuses everything.
    again = TraceCache(tmp_path)
    rewarmed = warm(keys, cache=again)
    assert (again.stats.generated, again.stats.hits) == (0, 2)
    assert [len(trace) for trace in rewarmed.values()] \
        == [len(trace) for trace in warmed.values()]
