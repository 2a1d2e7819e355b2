"""Checkpoint-farm tests: shared-warmup plans, the plan cache, sweep wiring.

The farm's load-bearing contract is *exact equality*: executing a shared
:class:`~repro.pipeline.sampling.SamplePlan` under a scheme configuration
must produce the identical :class:`SimulationResult` that the scheme's own
independently warmed run produces.  Everything scheme-local (tracker,
rename state, TAGE, Store Sets, SMB) chains through the scheme's own
snapshots; only the functionally warmed structures -- which are a pure
function of the architectural instruction stream -- are shared.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import TraceCache, plan_cache_key, warm
from repro.experiments.cli import main as cli_main
from repro.experiments.grid import SweepSpec, scheme_config
from repro.experiments.report import build_report
from repro.experiments.runner import run_jobs, run_sweep
from repro.pipeline.config import CoreConfig
from repro.pipeline.sampling import SampledSimulator, SamplingConfig
from repro.workloads import build_workload

MAX_OPS = 4_000
SAMPLING = SamplingConfig(period=1_000, window=300, warmup=200, cooldown=150)

#: Schemes exercised by the equality property: the paper's headline scheme,
#: a walk-recovery scheme, the MIT and the no-sharing baseline -- together
#: they cover every recovery style the detailed execution distinguishes.
FARM_SCHEMES = ("baseline", "isrb", "refcount", "mit")


@pytest.fixture(scope="module")
def shared_plan():
    image = build_workload("spill_reload", seed=1)
    return SampledSimulator(CoreConfig(), SAMPLING).plan(
        image, "spill_reload", MAX_OPS, workload="spill_reload")


# -- the equality property -------------------------------------------------------------


@pytest.mark.parametrize("scheme", FARM_SCHEMES)
def test_farm_result_equals_independent_warming(shared_plan, scheme):
    """execute_plan(shared plan) == run_workload, field for field."""
    config = scheme_config(scheme)
    farmed = SampledSimulator(config, SAMPLING).execute_plan(shared_plan)
    independent = SampledSimulator(config, SAMPLING).run_workload(
        "spill_reload", max_ops=MAX_OPS, seed=1)
    assert farmed.to_dict() == independent.to_dict()


def test_plan_is_reusable_and_never_mutated(shared_plan):
    """Executing a plan twice (different schemes between) changes nothing."""
    first = SampledSimulator(scheme_config("isrb"), SAMPLING).execute_plan(shared_plan)
    SampledSimulator(scheme_config("mit"), SAMPLING).execute_plan(shared_plan)
    again = SampledSimulator(scheme_config("isrb"), SAMPLING).execute_plan(shared_plan)
    assert first.to_dict() == again.to_dict()


def test_plan_is_deterministic():
    image = build_workload("move_chain", seed=1)
    simulator = SampledSimulator(CoreConfig(), SAMPLING)
    first = simulator.plan(image, "move_chain", 2_000)
    second = simulator.plan(build_workload("move_chain", seed=1),
                            "move_chain", 2_000)
    assert first == second


def test_execute_plan_rejects_foreign_geometry(shared_plan):
    other = SampledSimulator(scheme_config("isrb"),
                             SamplingConfig(period=2_000, window=300, warmup=200))
    with pytest.raises(ValueError, match="sampling"):
        other.execute_plan(shared_plan)


def test_execute_plan_rejects_foreign_machine(shared_plan):
    import dataclasses

    from repro.memory.hierarchy import HierarchyConfig

    small_btb = scheme_config("isrb").replace(btb_entries=512)
    with pytest.raises(ValueError, match="warm structure"):
        SampledSimulator(small_btb, SAMPLING).execute_plan(shared_plan)
    assert small_btb.warm_signature() != CoreConfig().warm_signature()
    # Sanity: the signature really keys on the warm structures only.
    assert scheme_config("mit").warm_signature() == CoreConfig().warm_signature()
    resized = dataclasses.replace(
        HierarchyConfig())  # identical hierarchy -> identical signature
    assert CoreConfig().replace(memory=resized).warm_signature() \
        == CoreConfig().warm_signature()


# -- the plan cache ---------------------------------------------------------------------


def test_plan_cache_roundtrip(tmp_path, shared_plan):
    cache = TraceCache(tmp_path)
    simulator = SampledSimulator(CoreConfig(), SAMPLING)
    assert cache.get("spill_reload", MAX_OPS, 1, simulator) is None
    cache.put("spill_reload", MAX_OPS, 1, shared_plan, simulator)
    loaded = cache.get("spill_reload", MAX_OPS, 1, simulator)
    assert loaded == shared_plan
    # A simulator with different geometry never sees the foreign plan.
    other = SampledSimulator(CoreConfig(),
                             SamplingConfig(period=2_000, window=300, warmup=200))
    assert other.sampling_fingerprint() != simulator.sampling_fingerprint()
    assert cache.get("spill_reload", MAX_OPS, 1, other) is None


def test_warm_plans_counts_generated_and_reused(tmp_path):
    cache = TraceCache(tmp_path)
    simulator = SampledSimulator(CoreConfig(), SAMPLING)
    keys = [("move_chain", 2_000, 1), ("spill_reload", 2_000, 1),
            ("move_chain", 2_000, 1)]
    plans = warm(keys, simulator, cache)
    assert list(plans) == [("move_chain", 2_000, 1), ("spill_reload", 2_000, 1)]
    assert (cache.stats.generated, cache.stats.hits) == (2, 0)
    assert warm(keys, simulator, cache) == plans
    assert (cache.stats.generated, cache.stats.hits) == (2, 2)


def test_plan_cache_key_separates_machines():
    simulator = SampledSimulator(CoreConfig(), SAMPLING)
    resized = SampledSimulator(CoreConfig().replace(btb_entries=512), SAMPLING)
    assert plan_cache_key("w", 100, 1, simulator) \
        != plan_cache_key("w", 100, 1, resized)


def test_plan_cache_key_is_stable_for_fixed_geometry():
    """Pre-error-budget plan-cache keys must not change (cache reuse), and
    only an error-budget simulator grows the adaptive suffix."""
    simulator = SampledSimulator(CoreConfig(), SAMPLING)
    key = plan_cache_key("w", 100, 1, simulator)
    assert "__t" not in key
    budget = SampledSimulator(CoreConfig(), SamplingConfig(
        period=1_000, window=300, warmup=200, cooldown=150, tolerance=0.05))
    adaptive_key = plan_cache_key("w", 100, 1, budget)
    assert "__t0.05-5-64-" in adaptive_key
    assert adaptive_key != key


def test_plan_cache_key_separates_probe_machines():
    """Adaptive placement depends on the probed machine (PRF sizing is not
    in the warm signature), so differently sized probe machines must never
    share an adaptive plan."""
    budget = SamplingConfig(period=1_000, window=300, warmup=200,
                            cooldown=150, tolerance=0.05)
    default = SampledSimulator(CoreConfig(), budget)
    small_prf = SampledSimulator(CoreConfig().replace(num_int_pregs=96), budget)
    assert default.config.warm_signature() == small_prf.config.warm_signature()
    assert plan_cache_key("w", 100, 1, default) \
        != plan_cache_key("w", 100, 1, small_prf)


# -- sweep wiring -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def farm_spec() -> SweepSpec:
    return SweepSpec(
        schemes=("isrb", "refcount"),
        workloads=("spill_reload",),
        max_ops=3_000,
        seed=1,
        sample_period=1_000,
        sample_window=300,
        sample_warmup=200,
        sample_cooldown=150,
    )


def _independent(spec: SweepSpec, farmed):
    """``spec``'s jobs run with no shared plan: each warms on its own."""
    return build_report(run_jobs(spec.expand()), meta=farmed.meta)


def test_farm_sweep_equals_unfarmed_sweep(farm_spec):
    """The whole-artifact property: farmed == independent warming, byte for byte."""
    farmed = run_sweep(farm_spec, workers=1, cache_dir=None)
    unfarmed = _independent(farm_spec, farmed)
    assert farmed.to_json() == unfarmed.to_json()


def test_farm_sweep_equals_unfarmed_across_pool_sizes(farm_spec, tmp_path):
    farmed = run_sweep(farm_spec, workers=3, cache_dir=str(tmp_path / "farm"))
    unfarmed = _independent(farm_spec, farmed)
    assert farmed.to_markdown() == unfarmed.to_markdown()
    assert [r.to_dict() for r in farmed.results] \
        == [r.to_dict() for r in unfarmed.results]


@pytest.fixture(scope="module")
def budget_spec() -> SweepSpec:
    return SweepSpec(
        schemes=("isrb", "refcount"),
        workloads=("long_phase_mix",),
        max_ops=30_000,
        seed=1,
        sample_window=300,
        sample_warmup=200,
        sample_cooldown=150,
        sample_tolerance=0.05,
        sample_min_windows=2,
        sample_max_windows=8,
    )


def test_error_budget_farm_sweep_equals_unfarmed_sweep(budget_spec):
    """Adaptive planning probes a scheme-stripped machine, so the farm and
    the independently warmed sweep freeze the same plan and the whole
    artifact stays byte-identical."""
    farmed = run_sweep(budget_spec, workers=1, cache_dir=None)
    unfarmed = _independent(budget_spec, farmed)
    assert farmed.to_json() == unfarmed.to_json()
    windows = [result.stat("sampling_windows") for result in farmed.results]
    assert windows and all(count >= 2 for count in windows)
    assert len(set(windows)) == 1    # matched offsets: same plan every scheme


def test_error_budget_farm_sweep_across_pool_sizes(budget_spec, tmp_path):
    pooled = run_sweep(budget_spec, workers=3, cache_dir=str(tmp_path / "c"))
    serial = _independent(budget_spec, pooled)
    assert pooled.to_markdown() == serial.to_markdown()
    assert [r.to_dict() for r in pooled.results] \
        == [r.to_dict() for r in serial.results]


def test_pooled_farm_sweep_without_cache_uses_ephemeral_plans(farm_spec):
    """workers > 1 and no cache dir: plans still shared (ephemerally)."""
    pooled = run_sweep(farm_spec, workers=2, cache_dir=None)
    serial = run_sweep(farm_spec, workers=1, cache_dir=None)
    assert pooled.to_json() == serial.to_json()
    assert pooled.cache_stats == {}


def test_failing_workload_fails_its_jobs_not_the_sweep(tmp_path):
    """A workload whose plan or trace cannot be built fails its own cells;
    the rest of the grid runs, sampled or in full detail."""
    from repro.paper.store import ResultsStore

    spec = SweepSpec(
        schemes=("isrb",),
        workloads=("spill_reload",),
        max_ops=100,                 # smaller than the warmup: no window fits
        seed=1,
        sample_period=1_000,
        sample_window=300,
        sample_warmup=200,
    )
    # The cached and the cache-less run plan through the same loop.
    for cache_dir in (str(tmp_path / "plans"), None):
        report = run_sweep(spec, workers=1, cache_dir=cache_dir)
        assert len(report.failures) == 2, cache_dir  # baseline + variant
        assert all("no room for a measured window" in failure["error"]
                   for failure in report.failures), cache_dir

    # Full detail: a malformed imported trace beside a good workload.
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    detailed = SweepSpec(schemes=("isrb", "rda"),
                         workloads=("move_chain", f"trace:{bad}"),
                         max_ops=500, seed=1)
    store = ResultsStore(tmp_path / "store.jsonl", fsync=False)
    runs = {"in-process": {},
            "cache dir": {"cache_dir": str(tmp_path / "traces")},
            "2-worker pool": {"workers": 2},
            "store": {"store": store}}
    for label, options in runs.items():
        report = run_sweep(detailed, **options)
        assert [failure["workload"] for failure in report.failures] \
            == [f"trace:{bad}"] * 3, label     # baseline + two variants
        assert all("TraceFormatError" in failure["error"]
                   for failure in report.failures), label
        assert set(report.speedups["move_chain"]) == set(report.variants), label
    assert len(store) == 3
    assert all(store.has(job) for job in detailed.expand()
               if job.workload == "move_chain")
    store.close()


def test_cli_sweep_farm_reports_plan_cache(tmp_path, capsys):
    code = cli_main([
        "sweep", "--schemes", "isrb,refcount", "--workloads", "move_chain",
        "--max-ops", "3000", "--sample-period", "1000",
        "--sample-window", "300", "--warmup", "200", "--quiet",
        "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path)])
    assert code == 0
    err = capsys.readouterr().err
    assert "checkpoint farm: 1 shared warmup(s) planned" in err
