"""Determinism regression tests for the experiment harness.

The sweep artifact is the unit of scientific record, so it must be a pure
function of the :class:`SweepSpec`: re-running a sweep, or running it on a
different worker-pool size, must yield byte-identical report JSON.  A
golden markdown snapshot additionally pins the table *format* (and the
actual speedup numbers of a tiny sweep) against accidental drift.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.grid import SweepSpec
from repro.experiments.report import build_report
from repro.experiments.runner import run_jobs, run_sweep

GOLDEN_SWEEP = Path(__file__).parent / "golden" / "sweep_small.md"


def test_run_sweep_twice_is_byte_identical(small_spec):
    first = run_sweep(small_spec, workers=1, cache_dir=None)
    second = run_sweep(small_spec, workers=1, cache_dir=None)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("cached", [True, False],
                         ids=["cache_dir", "no_cache_dir"])
def test_pool_size_does_not_change_artifact(small_spec, tmp_path, cached):
    """Serial and pool runs write the same bytes.  Without a cache dir the
    serial run hands its traces over in memory and the pool reads them from
    an ephemeral cache; with one, both go through a fresh cache directory
    per run, so cache statistics are identical too."""
    def cache_dir(name: str) -> str | None:
        return str(tmp_path / name) if cached else None

    serial = run_sweep(small_spec, workers=1, cache_dir=cache_dir("serial"))
    parallel = run_sweep(small_spec, workers=3, cache_dir=cache_dir("parallel"))
    assert serial.to_json() == parallel.to_json()


def test_cache_does_not_change_artifact_tables(small_spec, tmp_path):
    """Cached and uncached runs agree on every table (only cache_stats differ)."""
    uncached = run_sweep(small_spec, workers=1, cache_dir=None)
    cached = run_sweep(small_spec, workers=1, cache_dir=str(tmp_path / "cache"))
    assert uncached.to_markdown() == cached.to_markdown()
    assert uncached.to_csv() == cached.to_csv()
    uncached_dict = uncached.to_dict()
    cached_dict = cached.to_dict()
    for key in ("workloads", "variants", "speedups", "geomean_speedups",
                "ipc", "results", "failures", "meta"):
        assert uncached_dict[key] == cached_dict[key]


def test_sweep_table_matches_golden_snapshot(small_spec):
    """The 2-workload x 2-scheme table matches the committed snapshot.

    Regenerate with ``python tests/golden/regenerate.py`` only when the
    table format or the simulated machine intentionally changed.
    """
    report = run_sweep(small_spec, workers=1, cache_dir=None)
    assert report.to_markdown() + "\n" == GOLDEN_SWEEP.read_text()


@pytest.fixture(scope="module")
def sampled_spec() -> SweepSpec:
    return SweepSpec(
        schemes=("isrb",),
        workloads=("spill_reload", "move_chain"),
        max_ops=3_000,
        seed=1,
        sample_period=1_000,
        sample_window=300,
        sample_warmup=200,
    )


def test_sampled_sweep_rerun_is_byte_identical(sampled_spec):
    """Two-speed mode is as deterministic as full-detail replay."""
    first = run_sweep(sampled_spec, workers=1, cache_dir=None)
    second = run_sweep(sampled_spec, workers=1, cache_dir=None)
    assert first.to_json() == second.to_json()
    assert first.meta["sampling"] == {"period": 1_000, "window": 300,
                                      "warmup": 200, "cooldown": 300}


def test_sampled_sweep_pool_size_does_not_change_artifact(sampled_spec):
    serial = run_sweep(sampled_spec, workers=1, cache_dir=None)
    parallel = run_sweep(sampled_spec, workers=3, cache_dir=None)
    assert serial.to_json() == parallel.to_json()


def test_sampled_sweep_caches_plans_not_traces(sampled_spec, tmp_path):
    """A cache dir holds shared-warmup plans for sampled sweeps, never traces.

    The checkpoint farm must not change a single table cell: cached,
    uncached and independently warmed runs all aggregate identical results
    (the farm only removes redundant warmup work).
    """
    cache_dir = tmp_path / "c"
    cached = run_sweep(sampled_spec, workers=1, cache_dir=str(cache_dir))
    uncached = run_sweep(sampled_spec, workers=1, cache_dir=None)
    unfarmed = build_report(run_jobs(sampled_spec.expand()),
                            meta=uncached.meta)
    assert cached.to_markdown() == uncached.to_markdown() == unfarmed.to_markdown()
    assert uncached.to_json() == unfarmed.to_json()
    cached_dict = cached.to_dict()
    uncached_dict = uncached.to_dict()
    for key in ("workloads", "variants", "speedups", "geomean_speedups",
                "ipc", "results", "failures", "meta"):
        assert cached_dict[key] == uncached_dict[key]
    # One plan per workload was generated and then shared by both jobs.
    assert cached.cache_stats["plans_generated"] == 2
    assert cached.cache_stats["plans_reused"] == 0
    assert len(list(cache_dir.rglob("*.plan.pkl"))) == 2
    assert not list(cache_dir.rglob("*.trace.pkl"))
    # A second sweep over the same cache re-uses every plan.
    again = run_sweep(sampled_spec, workers=1, cache_dir=str(cache_dir))
    assert again.cache_stats["plans_reused"] == 2
    assert again.to_markdown() == cached.to_markdown()


@pytest.fixture(scope="module")
def adaptive_spec() -> SweepSpec:
    return SweepSpec(
        schemes=("isrb",),
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


def test_adaptive_sweep_rerun_is_byte_identical(adaptive_spec):
    """Error-budget window placement is a pure function of the spec: the
    stopping rule probes a deterministic machine, so re-running the sweep
    reproduces the artifact byte for byte."""
    first = run_sweep(adaptive_spec, workers=1, cache_dir=None)
    second = run_sweep(adaptive_spec, workers=1, cache_dir=None)
    assert first.to_json() == second.to_json()
    assert first.meta["sampling"] == {
        "period": 50_000, "window": 300, "warmup": 200, "cooldown": 150,
        "tolerance": 0.05, "min_windows": 2, "max_windows": 8}


def test_adaptive_sweep_pool_size_does_not_change_artifact(adaptive_spec):
    serial = run_sweep(adaptive_spec, workers=1, cache_dir=None)
    parallel = run_sweep(adaptive_spec, workers=3, cache_dir=None)
    assert serial.to_json() == parallel.to_json()


def test_resumed_sweep_artifact_is_byte_identical(small_spec, tmp_path):
    """A sweep killed mid-grid and resumed equals the uninterrupted bytes.

    The results store is the resume mechanism: the "killed" run only
    manages to append its first jobs, the resumed run supplies the rest,
    and sweep.json must come out byte-identical either way.
    """
    from repro.experiments.runner import run_jobs
    from repro.paper.store import ResultsStore

    uninterrupted = run_sweep(small_spec, workers=1, cache_dir=None)

    store_path = tmp_path / "results.jsonl"
    killed = ResultsStore(store_path)
    run_jobs(small_spec.expand()[:2], store=killed)
    killed.close()  # the process dies here; two cells survived on disk

    resumed = run_sweep(small_spec, workers=1, cache_dir=None,
                        store=ResultsStore(store_path))
    assert resumed.to_json() == uninterrupted.to_json()

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    uninterrupted.save(out_a)
    resumed.save(out_b)
    assert (out_a / "sweep.json").read_bytes() == (out_b / "sweep.json").read_bytes()


def test_paper_figures_survive_interruption_byte_identically(tmp_path):
    """An interrupted ``repro paper`` grid re-renders identical figures.json.

    Uninterrupted run vs a run whose store starts with only a partial
    grid: figures.json and REPORT.md must match byte for byte, because
    both are pure functions of the simulation results.
    """
    from repro.experiments.runner import run_jobs
    from repro.paper import FIGURES, run_paper
    from repro.paper.store import ResultsStore

    clean = run_paper(figures=("9",), smoke=True, out_dir=tmp_path / "clean")

    out = tmp_path / "resumed"
    store_path = out / "store" / "results.jsonl"
    partial = ResultsStore(store_path)
    jobs = FIGURES["9"].slices(smoke=True)[0].spec.expand()
    run_jobs(jobs[:3], store=partial)
    partial.close()  # interrupted here

    resumed = run_paper(figures=("9",), smoke=True, out_dir=out)
    assert resumed.simulated == len(jobs) - 3
    assert (resumed.paths["figures_json"].read_bytes()
            == clean.paths["figures_json"].read_bytes())
    assert (resumed.paths["report"].read_bytes()
            == clean.paths["report"].read_bytes())
    assert (resumed.paths["figure9"].read_bytes()
            == clean.paths["figure9"].read_bytes())


def test_store_corruption_degrades_to_clean_rerun_with_same_bytes(small_spec,
                                                                  tmp_path):
    """A trashed results store never changes the artifact, only the work."""
    from repro.paper.store import ResultsStore

    reference = run_sweep(small_spec, workers=1, cache_dir=None)
    store_path = tmp_path / "results.jsonl"
    store_path.write_bytes(b"\xde\xad not a store \xbe\xef\n" * 20)
    rerun = run_sweep(small_spec, workers=1, cache_dir=None,
                      store=ResultsStore(store_path))
    assert rerun.to_json() == reference.to_json()


def test_trace_generation_is_deterministic():
    from repro.workloads import generate_trace

    first = generate_trace("branchy", max_ops=1_000, seed=7)
    second = generate_trace("branchy", max_ops=1_000, seed=7)
    assert len(first) == len(second)
    assert all(a == b for a, b in zip(first.ops, second.ops))
    # A different seed must actually change the program's behaviour.
    other = generate_trace("branchy", max_ops=1_000, seed=8)
    assert any(a != b for a, b in zip(first.ops, other.ops))
