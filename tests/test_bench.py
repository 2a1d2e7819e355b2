"""Tests for the benchmark subsystem (suite, report, smoke gate, CLI)."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchConfig,
    BenchReport,
    BenchResult,
    compare_reports,
    run_benchmarks,
)
from repro.experiments.cli import main
from repro.experiments.grid import scheme_config
from repro.pipeline.sampling import SamplingConfig

TINY = BenchConfig(
    workloads=("move_chain",),
    schemes=("baseline", "isrb"),
    max_ops=300,
    repeat=1,
    sweep=True,
    sweep_workloads=("move_chain",),
    sweep_schemes=("isrb",),
    ff_max_ops=600,
    sampled_workloads=("move_chain",),
    sampled_max_ops=600,
    sampling=SamplingConfig(period=200, window=60, warmup=50, cooldown=40),
    long_workloads=(),
    farm_workload="move_chain",
    farm_schemes=("isrb", "refcount"),
    farm_max_ops=800,
    farm_sampling=SamplingConfig(period=200, window=60, warmup=50, cooldown=40),
    adaptive_workload="move_chain",
    adaptive_max_ops=800,
    adaptive_sampling=SamplingConfig(period=200, window=60, warmup=50, cooldown=40),
    # The paper tier runs the fixed-scale smoke figure grids; it has its
    # own dedicated test below and would dominate this fixture's runtime.
    paper=False,
)

#: CLI flags shared by the bench CLI tests: skip the expensive default-suite
#: sampled, >=1M-op long, and checkpoint-farm tiers.
TINY_CLI = ("--max-ops", "300", "--repeat", "1", "--no-sweep",
            "--no-sampled", "--no-long", "--no-farm-sweep")


class FakeClock:
    """A deterministic perf_counter stand-in (1 ms per reading)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


# -- configuration -------------------------------------------------------------------


def test_config_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload"):
        BenchConfig(workloads=("no_such_workload",))


def test_config_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        BenchConfig(schemes=("isrb", "turbo"))


def test_config_accepts_baseline_pseudo_scheme():
    config = BenchConfig(schemes=("baseline",), workloads=("move_chain",))
    assert scheme_config(config.schemes[0]).variant_name().endswith("base")


def test_smoke_preset_is_reduced():
    smoke = BenchConfig.smoke()
    full = BenchConfig()
    assert smoke.max_ops < full.max_ops
    assert len(smoke.workloads) < len(full.workloads)
    assert len(smoke.schemes) < len(full.schemes)


def test_scheme_config_enables_optimisations():
    config = scheme_config("isrb")
    assert config.move_elimination.enabled
    assert config.smb.enabled
    assert config.tracker.scheme == "isrb"


# -- suite ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_report() -> BenchReport:
    return run_benchmarks(TINY, clock=FakeClock())


def test_suite_produces_all_tiers(tiny_report):
    names = [result.name for result in tiny_report.results]
    assert "trace_gen/move_chain" in names
    assert "sim/baseline/move_chain" in names
    assert "sim/isrb/move_chain" in names
    assert "ff/move_chain" in names
    assert "sampled/move_chain" in names
    assert "sweep_farm/move_chain" in names
    assert "adaptive/move_chain" in names
    assert "sweep/small" in names


def test_farm_tier_records_speedup(tiny_report):
    by_name = {result.name: result for result in tiny_report.results}
    farm = by_name["sweep_farm/move_chain"]
    assert farm.ops == 3                      # baseline + two scheme jobs
    assert farm.detail["speedup"] > 0
    assert farm.detail["independent_wall_seconds"] > 0
    assert farm.detail["failures"] == 0
    summary = tiny_report.summary()
    assert summary["sweep_farm_jobs_per_sec"] > 0
    assert summary["sweep_farm_speedup_geomean"] > 0


def test_adaptive_tier_saves_detailed_ops_at_equal_tolerance(tiny_report):
    """Error-budget sampling must not spend more detailed micro-ops than
    the fixed geometry once both target the same achieved tolerance."""
    by_name = {result.name: result for result in tiny_report.results}
    adaptive = by_name["adaptive/move_chain"]
    assert adaptive.kind == "adaptive"
    assert adaptive.detail["windows_adaptive"] >= 2
    assert adaptive.detail["windows_adaptive"] \
        <= adaptive.detail["windows_fixed"]
    assert adaptive.detail["detailed_ops_saved"] >= 0
    assert adaptive.detail["ops_saved_ratio"] >= 1.0
    assert adaptive.detail["probe_ops"] > 0
    assert adaptive.detail["stop_reason"] in ("tolerance", "ceiling", "halted")
    # The paired replay covers the same instruction windows on both sides,
    # so pairing can never *increase* the delta variance.
    assert adaptive.detail["paired_delta_var"] \
        <= adaptive.detail["unpaired_delta_var"] + 1e-12
    summary = tiny_report.summary()
    assert summary["adaptive_ops_saved_geomean"] >= 1.0


def test_sampled_tier_records_accuracy_and_speedup(tiny_report):
    by_name = {result.name: result for result in tiny_report.results}
    ff = by_name["ff/move_chain"]
    assert ff.ops == TINY.ff_max_ops
    sampled = by_name["sampled/move_chain"]
    assert sampled.ops == TINY.sampled_max_ops
    assert sampled.cycles and sampled.cycles > 0
    for key in ("ipc_full", "ipc_sampled", "ipc_ratio", "speedup", "windows"):
        assert sampled.detail[key] > 0, key
    summary = tiny_report.summary()
    assert summary["ff_ops_per_sec_geomean"] > 0
    assert summary["sampled_ipc_ratio_geomean"] > 0
    assert summary["sampled_speedup_geomean"] > 0


def test_suite_counts_real_work(tiny_report):
    by_name = {result.name: result for result in tiny_report.results}
    assert by_name["trace_gen/move_chain"].ops == TINY.max_ops
    sim = by_name["sim/baseline/move_chain"]
    assert sim.ops == TINY.max_ops          # committed micro-ops
    assert sim.cycles and sim.cycles > 0
    assert sim.detail["ipc"] > 0
    # Event-driven loop effectiveness is part of every sim case, so the
    # bench gate can compare cycles/s alongside the skip statistics.
    assert sim.detail["skipped_cycles"] >= 0
    assert 0 < sim.detail["events_per_cycle"] <= 1.0
    sweep = by_name["sweep/small"]
    assert sweep.ops == 2                   # baseline + one variant job
    assert sweep.detail["failures"] == 0


def test_fake_clock_makes_throughput_deterministic(tiny_report):
    again = run_benchmarks(TINY, clock=FakeClock())
    assert [r.to_dict() for r in again.results] \
        == [r.to_dict() for r in tiny_report.results]


def test_summary_metrics_present_and_positive(tiny_report):
    summary = tiny_report.summary()
    for key in ("trace_gen_ops_per_sec_geomean", "sim_ops_per_sec_geomean",
                "sim_cycles_per_sec_geomean", "sweep_jobs_per_sec"):
        assert summary[key] > 0, key


def test_paper_tier_times_the_smoke_pipeline():
    """The paper/smoke case records cells-per-second of the whole pipeline."""
    config = BenchConfig(workloads=("move_chain",), schemes=("baseline",),
                         max_ops=300, repeat=1, sweep=False, sampled=False,
                         long_workloads=(), farm_sweep=False, adaptive=False,
                         paper=True)
    report = run_benchmarks(config)
    by_name = {result.name: result for result in report.results}
    paper = by_name["paper/smoke"]
    assert paper.kind == "paper"
    assert paper.detail["figures"] == 3
    assert paper.detail["failures"] == 0
    assert paper.ops == paper.detail["cells"] > 0
    assert report.summary()["paper_cells_per_sec"] > 0


def test_progress_callback_sees_every_case():
    seen: list[str] = []
    run_benchmarks(TINY, clock=FakeClock(), progress=seen.append)
    assert len(seen) == len(run_benchmarks(TINY, clock=FakeClock()).results)


# -- report round trip ---------------------------------------------------------------


def test_report_json_roundtrip(tiny_report, tmp_path):
    path = tiny_report.save(tmp_path / "bench.json")
    loaded = BenchReport.load(path)
    assert loaded.summary() == tiny_report.summary()
    assert [r.to_dict() for r in loaded.results] \
        == [r.to_dict() for r in tiny_report.results]


def test_report_text_mentions_every_case(tiny_report):
    text = tiny_report.to_text()
    for result in tiny_report.results:
        assert result.name in text


# -- the smoke gate ------------------------------------------------------------------


def _report_with(sim_ops_per_sec: float) -> BenchReport:
    return BenchReport(results=[BenchResult(
        name="sim/isrb/move_chain", kind="sim",
        ops=1000, wall_seconds=1000 / sim_ops_per_sec, cycles=500)])


def test_compare_passes_within_tolerance():
    assert compare_reports(_report_with(80.0), _report_with(100.0),
                           tolerance=0.30) == []


def test_compare_flags_regression_beyond_tolerance():
    regressions = compare_reports(_report_with(60.0), _report_with(100.0),
                                  tolerance=0.30)
    assert len(regressions) >= 1
    assert any("sim_ops_per_sec_geomean" in message for message in regressions)


def test_compare_never_flags_improvements():
    assert compare_reports(_report_with(500.0), _report_with(100.0),
                           tolerance=0.0) == []


def test_compare_ignores_metrics_missing_from_either_side():
    empty = BenchReport()
    assert compare_reports(empty, _report_with(100.0)) == []
    assert compare_reports(_report_with(100.0), empty) == []


def test_compare_uses_shared_cases_not_whole_suite_averages():
    """A smoke subset is gated case-against-case, not against a full-suite
    geomean that a fast subset would beat even while regressing."""
    fast = BenchResult(name="sim/isrb/move_chain", kind="sim",
                       ops=1000, wall_seconds=10.0, cycles=500)     # 100/s
    slow = BenchResult(name="sim/isrb/load_load", kind="sim",
                       ops=1000, wall_seconds=100.0, cycles=500)    # 10/s
    baseline = BenchReport(results=[fast, slow])                    # geomean ~31.6/s
    regressed = BenchReport(results=[BenchResult(
        name="sim/isrb/move_chain", kind="sim",
        ops=1000, wall_seconds=20.0, cycles=500)])                  # 50/s: -50%
    # 50/s beats the whole-suite geomean, but is 50% below its own baseline
    # case -- the gate must flag it.
    assert compare_reports(regressed, baseline, tolerance=0.30)


def test_compare_validates_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        compare_reports(_report_with(1.0), _report_with(1.0), tolerance=1.5)


# -- CLI -----------------------------------------------------------------------------


def test_cli_bench_writes_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_core.json"
    code = main(["bench", "--workloads", "move_chain", "--schemes", "baseline",
                 *TINY_CLI, "--quiet", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["sim_ops_per_sec_geomean"] > 0
    assert any(row["name"] == "sim/baseline/move_chain" for row in data["results"])
    assert "trace_gen/move_chain" in capsys.readouterr().out


def test_cli_bench_smoke_gate_detects_fast_baseline(tmp_path):
    """A baseline claiming absurd throughput must fail the smoke gate."""
    out = tmp_path / "bench.json"
    code = main(["bench", "--workloads", "move_chain", "--schemes", "baseline",
                 *TINY_CLI, "--quiet", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    for row in data["results"]:  # pretend the committed baseline was 1000x faster
        row["wall_seconds"] /= 1000.0
    impossible = tmp_path / "impossible.json"
    impossible.write_text(json.dumps(data))
    code = main(["bench", "--workloads", "move_chain", "--schemes", "baseline",
                 *TINY_CLI, "--quiet", "--out", "", "--baseline", str(impossible)])
    assert code == 1


def test_cli_bench_gate_passes_against_own_output(tmp_path):
    out = tmp_path / "bench.json"
    args = ["bench", "--workloads", "move_chain", "--schemes", "baseline",
            *TINY_CLI, "--quiet"]
    assert main([*args, "--out", str(out)]) == 0
    # Same machine, same suite, generous tolerance: must pass.
    assert main([*args, "--out", "", "--baseline", str(out),
                 "--tolerance", "0.9"]) == 0


def test_cli_bench_never_clobbers_the_baseline_it_gates_against(tmp_path, capsys):
    """`--out X --baseline X` must not overwrite X and then pass trivially."""
    args = ["bench", "--workloads", "move_chain", "--schemes", "baseline",
            *TINY_CLI, "--quiet"]
    baseline = tmp_path / "BENCH_core.json"
    assert main([*args, "--out", str(baseline)]) == 0
    # Make the committed baseline impossibly fast: the gate must FAIL even
    # when --out points at the very same file.
    data = json.loads(baseline.read_text())
    for row in data["results"]:
        row["wall_seconds"] /= 1000.0
    baseline.write_text(json.dumps(data))
    before = baseline.read_text()
    code = main([*args, "--out", str(baseline), "--baseline", str(baseline)])
    assert code == 1
    assert baseline.read_text() == before, "baseline artifact was overwritten"
    assert "not overwriting baseline" in capsys.readouterr().err


def test_cli_bench_check_compares_two_artifacts_without_running(tmp_path):
    args = ["bench", "--workloads", "move_chain", "--schemes", "baseline",
            *TINY_CLI, "--quiet"]
    head = tmp_path / "head.json"
    assert main([*args, "--out", str(head)]) == 0
    # Same artifact against itself: identical rates, gate passes.
    assert main(["bench", "--check", str(head), "--baseline", str(head)]) == 0
    # A 1000x-faster fabricated baseline: gate fails.
    data = json.loads(head.read_text())
    for row in data["results"]:
        row["wall_seconds"] /= 1000.0
    fast = tmp_path / "fast.json"
    fast.write_text(json.dumps(data))
    assert main(["bench", "--check", str(head), "--baseline", str(fast)]) == 1


def test_cli_bench_narrowed_run_skips_farm_tier(tmp_path, capsys):
    """Explicit --workloads/--max-ops must not pay for the fixed-scale farm."""
    out = tmp_path / "narrow.json"
    code = main(["bench", "--workloads", "move_chain", "--schemes", "baseline",
                 "--max-ops", "300", "--repeat", "1", "--no-sweep",
                 "--no-sampled", "--no-long", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "skip the fixed-scale sweep_farm, adaptive and paper tiers" \
        in captured.err
    data = json.loads(out.read_text())
    assert not any(row["kind"] in ("sweep_farm", "adaptive", "paper")
                   for row in data["results"])


def test_cli_bench_profile_prints_hotspots_and_never_saves(tmp_path, capsys):
    out = tmp_path / "profiled.json"
    code = main(["bench", "--workloads", "move_chain", "--schemes", "baseline",
                 *TINY_CLI, "--quiet", "--profile", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "cumulative" in captured.err        # pstats table went to stderr
    assert "not saved" in captured.err
    assert not out.exists(), "profiler-inflated timings must never be saved"


def test_cli_bench_check_requires_baseline(capsys):
    assert main(["bench", "--check", "whatever.json"]) == 2
    assert "--check requires --baseline" in capsys.readouterr().err


def test_cli_bench_rejects_unknown_workload(capsys):
    code = main(["bench", "--workloads", "nope", "--quiet", "--out", ""])
    assert code == 2
    assert "unknown workload" in capsys.readouterr().err
