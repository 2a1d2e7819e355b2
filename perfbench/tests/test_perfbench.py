"""The benchmark's own tests, on the tiny scale of each workload.

Run from the root of the checkout: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402


def _run_cli(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(bench.specs.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["detailed_grid", "sampled_sparse",
                                      "service_mix"])
def test_every_metric_prints_with_unit_and_sample_count(workload, trace):
    proc = _run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} \
        == declared
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())
    table = {line.split()[1]: line.split()[2:] for line in lines[1:-1]}
    expected = set(bench.END_TO_END) | {"failed_ratio", "host.program_cpu_slowdown",
                                        "host.bench_cpu_slowdown"}
    if trace:
        expected |= set(bench.PER_LAYER) | {
            "isa.functional.ff_s", "pipeline.sampling.plan_s",
            "pipeline.sampling.window_s", "pipeline.snapshot.capture_s",
            "experiments.cache.io_s"}
        if workload == "service_mix":
            expected |= {"service.submit_p50_ms", "service.status_p50_ms"}
    for name in expected:
        value, unit, samples = table[name]
        assert unit == bench._unit(name) and samples.startswith("n=")
        float(value)
    assert float(table["failed_ratio"][0]) == 0.0
    # Reported times are wall times scaled by the meter of the CPU that ran them.
    slowdown = float(table["host.program_cpu_slowdown"][0])
    assert float(table["cells_per_s"][0]) == pytest.approx(
        float(table["wall.cells_per_s"][0]) * slowdown, rel=1e-4)
    assert float(table["sweep_p50_s"][0]) == pytest.approx(
        float(table["wall.sweep_p50_s"][0]) / slowdown, rel=1e-4)


def test_a_tampered_reference_cell_fails_the_check():
    reference = copy.deepcopy(bench.load_reference())
    cells = reference["grids"]["detailed_grid.tiny"]["cells"]["1"]
    instructions, cycles = cells["spill_reload"]
    cycles[1] += 1
    outcome = bench.run("detailed_grid", 0, 1, False, ROOT, scale="tiny",
                        reference=reference)
    assert outcome["check"].failed >= 1
    assert any("spill_reload" in note for note in outcome["check"].notes)
    assert json.loads(bench.report("detailed_grid", 0, 1, False, "tiny",
                                   outcome).splitlines()[-1])["correct"] is False


def test_no_server_survives_a_run_that_raised():
    servers = []

    def failing_load(server, plan):
        servers.append(server)
        raise RuntimeError("load failed")

    with pytest.raises(RuntimeError, match="load failed"):
        bench.run("service_mix", 0, 1, False, ROOT, scale="tiny",
                  load=failing_load)
    assert servers and all(server.proc.poll() is not None for server in servers)
    assert not (ROOT / ".perfbench_scratch").exists()


def test_no_child_survives_an_exit_while_it_starts(monkeypatch, tmp_path):
    spawned = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        spawned.append(popen(*args, **kwargs))
        return spawned[-1]

    def terminated(stream, timeout):
        raise SystemExit(143)  # what SIGTERM raises in a run

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    monkeypatch.setattr(bench, "_read_line", terminated)
    (tmp_path / "src").mkdir()
    scratch = bench.Scratch(tmp_path)
    try:
        with pytest.raises(SystemExit):
            bench.Child(scratch, [sys.executable, "-c",
                                  "import time; time.sleep(60)"], "ready ")
    finally:
        scratch.close()
    assert len(spawned) == 1 and spawned[0].poll() is not None


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_cli("detailed_grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / ".perfbench_scratch").exists()
