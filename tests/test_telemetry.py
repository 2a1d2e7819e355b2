"""Telemetry subsystem tests.

Four contracts, in the order the telemetry stack layers them:

* the metrics registry: classification conventions, merge policies,
  schema-versioned roundtrips, and the flat-dict view the artifacts store;
* the pipeline tracer: every event carries the required schema fields, the
  Chrome trace-event export is well-formed JSON, the Kanata export parses,
  and -- the zero-overhead invariant -- a traced run is bit-identical to
  an untraced one for every tracker scheme;
* wall-time hygiene: trace exports and report artifacts are byte-stable
  across runs and never absorb logger/progress wall-clock state;
* the observability surface: RunLogger phases and warnings under an
  injected clock, the progress line's rate/ETA math, the failure footer in
  the sweep report, and the ``repro trace`` CLI end to end.
"""

from __future__ import annotations

import json
import sys
import threading
import xml.dom.minidom

import pytest

from repro.experiments.cli import main
from repro.experiments.grid import Job, SweepSpec, known_schemes, scheme_config
from repro.experiments.report import build_report
from repro.experiments.runner import run_jobs, run_sweep
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.telemetry import (
    MetricsRegistry,
    PipelineTracer,
    ProgressReporter,
    RunLogger,
    TraceConfig,
)
from repro.telemetry.metrics import METRICS_SCHEMA_VERSION, classify_stat
from repro.telemetry.runlog import format_eta
from repro.telemetry.trace import (
    EVENT_REQUIRED_FIELDS,
    STAGES,
    TRACE_SCHEMA_VERSION,
)
from repro.workloads import generate_trace


def traced_run(workload: str = "alias_trap", scheme: str = "isrb",
               max_ops: int = 1_500, start: int = 0, limit: int = 256):
    """(result, tracer) of one traced simulation."""
    config = scheme_config(scheme).with_trace(start=start, limit=limit)
    core = Core(config)
    result = core.run(generate_trace(workload, max_ops=max_ops, seed=1))
    return result, core.tracer


# -- metrics registry -----------------------------------------------------------------


def test_classify_stat_conventions():
    assert classify_stat("committed_instructions") == ("counter", "sum")
    assert classify_stat("rob_peak_occupancy") == ("gauge", "max")
    assert classify_stat("tracker_storage_bits") == ("gauge", "last")
    assert classify_stat("tracker_checkpoint_bits") == ("gauge", "last")
    assert classify_stat("mem_l1d_miss_rate") == ("gauge", "mean")
    assert classify_stat("bypassed_load_fraction") == ("gauge", "mean")
    assert classify_stat("isrb_read_mean_distance") == ("gauge", "mean")


def test_registry_roundtrip_is_deterministic():
    registry = MetricsRegistry()
    registry.inc("ops", 41)
    registry.inc("ops")
    registry.set("peak_occupancy", 17, merge="max")
    registry.set("l1d_miss_rate", 0.25, merge="mean")
    registry.set("l1d_miss_rate", 0.75, merge="mean")
    registry.observe("latency", 3)
    registry.observe("latency", 900)

    exported = registry.to_dict()
    assert exported["schema"] == METRICS_SCHEMA_VERSION
    rebuilt = MetricsRegistry.from_dict(json.loads(json.dumps(exported)))
    assert rebuilt == registry
    assert rebuilt.to_dict() == exported

    stats = registry.as_stats()
    assert stats["ops"] == 42
    assert stats["l1d_miss_rate"] == pytest.approx(0.5)
    assert "latency" not in stats  # histograms have no flat-dict shape
    assert registry.value("latency") == 903  # sum of samples
    assert registry.get("latency").count == 2


def test_registry_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        MetricsRegistry.from_dict({"schema": 999, "metrics": []})


def test_registry_merge_policies():
    first = MetricsRegistry.from_stats({
        "ops": 10, "rob_peak_occupancy": 5, "tracker_storage_bits": 128,
        "l1d_miss_rate": 0.2})
    second = MetricsRegistry.from_stats({
        "ops": 32, "rob_peak_occupancy": 3, "tracker_storage_bits": 256,
        "l1d_miss_rate": 0.4})
    merged = first.merge(second).as_stats()
    assert merged["ops"] == 42                         # sum
    assert merged["rob_peak_occupancy"] == 5           # max
    assert merged["tracker_storage_bits"] == 256       # last
    assert merged["l1d_miss_rate"] == pytest.approx(0.3)  # mean of samples


def test_registry_merge_rejects_kind_mismatch():
    counters = MetricsRegistry()
    counters.inc("x")
    gauges = MetricsRegistry()
    gauges.set("x", 1)
    with pytest.raises(ValueError, match="cannot merge"):
        counters.merge(gauges)


def test_registry_from_stats_skip_matches_window_local_convention():
    stats = {"cycles": 100, "first_commit_cycle": 7}
    registry = MetricsRegistry.from_stats(stats, skip=("first_commit_cycle",))
    assert "first_commit_cycle" not in registry.as_stats()
    assert registry.as_stats()["cycles"] == 100


def test_registry_counts_exactly_under_thread_contention():
    """8 threads x 5,000 ``inc`` calls, racing to declare the same metrics.

    The service's sweep threads and its connection threads share one registry;
    a thread switch inside an unlocked check-then-declare drops a metric
    another thread already counted into, which the tiny switch interval
    makes near certain.
    """
    registry = MetricsRegistry()
    start = threading.Barrier(8)

    def hammer() -> None:
        start.wait(timeout=30.0)
        for index in range(5_000):
            registry.inc("service_requests_total",
                         labels={"route": f"GET /r{index % 500}"})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(registry) == 500
    assert sum(metric.value for metric in registry.metrics()) == 8 * 5_000


def test_core_metrics_view_matches_result_stats():
    config = scheme_config("isrb")
    core = Core(config)
    result = core.run(generate_trace("move_chain", max_ops=800, seed=1))
    assert core.metrics().as_stats() == result.stats


# -- trace schema and exports ---------------------------------------------------------


def test_trace_config_validates_window():
    assert TraceConfig(start=10, limit=5).end == 15
    for bad in ({"start": -1}, {"limit": 0}, {"max_events": 0}):
        with pytest.raises(ValueError):
            TraceConfig(**bad)


def test_traced_events_conform_to_schema():
    _, tracer = traced_run()
    assert tracer.events, "traced window recorded no events"
    for event in tracer.events:
        for field in EVENT_REQUIRED_FIELDS:
            assert field in event, f"event missing {field}: {event}"
        assert event["stage"] in STAGES
        assert tracer.config.start <= event["seq"] < tracer.config.end
        assert event["attempt"] >= 0
        assert event["cycle"] >= 0
    seen_stages = {event["stage"] for event in tracer.events}
    # alias_trap commits, executes and (by construction) squashes.
    assert {"fetch", "rename", "dispatch", "issue", "execute", "writeback",
            "commit", "squash"} <= seen_stages


def test_trace_jsonl_header_and_events_parse():
    _, tracer = traced_run()
    lines = tracer.to_jsonl().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == TRACE_SCHEMA_VERSION
    assert header["workload"] == "alias_trap"
    assert header["events"] == len(lines) - 1
    for line in lines[1:]:
        json.loads(line)


def test_chrome_trace_is_well_formed():
    _, tracer = traced_run()
    document = json.loads(json.dumps(tracer.to_chrome_trace()))
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    phases = {event["ph"] for event in events}
    assert phases <= {"M", "X", "i"}
    assert "X" in phases
    for event in events:
        assert "pid" in event
        if event["ph"] == "X":
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["args"]["scheme"] == "isrb"
    assert document["otherData"]["schema"] == TRACE_SCHEMA_VERSION


def test_kanata_export_parses():
    _, tracer = traced_run()
    lines = tracer.to_kanata().splitlines()
    assert lines[0] == "Kanata\t0004"
    assert lines[1].startswith("C=\t")
    kinds = {line.split("\t")[0] for line in lines[2:]}
    assert {"I", "L", "S", "E", "R", "C"} <= kinds
    # Retire commands carry type 0 (commit) or 1 (squash); alias_trap has both.
    retire_types = {line.split("\t")[3] for line in lines if line.startswith("R\t")}
    assert retire_types == {"0", "1"}


def test_tracer_event_cap_truncates_instead_of_growing():
    config = scheme_config("isrb").with_trace(start=0, limit=256, max_events=10)
    core = Core(config)
    core.run(generate_trace("alias_trap", max_ops=1_000, seed=1))
    assert core.tracer.truncated
    assert len(core.tracer.events) == 10
    assert core.tracer.header()["truncated"] is True


def test_timeline_rows_track_squash_attempts():
    _, tracer = traced_run()
    rows = tracer.timeline()
    assert any(row["squashed"] for row in rows)
    assert any(row["attempt"] > 0 for row in rows), \
        "squashed micro-ops should re-fetch under a new attempt"
    summary = tracer.summary()
    assert summary.value("traced_instructions") == len(rows)
    assert summary.value("traced_squashes") == \
        sum(1 for row in rows if row["squashed"])


# -- the zero-overhead invariant ------------------------------------------------------


@pytest.mark.parametrize("scheme", known_schemes())
def test_traced_run_is_bit_identical(scheme):
    trace = generate_trace("alias_trap", max_ops=1_200, seed=1)
    plain_core = Core(scheme_config(scheme))
    plain = plain_core.run(trace)
    traced_core = Core(scheme_config(scheme).with_trace(limit=128))
    traced = traced_core.run(trace)
    assert traced.cycles == plain.cycles
    assert traced.stats == plain.stats
    assert traced_core.snapshot().digest() == plain_core.snapshot().digest()


def test_untraced_run_never_calls_into_the_tracer():
    """With tracing off, a run never enters ``repro/telemetry/trace.py``.

    The invariant behind the CI gate that times a tracing-off run against
    its base, counted here with ``sys.setprofile`` so it holds on any host.
    """
    import repro.telemetry.trace as tracer_module

    trace = generate_trace("spill_reload", max_ops=2_000, seed=1)
    config = CoreConfig().with_move_elimination().with_smb()

    def calls_into_tracer(config: CoreConfig) -> int:
        core = Core(config)
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename == tracer_module.__file__:
                calls += 1

        sys.setprofile(profile)
        try:
            core.run(trace)
        finally:
            sys.setprofile(None)
        return calls

    assert config.trace is None
    assert calls_into_tracer(config) == 0
    assert calls_into_tracer(config.replace(trace=TraceConfig())) > 0


def test_trace_exports_are_byte_stable_across_runs():
    """No wall times, ids or ordering noise in any gated trace artifact."""
    first_result, first = traced_run()
    second_result, second = traced_run()
    assert first.to_jsonl() == second.to_jsonl()
    assert json.dumps(first.to_chrome_trace(), sort_keys=True) == \
        json.dumps(second.to_chrome_trace(), sort_keys=True)
    assert first.to_kanata() == second.to_kanata()
    assert first_result.stats == second_result.stats


def test_report_artifact_ignores_observability(tmp_path):
    """sweep.json is byte-identical with and without logger/progress wired."""
    spec = SweepSpec(schemes=("isrb",), workloads=("move_chain",), max_ops=500)
    quiet = run_sweep(spec, cache_dir=None)
    logged = run_sweep(spec, cache_dir=None,
                       logger=RunLogger(path=tmp_path / "run.jsonl"),
                       progress=ProgressReporter(stream=open("/dev/null", "w"))
                       .job_progress)
    assert logged.to_json() == quiet.to_json()


# -- run logger and progress ----------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_run_logger_phases_and_warnings(tmp_path):
    clock = FakeClock()
    path = tmp_path / "run.jsonl"
    with RunLogger(path=path, clock=clock, wall_clock=clock) as logger:
        with logger.phase("trace_build", traces=3):
            clock.now += 1.5
        with logger.phase("execute"):
            clock.now += 2.0
        with logger.phase("execute"):
            clock.now += 0.5
        logger.warning("job_failed", job_id="w__v", error="boom")
    assert logger.phase_seconds == {"trace_build": 1.5, "execute": 2.5}
    assert [w["event"] for w in logger.warnings] == ["job_failed"]

    records = [json.loads(line) for line in path.read_text().splitlines()]
    ends = [r for r in records if r["event"] == "phase_end"]
    assert [(r["phase"], r["seconds"]) for r in ends] == \
        [("trace_build", 1.5), ("execute", 2.0), ("execute", 0.5)]
    assert ends[0]["traces"] == 3
    assert records[-1]["level"] == "warning"


def test_format_eta():
    assert format_eta(0) == "0:00"
    assert format_eta(65) == "1:05"
    assert format_eta(3_725) == "1:02:05"


def test_progress_reporter_rate_and_eta(tmp_path):
    stream = open(tmp_path / "progress.txt", "w")
    clock = FakeClock()
    reporter = ProgressReporter(stream=stream, label="cells", clock=clock)
    for completed in (1, 2, 3, 4):
        reporter.update(completed, 10, detail=f"job{completed}")
        clock.now += 2.0
    stream.close()
    lines = (tmp_path / "progress.txt").read_text().splitlines()
    assert lines[0].startswith("[1/10]")
    assert "cells/s" not in lines[0]  # one sample: no measurable rate yet
    # By the fourth update, 4 simulated cells over 6 seconds.
    assert "0.7 cells/s" in lines[3]
    assert "ETA 0:09" in lines[3]


def test_progress_reporter_excludes_stored_cells_from_rate(tmp_path):
    stream = open(tmp_path / "progress.txt", "w")
    clock = FakeClock()
    reporter = ProgressReporter(stream=stream, clock=clock)
    reporter.update(1, 4, simulated=False)
    clock.now += 10.0
    reporter.update(2, 4, simulated=True)
    clock.now += 1.0
    reporter.update(3, 4, simulated=True)
    stream.close()
    last = (tmp_path / "progress.txt").read_text().splitlines()[-1]
    # Rate counts the 2 simulated cells over 11s, not 3 cells.
    assert "0.2 cells/s" in last


# -- failure surfacing ----------------------------------------------------------------


def test_failed_job_becomes_warning_and_footer_line():
    jobs = [Job(job_id="nope__isrb", workload="no_such_workload",
                config=scheme_config("isrb"), max_ops=500, seed=1)]
    logger = RunLogger()
    results = run_jobs(jobs, logger=logger)
    assert not results[0].ok
    assert len(logger.warnings) == 1
    warning = logger.warnings[0]
    assert warning["event"] == "job_failed"
    assert warning["job_id"] == "nope__isrb"
    assert "no_such_workload" in warning["error"]

    report = build_report(results)
    footer = report.to_markdown().splitlines()
    assert any("1 job(s) failed:" in line for line in footer)
    gist = [line for line in footer if "`nope__isrb`" in line]
    assert gist and "no_such_workload" in gist[0]
    assert "Traceback" not in gist[0]  # one-line gist, not the full traceback


# -- the trace CLI --------------------------------------------------------------------


def test_trace_cli_end_to_end(tmp_path, capsys):
    code = main(["trace", "alias_trap", "--max-ops", "1200",
                 "--window", "64", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "traced window: seq [0, 64)" in out

    header = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
    assert header["schema"] == TRACE_SCHEMA_VERSION
    chrome = json.loads((tmp_path / "trace.chrome.json").read_text())
    assert chrome["traceEvents"]
    assert (tmp_path / "trace.kanata").read_text().startswith("Kanata\t0004")
    svg = (tmp_path / "timeline.svg").read_text()
    xml.dom.minidom.parseString(svg)  # well-formed XML
    assert "pipeline timeline" in svg


def test_trace_cli_rejects_unknown_workload(tmp_path, capsys):
    assert main(["trace", "no_such_workload",
                 "--out-dir", str(tmp_path)]) == 2
    assert "no_such_workload" in capsys.readouterr().err
