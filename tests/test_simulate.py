"""End-to-end smoke tests of the trace-driven core model."""

from repro import CoreConfig, simulate, simulate_trace
from repro.workloads import generate_trace


def test_simulate_smoke():
    result = simulate("spill_reload", CoreConfig(), max_ops=2_000)
    assert result.workload == "spill_reload"
    assert result.instructions == 2_000
    assert result.cycles > 0
    assert 0.1 < result.ipc < 8.0


def test_simulation_is_deterministic():
    first = simulate("move_chain", CoreConfig(), max_ops=1_500, seed=7)
    second = simulate("move_chain", CoreConfig(), max_ops=1_500, seed=7)
    assert first.cycles == second.cycles
    assert first.stats == second.stats


def test_sharing_optimisations_do_not_slow_down_the_spill_workload():
    base = simulate("spill_reload", CoreConfig(), max_ops=3_000)
    optimised = simulate(
        "spill_reload",
        CoreConfig().with_move_elimination().with_smb(),
        max_ops=3_000)
    speedup = optimised.speedup_over(base)
    assert speedup >= 1.0
    assert optimised.stat("committed_bypassed_loads") > 0


def test_simulate_trace_matches_simulate():
    trace = generate_trace("move_chain", max_ops=1_000, seed=1)
    via_trace = simulate_trace(trace, CoreConfig())
    via_name = simulate("move_chain", CoreConfig(), max_ops=1_000, seed=1)
    assert via_trace.cycles == via_name.cycles


def test_load_woken_by_its_store_issues_oldest_first():
    """A load parked on a store rejoins the ready list in age order: when
    the store writes back, the parked load takes a load port ahead of the
    younger loads that were already ready."""
    from repro.backend.inflight import InflightOp
    from repro.pipeline.core import Core

    trace = generate_trace("spill_reload", max_ops=400)
    oldest, *younger = [InflightOp(op, 0, 0, 0)
                        for op in [op for op in trace.ops if op.is_load][:3]]
    store = InflightOp(next(op for op in trace.ops if op.is_store), 0, 0, 0)
    core = Core(CoreConfig())
    core._reset(trace)
    for load in (oldest, *younger):
        load.fu_pool = core.fus.load_ports
    core.cycle = 10
    core.execution_wheel[10] = [store]
    core._store_waiters[store.seq] = [oldest]
    core._ready[:] = younger
    core._do_complete()
    core._do_issue()
    # Two load ports: the woken load and the older of the other two issue.
    assert store.completed
    assert [load.issued for load in (oldest, *younger)] == [True, True, False]
