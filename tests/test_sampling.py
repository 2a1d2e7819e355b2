"""Tests for the two-speed engine: FunctionalCore, snapshots, SampledSimulator.

The load-bearing contracts:

* the fast-forward blocks and the recording blocks retire bit-identical
  architectural state and call the warming hooks alike, and ``record``
  produces micro-ops field-identical to an uninterrupted
  :class:`Executor` run (``golden/trace_digests.json`` pins that run);
* the capture a sampled run chains at each stretch boundary equals the
  full core snapshot with the plan's warm image swapped in, and copies no
  warmed structure;
* the sampled driver retires exactly ``max_ops`` micro-ops, reports the
  sampling statistics, and is fully deterministic;
* the CLI flags reach the sampled path.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.grid import known_schemes, scheme_config
from repro.isa.executor import ExecutionLimitExceeded, Executor
from repro.isa.functional import FunctionalCore
from repro.isa.opcodes import Opcode
from repro.isa.program import ProgramBuilder
from repro.isa.registers import int_reg
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.sampling import SampledSimulator, SamplingConfig, _GapWarmer
from repro.workloads import build_workload, generate_trace

MAX_OPS = 4_000
SAMPLING = SamplingConfig(period=1_000, window=300, warmup=200, cooldown=150)


def _executor_for(image) -> Executor:
    return Executor(image.program, initial_regs=image.initial_regs,
                    initial_memory=image.initial_memory)


# ---------------------------------------------------------------------------
# FunctionalCore
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["move_chain", "deep_recursion", "fp_mixed"])
def test_fast_forward_matches_executor_state(workload):
    image = build_workload(workload, seed=1)
    executor = _executor_for(image)
    executor.run(max_ops=MAX_OPS)
    core = FunctionalCore.from_image(image)
    assert core.fast_forward(MAX_OPS) == MAX_OPS
    assert core.retired == MAX_OPS
    assert core.state_digest() == executor.state_digest()


@pytest.mark.parametrize("workload", ["partial_moves", "stack_args", "fp_stencil"])
def test_record_produces_executor_identical_micro_ops(workload):
    image = build_workload(workload, seed=1)
    reference = _executor_for(image).run(max_ops=MAX_OPS)
    core = FunctionalCore.from_image(image)
    position = 0
    for chunk, mode in ((700, "ff"), (650, "record"), (900, "ff"), (800, "record")):
        if mode == "ff":
            assert core.fast_forward(chunk) == chunk
        else:
            window = core.record(chunk)
            assert len(window) == chunk
            for offset, op in enumerate(window.ops):
                expected = dataclasses.replace(reference.ops[position + offset],
                                               seq=offset)
                assert op == expected
        position += chunk
    # Interleaving recording with fast-forward never perturbs the state.
    assert core.state_digest() == _run_digest(image, position)


def _run_digest(image, max_ops: int) -> str:
    executor = _executor_for(image)
    executor.run(max_ops=max_ops)
    return executor.state_digest()


def test_fast_forward_stops_at_halt():
    builder = ProgramBuilder("finite")
    r = int_reg
    builder.movi(r(0), 3)
    builder.label("loop")
    builder.addi(r(0), r(0), -1)
    builder.bnz(r(0), "loop")
    builder.halt()
    program = builder.build()
    core = FunctionalCore(program)
    retired = core.fast_forward(10_000)
    assert core.halted and retired == 7          # movi + 3 x (addi, bnz)
    assert core.fast_forward(10) == 0            # halted: nothing more
    assert len(core.record(10)) == 0


def test_fast_forward_raises_on_fall_off_end():
    builder = ProgramBuilder("no_halt")
    builder.addi(int_reg(0), int_reg(0), 1)
    builder.halt()
    program = builder.build()
    program.instructions.pop()                   # surgically drop the halt
    for method in ("fast_forward", "record"):
        core = FunctionalCore(program)
        with pytest.raises(ExecutionLimitExceeded):
            getattr(core, method)(10)
        # The one instruction retired before the core fell off the end.
        assert core.retired == 1, method
        assert core.read_reg(int_reg(0)) == 1, method


@pytest.mark.parametrize("chunks", [(10,), (1, 10), (2, 10)])
@pytest.mark.parametrize("warm", [False, True])
def test_fast_forward_keeps_its_position_when_a_return_raises(chunks, warm):
    builder = ProgramBuilder("stray_ret")
    r0 = int_reg(0)
    builder.addi(r0, r0, 1)
    builder.addi(r0, r0, 1)
    builder.ret()
    builder.halt()
    program = builder.build()
    warmer = _GapWarmer(CoreConfig()) if warm else None
    # One block runs both adds before its RET raises; split counts reach
    # the RET through one-instruction blocks instead.
    core = FunctionalCore(program, warmer=warmer)
    with pytest.raises(ExecutionLimitExceeded, match="return without a matching call"):
        for chunk in chunks:
            core.fast_forward(chunk)
    recorded = FunctionalCore(program)
    with pytest.raises(ExecutionLimitExceeded, match="return without a matching call"):
        recorded.record(10)
    for raised in (core, recorded):
        assert raised.read_reg(r0) == 2
        assert raised.retired == 2
        assert raised._index == 2


def _every_opcode_schedules():
    """(name, steps): a step is ``("ff", n)`` or ``("record", n)``."""
    schedules = [("straight", [("ff", 10_000)])]
    schedules += [(f"chunks of {n}", [("ff", n)] * 400) for n in (1, 2, 3, 7)]
    schedules.append(("with record", [("ff", 5), ("record", 3), ("ff", 11),
                                      ("record", 17), ("ff", 2)] * 40))
    return schedules


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warmed"])
@pytest.mark.parametrize("name, steps", _every_opcode_schedules(),
                         ids=[name for name, _ in _every_opcode_schedules()])
def test_fast_forward_runs_every_opcode_like_the_executor(name, steps, warm,
                                                         golden_regenerate):
    program = golden_regenerate.every_opcode_program()
    assert {instruction.opcode for instruction in program} == set(Opcode)
    reference = Executor(program)
    expected = len(reference.run(max_ops=10_000))
    assert expected < 10_000                      # it halted
    core = FunctionalCore(program,
                          warmer=_GapWarmer(CoreConfig()) if warm else None)
    for mode, count in steps:
        if core.halted:
            break
        if mode == "ff":
            core.fast_forward(count)
        else:
            core.record(count)
        # Every stop, mid-block ones included, matches the executor there.
        assert core.state_digest() == _program_digest(program, core.retired), \
            (name, core.retired)
    assert core.halted
    assert core.retired == expected
    assert core.state_digest() == reference.state_digest()


def _program_digest(program, max_ops: int) -> str:
    executor = Executor(program)
    executor.run(max_ops=max_ops)
    return executor.state_digest()


class _LoggingWarmer(_GapWarmer):
    """A gap warmer that logs every hook call, with its arguments, before
    passing it on."""

    def __init__(self, config: CoreConfig) -> None:
        super().__init__(config)
        self.log: list[tuple] = []
        for hook in ("load", "store", "cond", "jump", "call", "ret"):
            setattr(self, hook, self._logged(hook, getattr(self, hook)))

    def _logged(self, hook, train):
        def logged(*args):
            self.log.append((hook, *args))
            train(*args)
        return logged


@pytest.mark.parametrize("workload", ["long_phase_mix", "long_stride_drift",
                                      "deep_recursion", "branchy"])
def test_fast_forward_warms_the_executor_stream(workload):
    """Fast-forward and recording hooks warm exactly what training over
    the executor's trace of the same micro-ops warms."""
    image = build_workload(workload, seed=1)
    warmer = _LoggingWarmer(CoreConfig())
    core = FunctionalCore.from_image(image, warmer=warmer)
    for chunk, window in ((1, 7), (2_345, 300), (3, 1), (7_777, 1_200), (13, 0),
                          (5_000, 64)):
        assert core.fast_forward(chunk) == chunk
        # As the sampled planner does: recording a window warms it too.
        assert len(core.record(window)) == window
    # The reference: the executor's trace of the same micro-ops, fed
    # through the hooks one micro-op at a time.
    reference = _LoggingWarmer(CoreConfig())
    for op in _executor_for(image).run(max_ops=core.retired):
        if op.is_load:
            reference.load(op.pc, op.mem_addr)
        elif op.is_store:
            reference.store(op.pc, op.mem_addr)
        elif op.is_conditional_branch:
            reference.cond(op.pc, op.taken, op.target_pc)
        elif op.opcode is Opcode.JMP:
            reference.jump(op.pc, op.target_pc)
        elif op.opcode is Opcode.CALL:
            reference.call(op.pc, op.target_pc)
        elif op.opcode is Opcode.RET:
            reference.ret(op.pc)
    assert len(warmer.log) > 1_000
    assert warmer.log == reference.log
    assert warmer.capture() == reference.capture()


# ---------------------------------------------------------------------------
# Core micro-architectural snapshots
# ---------------------------------------------------------------------------


def test_core_snapshot_digest_is_deterministic():
    trace = generate_trace("spill_reload", max_ops=1_500, seed=1)
    config = CoreConfig().with_move_elimination().with_smb()
    core = Core(config)
    core.run(trace)
    assert core.snapshot().digest() == core.snapshot().digest()


def test_core_snapshot_rejects_mismatched_machine():
    trace = generate_trace("spill_reload", max_ops=1_000, seed=1)
    config = CoreConfig().with_move_elimination().with_smb()
    core = Core(config)
    core.run(trace)
    snapshot = core.snapshot()
    other = Core(CoreConfig().with_tracker("refcount", entries=None))
    with pytest.raises(ValueError, match="cannot be restored"):
        other.run(trace, resume=snapshot)


#: The benchmark's sampled stretch (window 800, warmup 250, cooldown 150)
#: every 25k ops, on runs short enough for four stretches, so three
#: captures chain.  long_phase_mix is a benchmark trace; fp_moves ends its
#: first stretch with DRAM banks busy and L1D misses outstanding, which the
#: warm image never has.
CAPTURE_SAMPLING = SamplingConfig(period=25_000, window=800, warmup=250,
                                  cooldown=150)
CAPTURE_WORKLOADS = ("long_phase_mix", "fp_moves")
CAPTURE_MACHINES = {scheme: scheme_config(scheme) for scheme in known_schemes()}
CAPTURE_MACHINES["isrb_lazy_reclaim"] = scheme_config("isrb").replace(
    lazy_reclaim=True)


@pytest.fixture(scope="module")
def capture_plans():
    simulator = SampledSimulator(CoreConfig(), CAPTURE_SAMPLING)
    return [simulator.plan(build_workload(name, seed=1), name, 100_000)
            for name in CAPTURE_WORKLOADS]


def _with_warm_image(snapshot, warm):
    """A full snapshot with the functionally warmed structures swapped in.

    The BTB, RAS, history, path and the L1D, L2, prefetcher and DRAM
    open-row images come from ``warm``; the L1I, the outstanding-miss
    deltas and the DRAM bank-busy deltas stay the core's own.
    """
    own = snapshot.memory
    memory = dict(warm.memory, l1i=own["l1i"],
                  outstanding_in=own["outstanding_in"],
                  dram={"open_rows": warm.memory["dram"]["open_rows"],
                        "bank_busy_in": own["dram"]["bank_busy_in"]})
    return dataclasses.replace(snapshot, btb=warm.btb, ras=warm.ras,
                               history=warm.history, path=warm.path,
                               memory=memory)


@pytest.mark.parametrize("machine", sorted(CAPTURE_MACHINES))
def test_chained_capture_equals_full_snapshot_with_warm_image(
        capture_plans, machine, monkeypatch):
    """What each later stretch resumes from, digest for digest.

    At every stretch boundary the capture ``_run_stretches`` takes must
    equal the full ``Core.snapshot()`` with the plan's warm image swapped
    in.  The chained capture runs first, so it must do the lazy-reclaim
    release walk itself.
    """
    full_snapshot = Core.snapshot
    references = []

    def checked(core, warm):
        chained = full_snapshot(core, warm)
        reference = _with_warm_image(full_snapshot(core), warm)
        assert chained.digest() == reference.digest()
        references.append(reference)
        return chained

    monkeypatch.setattr(Core, "snapshot", checked)
    simulator = SampledSimulator(CAPTURE_MACHINES[machine], CAPTURE_SAMPLING)
    for plan in capture_plans:
        simulator.execute_plan(plan)
    assert len(references) == sum(len(plan.stretches) - 1
                                  for plan in capture_plans) == 6
    # The warm image's L1I is empty and its timing deltas are zero: some
    # boundary must differ from it in each, or taking them from the warm
    # image would pass unnoticed.
    assert any(any(ref.memory["l1i"]) for ref in references)
    assert any(ref.memory["outstanding_in"] for ref in references)
    assert any(any(ref.memory["dram"]["bank_busy_in"]) for ref in references)


def test_chained_capture_allocates_few_containers(capture_plans, monkeypatch):
    """The chained capture copies no warmed structure.

    Counted as GC-tracked containers alive after each capture minus
    before, with collection off in between.  Capturing the whole core
    instead allocates thousands (the BTB alone is 2,048 set lists).
    """
    full_snapshot = Core.snapshot
    allocated = []

    def counted(core, *args):
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            snapshot = full_snapshot(core, *args)
            allocated.append(len(gc.get_objects()) - before)
        finally:
            if enabled:
                gc.enable()
        return snapshot

    monkeypatch.setattr(Core, "snapshot", counted)
    SampledSimulator(scheme_config("isrb"), CAPTURE_SAMPLING).execute_plan(
        capture_plans[0])
    assert len(allocated) == 3
    assert max(allocated) < 500, allocated


# ---------------------------------------------------------------------------
# SamplingConfig / SampledSimulator
# ---------------------------------------------------------------------------


def test_sampling_config_validation():
    with pytest.raises(ValueError):
        SamplingConfig(period=100, window=0)
    with pytest.raises(ValueError):
        SamplingConfig(period=100, window=50, warmup=-1)
    with pytest.raises(ValueError):
        SamplingConfig(period=500, window=400, warmup=100, cooldown=100)
    assert SamplingConfig(period=600, window=400, warmup=100,
                          cooldown=100).detailed_fraction == 1.0


def test_sampled_run_retires_exactly_max_ops():
    config = CoreConfig().with_move_elimination().with_smb()
    result = SampledSimulator(config, SAMPLING).run_workload(
        "move_chain", max_ops=MAX_OPS, seed=1)
    assert result.instructions == MAX_OPS
    assert result.cycles > 0
    assert result.stat("sampling_windows") == 4          # one per 1000-op period
    detailed = (result.stat("sampled_instructions")
                + result.stat("warmup_instructions")
                + result.stat("cooldown_instructions"))
    assert detailed + result.stat("fastforwarded_instructions") == MAX_OPS
    assert result.stat("warmup_instructions") == 4 * SAMPLING.warmup
    assert result.stat("cooldown_instructions") == 4 * SAMPLING.cooldown
    assert result.stat("sampling_ipc_ci95_low") <= \
        result.stat("sampling_ipc_mean") <= result.stat("sampling_ipc_ci95_high")


def test_sampled_run_is_deterministic():
    config = CoreConfig().with_move_elimination().with_smb()
    first = SampledSimulator(config, SAMPLING).run_workload(
        "spill_reload", max_ops=MAX_OPS, seed=1)
    second = SampledSimulator(config, SAMPLING).run_workload(
        "spill_reload", max_ops=MAX_OPS, seed=1)
    assert first.to_dict() == second.to_dict()


def test_sampled_rejects_workload_that_halts_too_early():
    builder = ProgramBuilder("tiny")
    builder.addi(int_reg(0), int_reg(0), 1)
    builder.halt()
    from repro.workloads.base import WorkloadImage

    image = WorkloadImage(program=builder.build())
    simulator = SampledSimulator(CoreConfig(), SamplingConfig(
        period=1_000, window=100, warmup=50, cooldown=50))
    with pytest.raises(ValueError, match="halted"):
        simulator.run_image(image, "tiny", max_ops=1_000)


def test_sampled_rejects_budget_smaller_than_warmup():
    """A too-small max_ops is diagnosed as a geometry problem, not a halt."""
    simulator = SampledSimulator(CoreConfig(), SamplingConfig(
        period=10_000, window=2_000, warmup=500))
    with pytest.raises(ValueError, match="no room for a measured window"):
        simulator.run_workload("move_chain", max_ops=400, seed=1)


def test_full_detail_windowing_commits_everything():
    """period == warmup + window + cooldown: every op goes through the core."""
    config = CoreConfig().with_move_elimination().with_smb()
    sampling = SamplingConfig(period=500, window=300, warmup=100, cooldown=100)
    result = SampledSimulator(config, sampling).run_workload(
        "load_load", max_ops=2_000, seed=1)
    assert result.instructions == 2_000
    assert result.stat("fastforwarded_instructions") == 0


# ---------------------------------------------------------------------------
# Sampling statistics (the n=1 / normal-approximation bugfixes)
# ---------------------------------------------------------------------------


def test_single_window_omits_degenerate_ci_keys():
    """n=1 has no sample variance: the std/CI keys must be absent, not 0."""
    result = SampledSimulator(CoreConfig(), SamplingConfig(
        period=1_000, window=300, warmup=200, cooldown=150)).run_workload(
        "move_chain", max_ops=1_000, seed=1)
    assert result.stat("sampling_windows") == 1
    for key in ("sampling_ipc_std", "sampling_ipc_ci95_low",
                "sampling_ipc_ci95_high", "sampling_ipc_rel_ci95"):
        assert key not in result.stats, key
    assert result.stat("sampling_ipc_mean") > 0
    assert result.stat("sampling_stop_reason_code") == 0   # fixed geometry


def test_ci_uses_student_t_not_normal_approximation():
    """At 4 windows the half-width must use t(3)=3.182, not z=1.96."""
    import math

    from repro.common.statistics import t_critical_95

    config = CoreConfig().with_move_elimination().with_smb()
    result = SampledSimulator(config, SAMPLING).run_workload(
        "spill_reload", max_ops=MAX_OPS, seed=1)
    count = int(result.stat("sampling_windows"))
    assert count == 4
    mean = result.stat("sampling_ipc_mean")
    std = result.stat("sampling_ipc_std")
    half = result.stat("sampling_ipc_ci95_high") - mean
    expected = t_critical_95(count - 1) * std / math.sqrt(count)
    assert half == pytest.approx(expected, rel=1e-12)
    assert t_critical_95(count - 1) == pytest.approx(3.182)
    normal_half = 1.96 * std / math.sqrt(count)
    assert half > normal_half                    # the old z-interval was narrower
    assert result.stat("sampling_ipc_rel_ci95") == pytest.approx(half / mean)


def test_window_ipc_mean_weights_by_retired_instructions():
    """A budget-truncated final window must not count as a full vote."""
    from repro.common.statistics import weighted_mean_std
    from repro.pipeline.sampling import window_samples

    config = CoreConfig()
    sampling = SamplingConfig(period=1_000, window=300, warmup=200, cooldown=150)
    simulator = SampledSimulator(config, sampling)
    image = build_workload("branchy", seed=1)
    plan = simulator.plan(image, "branchy", 1_650)
    result = simulator.execute_plan(plan)
    samples = window_samples(plan, config)
    assert len(samples) == 2
    instructions = [ops for ops, _ in samples]
    assert instructions[0] == 300 and instructions[1] < 300   # truncated tail
    ipcs = [ops / cycles for ops, cycles in samples]
    weighted, _ = weighted_mean_std(ipcs, [float(n) for n in instructions])
    assert result.stat("sampling_ipc_mean") == pytest.approx(weighted)
    unweighted = sum(ipcs) / len(ipcs)
    if abs(ipcs[0] - ipcs[1]) > 1e-9:
        assert result.stat("sampling_ipc_mean") != pytest.approx(
            unweighted, abs=1e-12)


def test_rejects_budget_where_every_window_is_truncated():
    """All-truncated geometry is a silent-bias trap: reject it loudly."""
    simulator = SampledSimulator(CoreConfig(), SamplingConfig(
        period=1_000, window=300, warmup=200))
    with pytest.raises(ValueError, match="fits no whole measured window"):
        simulator.run_workload("move_chain", max_ops=450, seed=1)


def test_weighted_mean_std_and_t_table():
    from repro.common.statistics import t_critical_95, weighted_mean_std

    mean, std = weighted_mean_std([2.0], [10.0])
    assert mean == 2.0 and std is None           # n=1: no sample variance
    mean, std = weighted_mean_std([1.0, 3.0], [1.0, 1.0])
    assert mean == 2.0 and std == pytest.approx(2.0 ** 0.5)
    mean, _ = weighted_mean_std([1.0, 3.0], [3.0, 1.0])
    assert mean == 1.5                           # weights pull the mean down
    with pytest.raises(ValueError):
        weighted_mean_std([1.0], [0.0])
    with pytest.raises(ValueError):
        weighted_mean_std([], [])
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(29) == pytest.approx(2.045)
    assert t_critical_95(30) == 1.96             # large-sample normal regime
    with pytest.raises(ValueError):
        t_critical_95(0)


# ---------------------------------------------------------------------------
# Error-budget (adaptive) sampling
# ---------------------------------------------------------------------------

BUDGET = SamplingConfig(period=1_000, window=300, warmup=200, cooldown=150,
                        tolerance=0.05, min_windows=2, max_windows=8)


def test_sampling_config_validates_error_budget_knobs():
    def budget(**kwargs):
        return SamplingConfig(period=1_000, window=300, warmup=200,
                              cooldown=150, **kwargs)
    with pytest.raises(ValueError, match="tolerance"):
        budget(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        budget(tolerance=1.5)
    with pytest.raises(ValueError, match="min_windows"):
        budget(tolerance=0.05, min_windows=1)
    with pytest.raises(ValueError, match="max_windows"):
        budget(tolerance=0.05, min_windows=4, max_windows=3)


def test_sampling_config_fingerprint_is_stable_at_defaults():
    """Pre-error-budget fingerprints (store keys, meta) must not change."""
    fixed = SamplingConfig(period=1_000, window=300, warmup=200, cooldown=150)
    assert fixed.to_dict() == {"period": 1_000, "window": 300,
                               "warmup": 200, "cooldown": 150}
    assert repr(fixed) == ("SamplingConfig(period=1000, window=300, "
                           "warmup=200, cooldown=150, warm_gaps=True)")
    budget = dataclasses.replace(fixed, tolerance=0.05)
    assert budget.to_dict()["tolerance"] == 0.05
    assert "tolerance=0.05" in repr(budget)
    assert repr(budget) != repr(fixed)


def test_adaptive_run_meets_tolerance_or_hits_ceiling():
    config = CoreConfig().with_move_elimination().with_smb()
    result = SampledSimulator(config, BUDGET).run_workload(
        "long_phase_mix", max_ops=50_000, seed=1)
    windows = int(result.stat("sampling_windows"))
    assert BUDGET.min_windows <= windows <= BUDGET.max_windows
    assert result.stat("sampling_tolerance") == BUDGET.tolerance
    assert result.stat("sampling_probe_rounds") >= 1
    assert result.stat("sampling_probe_instructions") > 0
    code = result.stat("sampling_stop_reason_code")
    from repro.telemetry.metrics import sampling_stop_reason

    reason = sampling_stop_reason(code)
    assert reason in ("tolerance", "ceiling", "halted")
    if reason == "tolerance":
        assert result.stat("sampling_ipc_rel_ci95") <= BUDGET.tolerance


def test_adaptive_run_retires_exactly_max_ops():
    result = SampledSimulator(CoreConfig(), BUDGET).run_workload(
        "long_phase_mix", max_ops=50_000, seed=1)
    assert result.instructions == 50_000
    detailed = (result.stat("sampled_instructions")
                + result.stat("warmup_instructions")
                + result.stat("cooldown_instructions"))
    assert detailed + result.stat("fastforwarded_instructions") == 50_000


def test_adaptive_plan_probes_on_scheme_stripped_machine():
    """The stopping decision must not depend on the scheme under test, or
    the farm (planning on base_config) and an independent run (planning on
    the job config) would freeze different plans."""
    base = SampledSimulator(CoreConfig(), BUDGET)
    isrb = SampledSimulator(
        CoreConfig().with_move_elimination().with_smb(), BUDGET)
    image = build_workload("long_phase_mix", seed=1)
    plan_base = base.plan(image, "long_phase_mix", 50_000)
    plan_isrb = isrb.plan(image, "long_phase_mix", 50_000)
    assert plan_base.stretches == plan_isrb.stretches
    assert plan_base.stop_reason == plan_isrb.stop_reason
    assert plan_base.probe_rounds == plan_isrb.probe_rounds
    assert repr(base.probe_config()) == repr(isrb.probe_config())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_sampled(capsys):
    code = cli_main(["run", "move_chain", "--max-ops", "4000",
                     "--sample-period", "1000", "--sample-window", "300",
                     "--warmup", "150"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampled:" in out and "windows" in out


def test_cli_run_error_budget(capsys):
    code = cli_main(["run", "long_phase_mix", "--max-ops", "50000",
                     "--ipc-tolerance", "0.05", "--sample-period", "1000",
                     "--sample-window", "300", "--warmup", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "error budget: +/-5% IPC" in out
    assert "stopped on" in out


def test_cli_run_single_window_reports_ci_na(capsys):
    code = cli_main(["run", "move_chain", "--max-ops", "1000",
                     "--sample-period", "1000", "--sample-window", "300",
                     "--warmup", "200"])
    assert code == 0
    assert "CI n/a (single window)" in capsys.readouterr().out


def test_cli_sweep_error_budget(tmp_path, capsys):
    code = cli_main([
        "sweep", "--schemes", "isrb", "--workloads", "long_phase_mix",
        "--max-ops", "50000", "--ipc-tolerance", "0.05",
        "--sample-window", "300", "--warmup", "200", "--quiet",
        "--cache-dir", "", "--out-dir", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["meta"]["sampling"]["tolerance"] == 0.05
    rows = [row for row in data["results"]
            if row["workload"] == "long_phase_mix"]
    assert rows and all(
        row["stats"]["sampling_windows"] >= 2 for row in rows)


def test_cli_run_sampled_rejects_bad_geometry(capsys):
    code = cli_main(["run", "move_chain", "--sample-period", "100",
                     "--sample-window", "4000"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_sweep_sampled(tmp_path, capsys):
    code = cli_main([
        "sweep", "--schemes", "isrb", "--workloads", "move_chain",
        "--max-ops", "3000", "--sample-period", "1000",
        "--sample-window", "300", "--warmup", "200", "--quiet",
        "--cache-dir", "", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sweep.json").exists()
    assert "move_chain" in capsys.readouterr().out
