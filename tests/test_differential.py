"""Differential test layer: all tracker schemes, one committed truth.

Register-sharing schemes may only change *when* work happens (cycles),
never *what* the program computes.  The tests here pin that contract from
three directions:

* every scheme commits exactly the trace (same committed micro-op count,
  same commit-side event counts);
* the functional executor's final architectural register/memory state is
  deterministic and matches a committed golden digest, and every field of
  every micro-op it records matches a committed trace digest, so a
  hot-path "optimisation" that changes semantics fails loudly;
* cycle counts are the *only* thing allowed to differ between schemes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.grid import known_schemes, scheme_config
from repro.isa.executor import Executor
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate_trace
from repro.workloads import build_workload, generate_trace, list_workloads

MAX_OPS = 2_000
SEED = 1
GOLDEN_PATH = Path(__file__).parent / "golden" / "state_digests.json"

#: Commit-side counters that must not depend on the tracker scheme: they
#: count architectural events of the committed instruction stream.  (Fetch
#: -side counters such as ``conditional_branches`` are *not* invariant: a
#: commit-stage trap refetches the trap-younger ops, and how many times
#: that happens is scheme-dependent timing.)
COMMIT_INVARIANT_STATS = ("committed_loads",)


def _scheme_configs() -> dict[str, CoreConfig]:
    """Baseline plus every tracker scheme at its preset sizing (ME + SMB on),
    plus ISRB with lazy reclaim and bypassing from committed instructions."""
    configs = {name: scheme_config(name)
               for name in ("baseline", *known_schemes())}
    configs["isrb_lazy"] = scheme_config("isrb").with_smb(bypass_from_committed=True)
    return configs


def _final_digest(workload: str) -> str:
    """Functionally execute a workload and digest the final machine state."""
    image = build_workload(workload, seed=SEED)
    executor = Executor(image.program, initial_regs=image.initial_regs,
                        initial_memory=image.initial_memory)
    executor.run(max_ops=MAX_OPS)
    return executor.state_digest()


@pytest.fixture(scope="module")
def golden_digests() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


#: Digests of every machine's full detailed result on every suite workload,
#: written by ``regenerate_scheme_digests``.
SCHEME_DIGESTS_PATH = Path(__file__).parent / "golden" / "scheme_digests.json"


@pytest.fixture(scope="module")
def scheme_digests() -> dict:
    pinned = json.loads(SCHEME_DIGESTS_PATH.read_text())
    assert (pinned["max_ops"], pinned["seed"]) == (MAX_OPS, SEED)
    machines = {name: hashlib.sha256(repr(config).encode()).hexdigest()[:12]
                for name, config in _scheme_configs().items()}
    assert pinned["machines"] == machines, (
        "scheme_digests.json was pinned on other machines")
    return pinned["digests"]


@pytest.mark.parametrize("workload", list_workloads())
def test_all_schemes_commit_identical_state(workload, scheme_digests,
                                            golden_regenerate):
    """Every scheme commits the full trace with identical commit-side counts,
    and every scheme's cycles and statistics equal the pinned digest."""
    trace = generate_trace(workload, max_ops=MAX_OPS, seed=SEED)
    results = {name: simulate_trace(trace, config)
               for name, config in _scheme_configs().items()}
    digests = {name: golden_regenerate.result_digest(result)
               for name, result in results.items()}
    assert digests == scheme_digests[workload], (
        f"{workload}: a detailed result moved from scheme_digests.json")

    reference = results["baseline"]
    assert reference.instructions == len(trace)
    for name, result in results.items():
        assert result.instructions == reference.instructions, (
            f"{workload}: scheme {name} committed {result.instructions} micro-ops, "
            f"baseline committed {reference.instructions}")
        for stat in COMMIT_INVARIANT_STATS:
            assert result.stat(stat) == reference.stat(stat), (
                f"{workload}: scheme {name} disagrees with baseline on {stat}")
        # Sanity: the simulation made progress and terminated by committing
        # everything, not by tripping the deadlock guard.
        assert result.cycles > 0


#: Simulator-strategy statistics that legitimately differ between the
#: event-driven and the per-cycle walk; everything else must be identical.
_SKIP_STATS = frozenset({"skipped_cycles", "events_per_cycle"})


@pytest.mark.parametrize("workload", list_workloads())
def test_cycle_skipping_is_bit_identical(workload):
    """Event-driven cycle skipping on vs off: same cycles, counters, state.

    Covers every workload x every scheme (plus the no-sharing baseline).
    The comparison is total: cycle count, every statistic except the skip
    bookkeeping itself, and the SHA-256 digest of the full
    micro-architectural snapshot after the run -- so skipping can never
    silently jump over a cycle in which any stage could have acted.
    """
    from repro.pipeline.core import Core

    trace = generate_trace(workload, max_ops=MAX_OPS, seed=SEED)
    for name, config in _scheme_configs().items():
        skipping = Core(config.replace(cycle_skipping=True))
        walking = Core(config.replace(cycle_skipping=False))
        fast = skipping.run(trace)
        slow = walking.run(trace)
        assert fast.cycles == slow.cycles, (
            f"{workload}/{name}: event-driven loop changed the cycle count")
        assert fast.instructions == slow.instructions
        fast_stats = {k: v for k, v in fast.stats.items() if k not in _SKIP_STATS}
        slow_stats = {k: v for k, v in slow.stats.items() if k not in _SKIP_STATS}
        assert fast_stats == slow_stats, (
            f"{workload}/{name}: counters diverge between skip modes")
        assert skipping.snapshot().digest() == walking.snapshot().digest(), (
            f"{workload}/{name}: micro-architectural state diverges")


@pytest.mark.parametrize("workload", list_workloads())
def test_functional_state_is_deterministic(workload):
    """Two functional executions produce bit-identical architectural state."""
    assert _final_digest(workload) == _final_digest(workload)


@pytest.mark.parametrize("workload", list_workloads())
def test_functional_state_matches_golden(workload, golden_digests):
    """The final architectural state matches the committed golden digest.

    Regenerate with ``python tests/golden/regenerate.py`` -- but only when
    a workload's *program* intentionally changed.  An unintentional digest
    change means an optimisation altered functional semantics.
    """
    assert workload in golden_digests, (
        f"no golden digest for {workload}; run tests/golden/regenerate.py")
    assert _final_digest(workload) == golden_digests[workload]


#: Field digests of every suite trace and of the every-opcode run, written
#: by ``regenerate_trace_digests``.
TRACE_DIGESTS_PATH = Path(__file__).parent / "golden" / "trace_digests.json"


def test_traces_match_golden_field_digests(golden_regenerate):
    """Every field of every micro-op the executor records is pinned.

    Sharing validation, SMB and the branch predictors all read these
    fields (``result``, ``mem_addr``, ``store_value``, ``taken``,
    ``next_pc`` ...), so a semantic change to the ISA engine fails here
    even where the final architectural state would not move.  The
    every-opcode program's run to ``HALT`` and its final state are pinned
    too."""
    pinned = json.loads(TRACE_DIGESTS_PATH.read_text())
    fresh = golden_regenerate.compute_trace_digests(pinned["max_ops"], pinned["seed"])
    assert sorted(fresh["workloads"]) == sorted(pinned["workloads"])
    for workload, digest in pinned["workloads"].items():
        assert fresh["workloads"][workload] == digest, workload
    assert fresh["every_opcode"] == pinned["every_opcode"]


@pytest.mark.parametrize("workload", list_workloads())
def test_functional_core_matches_golden(workload, golden_digests):
    """The compiled fast-forward core retires the exact Executor semantics.

    ``FunctionalCore.fast_forward`` runs the non-recording blocks of the
    executor's block generator; its final architectural state must match
    the committed golden digest bit for bit, also when the run is split
    into two calls.
    """
    from repro.isa.functional import FunctionalCore

    image = build_workload(workload, seed=SEED)
    straight = FunctionalCore.from_image(image)
    straight.fast_forward(MAX_OPS)
    assert straight.state_digest() == golden_digests[workload]

    split = FunctionalCore.from_image(image)
    split.fast_forward(MAX_OPS // 3)
    split.fast_forward(MAX_OPS - MAX_OPS // 3)
    assert split.state_digest() == golden_digests[workload]


# ---------------------------------------------------------------------------
# Sampled vs. full-detail differential
# ---------------------------------------------------------------------------

#: Documented small-scale tolerance for the sampled-vs-full IPC ratio.  At
#: unit-test scale (4000 micro-ops, 4 windows) the central-limit averaging
#: that sampled simulation relies on barely gets started, so individual
#: (workload, scheme) cells may be off by up to ~15% on phase-heavy
#: workloads; the committed BENCH_core.json pins the production-scale
#: figure (geomean within a few percent at 20k+ ops, 20+ windows).
SAMPLED_TOLERANCE = 0.20

_SAMPLING_KWARGS = dict(period=1_021, window=400, warmup=300, cooldown=200)

#: Representative configurations for the per-workload axis: the no-sharing
#: baseline plus the paper's headline scheme.  The full cross product is
#: intentionally split into two exhaustive axes (every workload here, every
#: scheme below) because all non-ISRB schemes are functionally ISRB/refcount
#: variants differing only in cost model -- the cross adds runtime, not
#: coverage.
_SAMPLED_AXIS_SCHEMES = ("baseline", "isrb")
#: Sharing-heavy workloads for the per-scheme axis.
_SAMPLED_AXIS_WORKLOADS = ("spill_reload", "fp_moves")


def _sampled_ratio(workload: str, config) -> float:
    from repro.pipeline.sampling import SampledSimulator, SamplingConfig

    trace = generate_trace(workload, max_ops=4_000, seed=SEED)
    full = simulate_trace(trace, config)
    sampled = SampledSimulator(config, SamplingConfig(**_SAMPLING_KWARGS)) \
        .run_workload(workload, max_ops=4_000, seed=SEED)
    assert sampled.instructions == full.instructions
    return sampled.ipc / full.ipc


@pytest.mark.parametrize("workload", list_workloads())
def test_sampled_ipc_tracks_full_run_per_workload(workload):
    """Sampled IPC within the documented tolerance, every workload."""
    configs = _scheme_configs()
    for scheme in _SAMPLED_AXIS_SCHEMES:
        ratio = _sampled_ratio(workload, configs[scheme])
        assert abs(ratio - 1.0) <= SAMPLED_TOLERANCE, (
            f"{workload} under {scheme}: sampled/full IPC ratio {ratio:.3f} "
            f"outside the documented +/-{SAMPLED_TOLERANCE:.0%} small-scale "
            "tolerance")


#: Long-horizon workloads for the error-budget acceptance: a drifting
#: stride pattern the stopping rule quits early on, and a phase-heavy mix
#: that drives it to its window ceiling.
_ERROR_BUDGET_WORKLOADS = ("long_phase_mix", "long_stride_drift")
#: Their full-detail ``(instructions, cycles)`` under the isrb machine.
LONG_REFERENCES_PATH = Path(__file__).parent / "golden" / "long_references.json"


def test_error_budget_holds_two_percent_on_long_workloads():
    """Error-budget sampling at +/-2% stays within 2% of the full-detail
    IPC on >=1M-op workloads, and spends fewer detailed micro-ops
    (geomean) than the fixed default geometry.

    The full-detail runs are pinned in ``golden/long_references.json``
    (``regenerate_long_references`` in ``golden/regenerate.py``); CI
    re-simulates them and diffs the file, so a timing change still fails
    until the references are regenerated on purpose."""
    import hashlib
    import math

    from repro.pipeline.sampling import SampledSimulator, SamplingConfig

    config = _scheme_configs()["isrb"]
    references = json.loads(LONG_REFERENCES_PATH.read_text())
    assert references["machine"] \
        == hashlib.sha256(repr(config).encode()).hexdigest()[:12], (
        "long_references.json was pinned on another machine; regenerate it")
    assert (references["max_ops"], references["seed"]) == (1_000_000, SEED)
    fixed_geometry = SamplingConfig()
    budget = SamplingConfig(tolerance=0.02)

    def detailed_ops(result) -> int:
        return int(result.stat("sampled_instructions")
                   + result.stat("warmup_instructions")
                   + result.stat("cooldown_instructions"))

    adaptive_detail, fixed_detail = [], []
    for workload in _ERROR_BUDGET_WORKLOADS:
        full = references["workloads"][workload]
        fixed = SampledSimulator(config, fixed_geometry).run_workload(
            workload, max_ops=1_000_000, seed=SEED)
        adaptive = SampledSimulator(config, budget).run_workload(
            workload, max_ops=1_000_000, seed=SEED)
        assert adaptive.instructions == full["instructions"]
        ratio = adaptive.ipc / (full["instructions"] / full["cycles"])
        assert abs(ratio - 1.0) <= 0.02, (
            f"{workload}: error-budget IPC ratio {ratio:.4f} outside +/-2%")
        adaptive_detail.append(detailed_ops(adaptive))
        fixed_detail.append(detailed_ops(fixed))

    geomean_adaptive = math.prod(adaptive_detail) ** (1 / len(adaptive_detail))
    geomean_fixed = math.prod(fixed_detail) ** (1 / len(fixed_detail))
    assert geomean_adaptive < geomean_fixed, (
        f"error budget spent {geomean_adaptive:.0f} detailed micro-ops "
        f"(geomean) vs {geomean_fixed:.0f} for the fixed geometry")


#: Cycles and predictor counters of short branch-, call- and SMB-heavy
#: cells and of one sampled cell, written by ``regenerate_timing_references``.
TIMING_REFERENCES_PATH = Path(__file__).parent / "golden" / "timing_references.json"


def test_predictor_sensitive_timing_matches_pinned_references(golden_regenerate):
    """A drifting branch, BTB, RAS or distance predictor, or a predictor
    snapshot that loses state between sampled windows, moves these cells.

    Every cell of ``golden/timing_references.json`` is recomputed and
    compared exactly; CI also regenerates the file and diffs it."""
    pinned = json.loads(TIMING_REFERENCES_PATH.read_text())
    fresh = json.loads(json.dumps(
        golden_regenerate.compute_timing_references(seed=pinned["seed"])))
    assert fresh["machines"] == pinned["machines"], (
        "timing_references.json was pinned on another machine; regenerate it")
    assert sorted(fresh["cells"]) == sorted(pinned["cells"])
    for cell, expected in pinned["cells"].items():
        assert fresh["cells"][cell] == expected, cell
    assert fresh == pinned


@pytest.mark.parametrize("scheme", sorted(_scheme_configs()))
def test_sampled_ipc_tracks_full_run_per_scheme(scheme):
    """Sampled IPC within the documented tolerance, every tracker scheme."""
    config = _scheme_configs()[scheme]
    for workload in _SAMPLED_AXIS_WORKLOADS:
        ratio = _sampled_ratio(workload, config)
        assert abs(ratio - 1.0) <= SAMPLED_TOLERANCE, (
            f"{workload} under {scheme}: sampled/full IPC ratio {ratio:.3f} "
            f"outside the documented +/-{SAMPLED_TOLERANCE:.0%} small-scale "
            "tolerance")


# ---------------------------------------------------------------------------
# RISC-V frontend differential
# ---------------------------------------------------------------------------

_RISCV_SAMPLE_REL = "examples/rv32i/checksum.bin"
_RISCV_SAMPLE = Path(__file__).resolve().parents[1] / _RISCV_SAMPLE_REL
_RISCV_WORKLOAD = f"riscv:{_RISCV_SAMPLE}"


def test_riscv_functional_state_matches_golden(golden_digests):
    """The lowered sample binary's final state matches the committed digest.

    This pins the whole decode -> lower -> execute chain: an encoding
    change in ``checksum.bin``, a lowering change, or an executor semantics
    change all move this digest.
    """
    golden = golden_digests[f"riscv:{_RISCV_SAMPLE_REL}"]
    assert _final_digest(_RISCV_WORKLOAD) == golden


def test_riscv_functional_core_matches_executor():
    """Fast-forward (FunctionalCore) and Executor agree on lowered RV32I."""
    from repro.isa.functional import FunctionalCore

    image = build_workload(_RISCV_WORKLOAD, seed=SEED)
    executor = Executor(image.program, initial_regs=image.initial_regs,
                        initial_memory=image.initial_memory)
    executor.run(max_ops=MAX_OPS)

    fast = FunctionalCore.from_image(image)
    fast.fast_forward(MAX_OPS)
    assert fast.state_digest() == executor.state_digest()


def test_riscv_all_schemes_commit_identical_state():
    """Every tracker scheme commits the sample binary's trace identically,
    and the paper's headline scheme actually eliminates the sample's move
    chain (the frontend feeds real sharing opportunities, not just NOPs)."""
    trace = generate_trace(_RISCV_WORKLOAD, max_ops=MAX_OPS, seed=SEED)
    results = {name: simulate_trace(trace, config)
               for name, config in _scheme_configs().items()}
    reference = results["baseline"]
    assert reference.instructions == len(trace) == MAX_OPS
    for name, result in results.items():
        assert result.instructions == reference.instructions, (
            f"scheme {name} did not commit the full RV32I trace")
        for stat in COMMIT_INVARIANT_STATS:
            assert result.stat(stat) == reference.stat(stat), (
                f"scheme {name} disagrees with baseline on {stat}")
    assert results["isrb"].stat("committed_eliminated_moves") > 0


def test_riscv_cycle_skipping_is_bit_identical():
    """Event-driven cycle skipping is exact on lowered RV32I code too."""
    from repro.pipeline.core import Core

    trace = generate_trace(_RISCV_WORKLOAD, max_ops=MAX_OPS, seed=SEED)
    for name, config in _scheme_configs().items():
        skipping = Core(config.replace(cycle_skipping=True))
        walking = Core(config.replace(cycle_skipping=False))
        fast = skipping.run(trace)
        slow = walking.run(trace)
        assert fast.cycles == slow.cycles, f"{name}: cycle count diverged"
        assert skipping.snapshot().digest() == walking.snapshot().digest(), (
            f"{name}: micro-architectural state diverges on RV32I code")


def test_riscv_sampled_ipc_tracks_full_run():
    """Two-speed sampling holds its tolerance on the decoded sample binary."""
    configs = _scheme_configs()
    for scheme in _SAMPLED_AXIS_SCHEMES:
        ratio = _sampled_ratio(_RISCV_WORKLOAD, configs[scheme])
        assert abs(ratio - 1.0) <= SAMPLED_TOLERANCE, (
            f"riscv sample under {scheme}: sampled/full IPC ratio "
            f"{ratio:.3f} outside +/-{SAMPLED_TOLERANCE:.0%}")


def test_riscv_imported_trace_replays_identically(tmp_path):
    """riscv trace -> export -> trace: workload replays bit-identically."""
    from repro.isa.trace_io import export_trace
    from repro.pipeline.core import Core

    trace = generate_trace(_RISCV_WORKLOAD, max_ops=MAX_OPS, seed=SEED)
    path = tmp_path / "checksum.jsonl.gz"
    export_trace(trace, path)
    replay = generate_trace(f"trace:{path}", max_ops=MAX_OPS, seed=SEED)

    config = _scheme_configs()["isrb"]
    outcomes = []
    for candidate in (trace, replay):
        core = Core(config)
        result = core.run(candidate)
        outcomes.append((result.cycles, result.instructions, result.stats,
                         core.snapshot().digest()))
    assert outcomes[0] == outcomes[1]


def test_schemes_differ_only_in_cycles():
    """A sharing-heavy workload: schemes disagree on cycles, nothing else."""
    trace = generate_trace("spill_reload", max_ops=MAX_OPS, seed=SEED)
    results = {name: simulate_trace(trace, config)
               for name, config in _scheme_configs().items()}
    cycle_counts = {result.cycles for result in results.values()}
    assert len(cycle_counts) > 1, (
        "expected at least one scheme to change timing on spill_reload")
    committed = {result.instructions for result in results.values()}
    assert committed == {len(trace)}
