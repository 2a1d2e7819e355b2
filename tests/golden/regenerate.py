"""Regenerate the golden artifacts under ``tests/golden/``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Only regenerate when a workload's program or the sweep table format has
*intentionally* changed; an unexpected diff in these files means functional
semantics drifted.  ``trace_digests.json`` pins every field of every
micro-op of the suite's traces and of :func:`every_opcode_program`'s run.  ``long_references.json`` also pins the timing of two
1M-op full-detail runs, and ``timing_references.json`` the timing and
predictor counts of branch- and SMB-sensitive cells, so both change
whenever the simulated machine does; CI recomputes them and diffs them
against the committed files.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent
#: The checked-in RV32I sample binary, keyed by its repo-relative name so
#: the golden files are stable across checkouts (built via absolute path so
#: regeneration works from any cwd).
RV32I_SAMPLE = "examples/rv32i/checksum.bin"


def regenerate_state_digests(max_ops: int = 2_000, seed: int = 1) -> None:
    from repro.isa.executor import Executor
    from repro.workloads import build_workload, list_workloads

    def digest_of(name: str) -> str:
        image = build_workload(name, seed=seed)
        executor = Executor(image.program, initial_regs=image.initial_regs,
                            initial_memory=image.initial_memory)
        executor.run(max_ops=max_ops)
        return executor.state_digest()

    digests = {workload: digest_of(workload) for workload in list_workloads()}
    digests[f"riscv:{RV32I_SAMPLE}"] = digest_of(
        f"riscv:{GOLDEN_DIR.parents[1] / RV32I_SAMPLE}")
    path = GOLDEN_DIR / "state_digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(digests)} workloads)")


def every_opcode_program():
    """One program that executes every opcode the executor implements.

    A loop runs its body four times, so each block is entered again after
    it was compiled, both conditional branches go both ways, and a branch
    lands in the middle of straight-line code.
    """
    from repro.isa.program import ProgramBuilder
    from repro.isa.registers import fp_reg, int_reg

    r, f = int_reg, fp_reg
    b = ProgramBuilder("every_opcode")
    b.movi(r(0), 0x0123_4567_89AB_CDEF)
    b.movi(r(1), -3)                              # masked to 2**64 - 3
    b.movi(r(2), 0)                               # the zero divisor
    b.movi(r(10), 0x4000)                         # memory base
    b.movi(r(12), 4)                              # loop counter
    b.label("loop")
    b.addi(r(11), r(12), -1)                      # memory index: 3, 2, 1, 0
    b.add(r(3), r(0), r(1))
    b.sub(r(4), r(3), r(12))
    b.and_(r(5), r(4), r(1))
    b.or_(r(5), r(5), r(12))
    b.xor(r(6), r(5), r(0))
    b.shl(r(7), r(6), r(12))
    b.shr(r(7), r(7), r(11))
    b.andi(r(8), r(7), 0xFF0)
    b.shli(r(8), r(8), 3)
    b.shri(r(9), r(8), 2)
    b.cmpeq(r(13), r(11), r(2))
    b.cmplt(r(14), r(9), r(6))
    b.mul(r(3), r(3), r(6))
    b.div(r(4), r(3), r(9))
    b.div(r(4), r(4), r(2))                       # by zero: 0
    b.mov(r(5), r(1), width=64)
    b.mov(r(5), r(0), width=32)
    b.mov(r(6), r(0), width=16)
    b.mov(r(6), r(1), width=8)
    b.movzx8(r(7), r(0))
    b.movzx8(r(8), r(0), src_high8=True)
    b.store(r(3), base=r(10), index=r(11), scale=8, offset=8, size=8)
    b.store(r(1), base=r(10), index=r(11), scale=4, offset=-4, size=4)
    b.load(r(9), base=r(10), index=r(11), scale=8, offset=8, size=8)
    b.load(r(15), base=r(10), index=r(11), scale=4, offset=-4, size=4)
    b.i2f(f(0), r(3))
    b.i2f(f(1), r(12))
    b.i2f(f(7), r(2))
    b.fadd(f(2), f(0), f(1))
    b.fsub(f(3), f(2), f(0))
    b.fmul(f(4), f(2), f(1))
    b.fdiv(f(5), f(4), f(1))
    b.fdiv(f(6), f(4), f(7))                      # by zero
    b.fmov(f(7), f(5))
    b.fstore(f(6), base=r(10), index=r(11), scale=8, offset=64, size=8)
    b.fload(f(8), base=r(10), index=r(11), scale=8, offset=64, size=8)
    b.f2i(r(13), f(8))
    b.call("helper")
    b.andi(r(14), r(12), 1)
    b.bz(r(14), "middle")                         # taken on even counts
    b.nop()
    b.addi(r(0), r(0), 0x1111)
    b.label("middle")
    b.xor(r(0), r(0), r(15))
    b.addi(r(12), r(12), -1)
    b.bnz(r(12), "loop")
    b.jmp("done")
    b.label("helper")
    b.addi(r(1), r(1), 5)
    b.ret()
    b.label("done")
    b.halt()
    return b.build()


def trace_digest(ops) -> str:
    """SHA-256 over every field, in ``dataclasses.fields`` order, of every
    micro-op: enums hash by value and registers by name."""
    from repro.isa.executor import DynamicOp

    names = [field.name for field in dataclasses.fields(DynamicOp)]

    def encode(value):
        return value.value if isinstance(value, enum.Enum) else value.name

    digest = hashlib.sha256()
    for op in ops:
        row = [getattr(op, name) for name in names]
        digest.update(json.dumps(row, default=encode).encode() + b"\n")
    return digest.hexdigest()


def compute_trace_digests(max_ops: int = 2_000, seed: int = 1) -> dict:
    """Recompute every entry of ``trace_digests.json``."""
    from repro.isa.executor import Executor
    from repro.workloads import generate_trace, list_workloads

    def digest_of(name: str) -> str:
        return trace_digest(generate_trace(name, max_ops=max_ops, seed=seed))

    workloads = {workload: digest_of(workload) for workload in list_workloads()}
    workloads[f"riscv:{RV32I_SAMPLE}"] = digest_of(
        f"riscv:{GOLDEN_DIR.parents[1] / RV32I_SAMPLE}")
    # Run to HALT: the program stops long before this budget.
    executor = Executor(every_opcode_program())
    trace = executor.run(max_ops=10_000)
    every_opcode = {"ops": len(trace), "trace": trace_digest(trace),
                    "state": executor.state_digest()}
    return {"max_ops": max_ops, "seed": seed, "workloads": workloads,
            "every_opcode": every_opcode}


def regenerate_trace_digests(max_ops: int = 2_000, seed: int = 1) -> None:
    """Pin the field digests of every suite trace and of the every-opcode
    run, which ``tests/test_differential.py`` recomputes and compares."""
    payload = compute_trace_digests(max_ops, seed)
    path = GOLDEN_DIR / "trace_digests.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(payload['workloads'])} workloads)")


def regenerate_sweep_snapshot() -> None:
    from repro.experiments.grid import SweepSpec
    from repro.experiments.runner import run_sweep

    spec = SweepSpec(
        schemes=("isrb", "refcount_checkpoint"),
        workloads=("spill_reload", "move_chain"),
        max_ops=2_000,
        seed=1,
    )
    report = run_sweep(spec, workers=1, cache_dir=None)
    path = GOLDEN_DIR / "sweep_small.md"
    path.write_text(report.to_markdown() + "\n")
    print(f"wrote {path}")


def isrb_machine():
    """The preset ISRB machine with move elimination and SMB on."""
    from repro.experiments.grid import SCHEME_PRESETS
    from repro.pipeline.config import CoreConfig

    preset = SCHEME_PRESETS["isrb"]
    return (CoreConfig()
            .with_tracker(scheme=preset["scheme"], entries=preset["entries"],
                          counter_bits=preset["counter_bits"])
            .with_move_elimination()
            .with_smb())


def regenerate_long_references(max_ops: int = 1_000_000, seed: int = 1) -> None:
    """Pin the full-detail ``(instructions, cycles)`` that the error-budget
    test of ``tests/test_differential.py`` compares sampled runs against."""
    from repro.pipeline.core import simulate_trace
    from repro.workloads import generate_trace

    # The isrb machine of that test.
    config = isrb_machine()
    references = {}
    for workload in ("long_phase_mix", "long_stride_drift"):
        trace = generate_trace(workload, max_ops=max_ops, seed=seed)
        full = simulate_trace(trace, config)
        references[workload] = {"instructions": full.instructions,
                                "cycles": full.cycles}
    # The machine's hash ties the pinned timings to the config they ran on.
    machine = hashlib.sha256(repr(config).encode()).hexdigest()[:12]
    payload = {"machine": machine, "max_ops": max_ops, "seed": seed,
               "workloads": references}
    path = GOLDEN_DIR / "long_references.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(references)} workloads)")


#: Counters a drifting branch, BTB, RAS or distance predictor would move.
TIMING_FIELDS = ("branch_mispredictions", "btb_misses", "ras_mispredictions",
                 "smb_bypasses_total", "smb_validation_failures",
                 "smb_distance_correct")
#: Full-detail cells of ``timing_references.json``: the loop-, call- and
#: branch-heavy workloads plus the two SMB-heavy ones.
TIMING_WORKLOADS = ("branchy", "call_ret", "fuzz_branch", "list_traverse",
                    "spill_reload")
TIMING_MAX_OPS = 4_000
#: The sampled cell: two windows, so the second resumes its predictors
#: from the first one's snapshot.
TIMING_SAMPLED = {"workload": "long_phase_mix", "max_ops": 50_000,
                  "period": 25_000, "window": 800, "warmup": 250,
                  "cooldown": 150}


def compute_timing_references(seed: int = 1) -> dict:
    """Recompute every cell of ``timing_references.json``."""
    from repro.pipeline.config import CoreConfig
    from repro.pipeline.core import simulate_trace
    from repro.pipeline.sampling import SampledSimulator, SamplingConfig
    from repro.workloads import generate_trace

    def row(result) -> dict:
        fields = {"cycles": result.cycles, "instructions": result.instructions}
        fields.update({key: result.stat(key) for key in TIMING_FIELDS})
        return fields

    machines = {"baseline": CoreConfig(), "isrb_me_smb": isrb_machine()}
    cells = {}
    for workload in TIMING_WORKLOADS:
        trace = generate_trace(workload, max_ops=TIMING_MAX_OPS, seed=seed)
        for name, config in machines.items():
            cells[f"{workload}/{name}"] = row(simulate_trace(trace, config))
    sampled = dict(TIMING_SAMPLED)
    workload, max_ops = sampled.pop("workload"), sampled.pop("max_ops")
    simulator = SampledSimulator(machines["isrb_me_smb"], SamplingConfig(**sampled))
    cells[f"{workload}/isrb_me_smb/sampled"] = row(
        simulator.run_workload(workload, max_ops=max_ops, seed=seed))
    machine_hashes = {name: hashlib.sha256(repr(config).encode()).hexdigest()[:12]
                      for name, config in machines.items()}
    return {"machines": machine_hashes, "max_ops": TIMING_MAX_OPS,
            "sampled": TIMING_SAMPLED, "seed": seed, "cells": cells}


def regenerate_timing_references(seed: int = 1) -> None:
    """Pin the cycles, instructions and predictor counters of short
    branch-, call- and SMB-heavy cells and of one sampled cell, which
    ``tests/test_differential.py`` recomputes and compares exactly."""
    payload = compute_timing_references(seed)
    path = GOLDEN_DIR / "timing_references.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(payload['cells'])} cells)")


if __name__ == "__main__":
    regenerate_state_digests()
    regenerate_trace_digests()
    regenerate_sweep_snapshot()
    regenerate_long_references()
    regenerate_timing_references()
