"""Regenerate the golden artifacts under ``tests/golden/``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Only regenerate when a workload's program or the sweep table format has
*intentionally* changed; an unexpected diff in these files means functional
semantics drifted.  ``long_references.json`` also pins the timing of two
1M-op full-detail runs, and ``timing_references.json`` the timing and
predictor counts of branch- and SMB-sensitive cells, so both change
whenever the simulated machine does; CI recomputes them and diffs them
against the committed files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent


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
    # The checked-in RV32I sample binary, keyed by its repo-relative name so
    # the golden file is stable across checkouts (built via absolute path so
    # regeneration works from any cwd).
    sample = "examples/rv32i/checksum.bin"
    digests[f"riscv:{sample}"] = digest_of(
        f"riscv:{GOLDEN_DIR.parents[1] / sample}")
    path = GOLDEN_DIR / "state_digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(digests)} workloads)")


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
    regenerate_sweep_snapshot()
    regenerate_long_references()
    regenerate_timing_references()
