"""Regenerate ``reference.json``: the pinned cells every run is checked against.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

For every grid (``detailed_grid``, ``sampled_sparse``, ``service_mix`` and
their tiny test versions) and every pinned trace seed, this runs the
grid's cells with ``run_sweep`` and records each cell's instructions and
cycles.  Run it on the commit whose results the benchmark should pin; a
later commit that changes simulated results fails the check until the
reference is regenerated on purpose.  The grids run on a pool of one
process per CPU; the results do not depend on its size.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import specs  # noqa: E402


def _simulate(task: tuple[str, dict]) -> tuple[str, int, list, dict]:
    grid, spec_dict = task
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.experiments.runner import run_sweep
    from repro.service.schemas import spec_from_dict

    cells: dict[str, list] = {}
    variants: list[str] = []

    def collect(_done, _total, job_result):
        if not job_result.ok:
            raise RuntimeError(f"{job_result.job.job_id} failed: {job_result.error}")
        result = job_result.result
        if job_result.job.variant not in variants:
            variants.append(job_result.job.variant)
        entry = cells.setdefault(job_result.job.workload,
                                 [result.instructions, {}])
        if entry[0] != result.instructions:
            raise RuntimeError(f"{job_result.job.job_id}: instructions differ "
                               "across variants")
        entry[1][job_result.job.variant] = result.cycles

    run_sweep(spec_from_dict(spec_dict), workers=1, progress=collect)
    return grid, spec_dict["seed"], variants, cells


def main() -> int:
    tasks = []
    for scale in ("tiny", "full"):
        for grid in specs.WORKLOADS:
            name = grid if scale == "full" else f"{grid}.tiny"
            tasks += [(name, spec) for spec in specs.reference_specs(grid, scale)]
    grids: dict[str, dict] = {}
    context = multiprocessing.get_context("spawn")
    with context.Pool() as pool:
        for grid, seed, variants, cells in pool.imap_unordered(_simulate, tasks):
            table = grids.setdefault(grid, {"variants": variants, "cells": {}})
            if table["variants"] != variants:
                raise RuntimeError(f"{grid}: variant order differs across seeds")
            table["cells"][str(seed)] = {
                workload: [instructions, [by_variant[v] for v in variants]]
                for workload, (instructions, by_variant) in sorted(cells.items())}
            print(f"{grid} seed {seed}: {len(variants) * len(cells)} cells",
                  file=sys.stderr)
    # One line per (grid, seed): small diffs when a model change moves cycles.
    lines = ['{"format": 1, "grids": {']
    for g_index, grid in enumerate(sorted(grids)):
        table = grids[grid]
        lines.append(f'  {json.dumps(grid)}: {{"variants": '
                     f'{json.dumps(table["variants"])}, "cells": {{')
        seeds = sorted(table["cells"], key=int)
        for s_index, seed in enumerate(seeds):
            comma = "," if s_index < len(seeds) - 1 else ""
            lines.append(f'    {json.dumps(seed)}: '
                         f'{json.dumps(table["cells"][seed], separators=(",", ":"))}'
                         f'{comma}')
        lines.append("  }}" + ("," if g_index < len(grids) - 1 else ""))
    lines.append("}}")
    (HERE / "reference.json").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
