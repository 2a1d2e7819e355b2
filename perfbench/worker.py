"""One fresh interpreter per batch round, per round's reader, or per probe.

Usage: ``python worker.py TASK.json``.  The task names the checkout's
``src`` directory, a store path and a mode.  The worker imports the
simulator from that ``src`` and prints ``ready <monotonic>``: the end of
set-up.  Then, by mode:

* ``probe`` stops there;
* ``round`` runs one ``run_sweep`` in-process (``workers=1``,
  ``cache_dir=None``) over the task's wire-form grid spec on a store it
  opened (fsync on) before it was ready, as a ``repro paper`` slice does;
* ``read`` reads that store while the round fills it, as any other
  process may open a store path: from the first record until the task's
  ``stop`` file appears, one ``ResultsStore.query`` every ``pace_s``
  seconds, cycling through the task's filters, each on a freshly opened
  store.  In a process of its own, a query neither waits for the
  sweep's interpreter lock nor slows the sweep down.

It writes what it saw to the task's ``out`` file and never judges
correctness: the benchmark compares that with the pinned reference.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import time


def query_rows(rows: list[dict]) -> list[dict]:
    """The checked fields of ``ResultsStore.query`` rows."""
    return [{"workload": row["workload"], "seed": row["seed"],
             "variant": row["variant"],
             "instructions": row["result"]["instructions"],
             "cycles": row["result"]["cycles"]} for row in rows]


def _stored(path: str) -> bool:
    try:
        return os.path.getsize(path) > 0
    except OSError:
        return False


def _read(task: dict) -> dict:
    from repro.paper.store import ResultsStore

    queries = []
    filters = itertools.cycle(task["queries"])
    due = time.perf_counter()
    while not os.path.exists(task["stop"]):
        if _stored(task["store"]):
            workload = next(filters)
            at, begin = time.monotonic(), time.perf_counter()
            reader = ResultsStore(task["store"], fsync=False)
            rows = reader.query(workload=workload, limit=50)
            reader.close()
            queries.append({"workload": workload, "at": at,
                            "ms": (time.perf_counter() - begin) * 1e3,
                            "rows": query_rows(rows)})
        due += task["pace_s"]
        time.sleep(max(due - time.perf_counter(), 0))
    return {"queries": queries}


def _round(task: dict, store) -> dict:
    from repro.experiments import runner
    from repro.experiments.scheduler import ReliabilityStats
    from repro.service.schemas import spec_from_dict

    spec = spec_from_dict(task["spec"])
    cells: list[dict] = []

    def collect(_done, _total, job_result):
        result = job_result.result
        cells.append({"workload": job_result.job.workload,
                      "seed": job_result.job.seed,
                      "variant": job_result.job.variant,
                      "instructions": result.instructions if result else None,
                      "cycles": result.cycles if result else None})

    stats = ReliabilityStats()
    start = time.perf_counter()
    runner.run_sweep(spec, workers=1, cache_dir=None, store=store,
                     progress=collect, stats=stats)
    sweep_s = time.perf_counter() - start
    store.close()
    return {"sweep_s": sweep_s, "cells": cells, "retries": stats.retries}


def main(task_path: str) -> int:
    with open(task_path) as handle:
        task = json.load(handle)
    sys.path.insert(0, task["src"])
    # Set-up: the imports a round needs, then an open store.
    from repro.experiments import runner
    from repro.paper.store import ResultsStore

    store = None if task["mode"] == "read" else ResultsStore(task["store"],
                                                             fsync=True)
    print(f"ready {time.monotonic()!r}", flush=True)
    if task["mode"] == "probe":
        return 0
    tracer = None
    if task["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.wrap_run_sweep(runner)
    if task["mode"] == "read":
        out = _read(task)
    else:
        out = _round(task, store)
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(task["out"], "w") as handle:
        json.dump(out, handle)
    if tracer is not None:
        tracer.dump(task["out"] + ".spans")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
