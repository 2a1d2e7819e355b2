"""The repo benchmark: three workloads, measured end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detailed_grid --seed 0 --seconds 25 --trace 0

It drives the simulator only through public entry points: ``run_sweep``
over a whole grid on a fresh ``ResultsStore`` (``detailed_grid``,
``sampled_sparse``, one fresh worker interpreter per round, read back by a
reader process) and the ``repro serve`` HTTP API (``service_mix``).  A
byte-compiled copy of the checkout's own ``src`` is put on the path of
every child.  A run reads and writes only inside its checkout: that copy,
scratch stores and trace caches go to ``.perfbench_scratch/``, removed
when the run ends.

The program runs on one CPU and the benchmark on another, each with a
``meter.py`` beside it; end-to-end times are wall times scaled to the
meters' reference speed, so that the shared host's drift does not read
as a change of the program (see ``README.md``).

Every simulated cell, and every row a query returns, is compared with the
cycles and instructions pinned in ``reference.json``.  The output is a
table of every metric with its unit and sample count, then one JSON line:
end-to-end metrics with ``--trace 0``; with ``--trace 1`` an untraced and
a traced pass, and the per-layer metrics of the traced one.  A broken
checkout or a crashed child exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import compileall
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Bytecode of this process's imports is not written into the checkout.
sys.dont_write_bytecode = True
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import service_load  # noqa: E402
import spans  # noqa: E402
import specs  # noqa: E402

#: Set-up samples per run: probes top up the measured processes' own.
SETUP_SAMPLES = 9
#: Seconds a child may take before the run is abandoned as hung.
CHILD_TIMEOUT = 120.0
#: Median time of ``meter.kernel`` on the host that defined the benchmark
#: (2-vCPU Xeon, CPython 3.11).  Reported times are host times scaled to
#: that speed; see ``Meter``.
KERNEL_S = 0.0025
#: A query is scaled by the meter's kernel runs this close to it (seconds).
NEAR_S = 1.0
#: The program (batch workers, the server) runs on the last CPU of this
#: process; the benchmark, its load and the batch readers on the first.  A
#: shared host slows its CPUs down unevenly, and a meter only tracks the
#: CPU it runs on, so each CPU gets one.  On a single-CPU host they are
#: the same CPU.
PROGRAM_CPU, BENCH_CPU = max(os.sched_getaffinity(0)), min(os.sched_getaffinity(0))

END_TO_END = {"setup_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB",
              "sweep_p50_s": "s", "query_p50_ms": "ms", "query_p90_ms": "ms"}
#: Per-layer metrics of the JSON line: measured on every workload.  Layers
#: only some workloads exercise appear as shares of the workload's wall.
PER_LAYER = {
    "workloads.trace_s": "s", "pipeline.core.sim_s": "s",
    "pipeline.core.us_per_stepped_cycle": "us",
    "experiments.runner.overhead_s": "s",
    "paper.store.claim_ms": "ms", "paper.store.release_ms": "ms",
    "paper.store.record_ms": "ms", "paper.store.query_ms": "ms",
    "paper.store.sweep_share": "fraction",
    "experiments.cache.io_share": "fraction",
    "isa.functional.ff_share": "fraction",
    "pipeline.sampling.plan_share": "fraction",
    "pipeline.sampling.window_share": "fraction",
    "pipeline.snapshot.capture_share": "fraction",
    "tracing_overhead": "fraction",
    "pipeline.core.cycles": "cycles", "pipeline.core.skipped_cycles": "cycles",
    "pipeline.core.rename_stall_cycles": "cycles",
    "pipeline.core.fetch_stall_cycles": "cycles",
    "core.tracker.share_requests": "count", "core.tracker.shares_granted": "count",
    "core.tracker.shares_rejected_full": "count",
    "core.move_elim.moves_eliminated": "count", "core.smb.bypasses_total": "count",
    "memdep.memory_order_violations": "count", "memory.l1d_misses": "count",
    "bpred.branch_mispredictions": "count", "pipeline.sampling.windows": "count",
    "pipeline.sampling.detailed_ops": "ops",
    "paper.store.claims": "count", "paper.store.lease_kb": "KB",
    "paper.store.duplicate_records": "count", "service.cells_from_store": "count",
    "experiments.scheduler.retries": "count", "service.dedup_ratio": "fraction",
}
_SHARES = {"experiments.cache.io_share": "experiments.cache.io_s",
           "isa.functional.ff_share": "isa.functional.ff_s",
           "pipeline.sampling.plan_share": "pipeline.sampling.plan_s",
           "pipeline.sampling.window_share": "pipeline.sampling.window_s",
           "pipeline.snapshot.capture_share": "pipeline.snapshot.capture_s"}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong simulation result)."""


# -- reference ------------------------------------------------------------------------


def load_reference(path: Path = HERE / "reference.json") -> dict:
    with open(path) as handle:
        return json.load(handle)


def reference_cells(reference: dict, grid: str) -> dict[tuple, tuple[int, int]]:
    """``(workload, trace seed, variant) -> (instructions, cycles)`` pinned."""
    table = reference["grids"][grid]
    cells = {}
    for seed, by_workload in table["cells"].items():
        for workload, (instructions, cycles) in by_workload.items():
            for variant, value in zip(table["variants"], cycles):
                cells[(workload, int(seed), variant)] = (instructions, value)
    return cells


def cell_key(row: dict) -> tuple[str, int, str]:
    return row["workload"], row["seed"], row["variant"]


class Check:
    """Attempted/failed tally of one run, with the first few failures."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)

    def cell(self, key: tuple, instructions, cycles) -> None:
        want = self.expected.get(key)
        self.expect(want == (instructions, cycles),
                    f"{'/'.join(map(str, key))}: got {(instructions, cycles)}, "
                    f"pinned {want}")

    def query(self, query: dict, during_sweep: bool = False) -> None:
        """A query must succeed with rows, each matching its pinned cell.

        A query sent ``during_sweep`` may find no cell of its workload yet;
        any other filters on a workload whose cells are already stored.
        """
        self.expect(query.get("status", 200) == 200
                    and (during_sweep or bool(query["rows"])),
                    f"query {query['workload']}: status {query.get('status')}, "
                    f"{len(query['rows'])} rows")
        for row in query["rows"]:
            self.cell(cell_key(row), row["instructions"], row["cycles"])

    def stored(self, rows: list[dict], verify: dict, submitted: set[tuple]) -> None:
        """The store holds every submitted cell, each as pinned, and is clean."""
        self.expect(not verify["torn_tail"] and verify["corrupt_lines"] == 0
                    and verify["leases_live"] == 0
                    and verify["unique_keys"] == len(submitted),
                    f"store verify {verify} (expected {len(submitted)} unique keys)")
        for row in rows:
            self.cell(cell_key(row), row["result"]["instructions"],
                      row["result"]["cycles"])
        stored = {cell_key(row) for row in rows}
        for missing in sorted(submitted - stored):
            self.expect(False, f"{missing}: submitted cell missing from the store")


# -- child processes ------------------------------------------------------------------


class Scratch:
    """Scratch directory inside the checkout and the environment of children.

    Children import a byte-compiled copy of the checkout's ``src`` made
    here, so each imports from bytecode, as from an installed package, and
    no child's set-up or sweep includes compiling it.  Their trace caches
    (``TMPDIR``) land here too, so a finished run leaves nothing in the
    checkout.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.parent = root / ".perfbench_scratch"
        self.parent.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=self.parent))
        self.src = self.path / "src"
        try:
            shutil.copytree(root / "src", self.src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            compileall.compile_dir(self.src, quiet=2)
        except BaseException:
            self.close()
            raise
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(self.path)
        self._names = 0

    def name(self, stem: str) -> str:
        self._names += 1
        return str(self.path / f"{stem}{self._names}")

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there


@contextmanager
def _on_cpu(cpu: int):
    """Run the calling thread, and the threads and children it starts, on ``cpu``."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def _spawn(command: list[str], cpu: int, **kwargs) -> subprocess.Popen:
    """``Popen`` with the child on ``cpu`` from its start."""
    with _on_cpu(cpu):
        return subprocess.Popen(command, **kwargs)


def _read_line(stream, timeout: float) -> str:
    """First line of ``stream``, or '' when it closes or ``timeout`` passes."""
    box = [""]
    reader = threading.Thread(target=lambda: box.__setitem__(0, stream.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    return box[0]


class Child:
    """A child process whose first stdout line ends its set-up.

    Used as a context manager: leaving the block stops the child.  A child
    that raises (or is interrupted) before the block is entered is stopped
    by the constructor, so no child outlives a run that raised.
    """

    def __init__(self, scratch: Scratch, command: list[str], ready: str,
                 cpu: int = PROGRAM_CPU) -> None:
        self.errors = scratch.name("stderr")
        self._err = open(self.errors, "w")
        self.spawned = time.monotonic()
        self.proc = _spawn(command, cpu, stdout=subprocess.PIPE, stderr=self._err,
                           text=True, env=scratch.env, cwd=scratch.path)
        try:
            line = _read_line(self.proc.stdout, CHILD_TIMEOUT)
            if not line.startswith(ready):
                raise BenchError(f"{command[1]} did not start:\n{self.stderr()}")
            self.setup_s = self.started(line)
        except BaseException:
            self.close()
            raise

    def started(self, line: str) -> float:
        """Finish set-up after the ready ``line``; returns the set-up seconds."""
        raise NotImplementedError

    def stderr(self) -> str:
        with open(self.errors, errors="replace") as handle:
            return handle.read()[-2000:]

    def close(self, interrupt: bool = False) -> None:
        """Stop the child (SIGINT first when ``interrupt``) and reap it."""
        if self.proc.poll() is None:
            if interrupt:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Worker(Child):
    """``worker.py`` on one task; :meth:`result` waits for its output."""

    def __init__(self, scratch: Scratch, task: dict,
                 cpu: int = PROGRAM_CPU) -> None:
        self.task = dict(task, src=str(scratch.src), out=scratch.name("out"))
        self.task.setdefault("store", scratch.name("store") + ".jsonl")
        task_path = scratch.name("task")
        with open(task_path, "w") as handle:
            json.dump(self.task, handle)
        super().__init__(scratch, [sys.executable, str(HERE / "worker.py"),
                                   task_path], "ready ", cpu)

    def started(self, line: str) -> float:
        return float(line.split()[1]) - self.spawned

    def result(self) -> dict:
        """The worker's output; a traced worker's span dump is ``"spans"``."""
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker hung:\n{self.stderr()}") from exc
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}:\n"
                             f"{self.stderr()}")
        with open(self.task["out"]) as handle:
            result = json.load(handle)
        if self.task["trace"]:
            with open(self.task["out"] + ".spans") as handle:
                result["spans"] = json.load(handle)
        return result


class Server(Child):
    """A ``repro serve`` process on a fresh store, stopped with SIGINT."""

    def __init__(self, scratch: Scratch, traced: bool = False) -> None:
        self.store = scratch.name("service") + ".jsonl"
        self.spans_out = scratch.name("spans") if traced else None
        serve = ["serve", "--port", "0", "--store", self.store]
        super().__init__(scratch, [sys.executable, str(HERE / "serve_traced.py"),
                                   self.spans_out, *serve] if traced
                         else [sys.executable, "-m", "repro", *serve],
                         "serving on ")

    def started(self, line: str) -> float:
        """Set-up ends when the server answers ``/health``."""
        self.port = int(line.rsplit(":", 1)[1])
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        connection.request("GET", "/health")
        status = connection.getresponse().status
        connection.close()
        if status != 200:
            raise BenchError(f"server health check answered {status}")
        return time.monotonic() - self.spawned

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the server process")

    def __exit__(self, *exc_info) -> None:
        self.close(interrupt=True)


class Meter(Child):
    """``meter.py`` on one CPU: how fast the host runs that CPU right now."""

    def __init__(self, scratch: Scratch, cpu: int) -> None:
        self.out, self.stop_file = scratch.name("meter"), scratch.name("stop")
        super().__init__(scratch, [sys.executable, str(HERE / "meter.py"),
                                   self.out, self.stop_file], "ready", cpu)

    def started(self, line: str) -> float:
        return 0.0

    def stop(self) -> list[tuple[float, float]]:
        """Stop the meter; ``(start, kernel time / KERNEL_S)`` of each run."""
        Path(self.stop_file).touch()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"meter hung:\n{self.stderr()}") from exc
        if self.proc.returncode != 0:
            raise BenchError(f"meter exited {self.proc.returncode}:\n"
                             f"{self.stderr()}")
        with open(self.out) as handle:
            samples = [(start, seconds / KERNEL_S)
                       for start, seconds in json.load(handle)]
        if len(samples) < 10:
            raise BenchError(f"the meter ran {len(samples)} kernels")
        return samples


def slowdown(samples: list[tuple[float, float]], at: float | None = None) -> float:
    """Median slowdown of a meter's ``samples``.

    With ``at`` (a ``time.monotonic()`` reading), only of the kernel runs
    within :data:`NEAR_S` of it, when there are five or more: a query takes
    milliseconds, so it sees the host's speed of that moment, which can
    differ from the run's by more than the spread of whole runs.
    """
    if at is not None:
        near = [value for start, value in samples if abs(start - at) <= NEAR_S]
        if len(near) >= 5:
            return statistics.median(near)
    return statistics.median(value for _start, value in samples)


# -- workloads ------------------------------------------------------------------------


def _quantile(values: list[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


#: ``SimulationResult`` fields and stats summed into the simulated counts.
COUNTS = {
    "pipeline.core.cycles": "cycles",
    "pipeline.core.skipped_cycles": "skipped_cycles",
    "pipeline.core.rename_stall_cycles": "rename_stall_cycles",
    "pipeline.core.fetch_stall_cycles": "fetch_stall_cycles",
    "core.tracker.share_requests": "tracker_share_requests",
    "core.tracker.shares_granted": "tracker_shares_granted",
    "core.tracker.shares_rejected_full": "tracker_shares_rejected_full",
    "core.move_elim.moves_eliminated": "moves_eliminated",
    "core.smb.bypasses_total": "smb_bypasses_total",
    "memdep.memory_order_violations": "memory_order_violations",
    "memory.l1d_misses": "mem_l1d_misses",
    "bpred.branch_mispredictions": "branch_mispredictions",
    "pipeline.sampling.windows": "sampling_windows",
}
_DETAILED_OPS = ("sampled_instructions", "warmup_instructions",
                 "cooldown_instructions")


def simulated_counts(rows: list[dict]) -> dict[str, int]:
    """Simulated counts summed over the stored cells (exact at a fixed seed)."""
    counts = dict.fromkeys(COUNTS, 0)
    counts["pipeline.sampling.detailed_ops"] = 0
    for row in rows:
        result = row["result"]
        for name, key in COUNTS.items():
            counts[name] += int(result[key] if key == "cycles"
                                else result["stats"].get(key, 0))
        counts["pipeline.sampling.detailed_ops"] += int(
            sum(result["stats"].get(key, 0) for key in _DETAILED_OPS))
    return counts


def read_store(scratch: Scratch, path: str) -> dict:
    """A finished store: every row, ``verify()``, and its lease-file traffic."""
    if str(scratch.root / "src") not in sys.path:
        sys.path.insert(0, str(scratch.root / "src"))
    from repro.paper.store import ResultsStore

    store = ResultsStore(path, fsync=False)
    with open(store.lease_path) as handle:
        claims = sum(json.loads(line).get("op") == "claim" for line in handle)
    return {"rows": store.query(), "verify": store.verify(), "claims": claims,
            "lease_kb": os.path.getsize(store.lease_path) / 1024}


def submitted_cells(sweep_specs: list[dict]) -> set[tuple[str, int, str]]:
    """Distinct cells of wire-form sweep specs, keyed like :func:`cell_key`."""
    from repro.service.schemas import spec_from_dict

    return {(job.workload, job.seed, job.variant) for spec in sweep_specs
            for job in spec_from_dict(spec).expand()}


def measure_batch(scratch: Scratch, workload: str, seed: int, seconds: int,
                  scale: str, traced: bool, check: Check) -> dict:
    """Rounds of one batch grid, each a fresh worker on a fresh store.

    The worker sweeps the whole grid with one ``run_sweep``; a reader
    process, ready before the worker starts, queries the store it fills.
    """
    spec, queries = specs.batch_plan(workload, seed, scale)
    rounds, reads, stores = [], [], []
    for _ in range(specs.rounds(workload, seconds, scale)):
        store, stop = scratch.name("store") + ".jsonl", scratch.name("stop")
        with Worker(scratch, {"mode": "read", "store": store, "stop": stop,
                              "queries": queries, "pace_s": specs.READER_PACE_S,
                              "trace": traced}, cpu=BENCH_CPU) as reader:
            with Worker(scratch, {"mode": "round", "spec": spec,
                                  "store": store, "trace": traced}) as worker:
                rounds.append(dict(worker.result(), setup_s=worker.setup_s))
            Path(stop).touch()
            reads.append(reader.result())
        stores.append(read_store(scratch, store))
    for done in rounds:
        for cell in done["cells"]:
            check.cell(cell_key(cell), cell["instructions"], cell["cycles"])
    for read in reads:
        check.expect(bool(read["queries"]), "no query answered during the sweep")
        for query in read["queries"]:
            check.query(query, during_sweep=True)
    submitted = submitted_cells([spec])
    for store in stores:
        check.stored(store["rows"], store["verify"], submitted)
    return {
        "setups": [done["setup_s"] for done in rounds],
        "wall_s": sum(done["sweep_s"] for done in rounds),
        "cells": sum(len(done["cells"]) for done in rounds),
        "sweeps": [done["sweep_s"] for done in rounds],
        "queries": [(query["at"], query["ms"])
                    for read in reads for query in read["queries"]],
        "queries_cpu": BENCH_CPU,
        "peak_rss": [done["peak_rss_mb"] for done in rounds],
        # Every round repeats the grid: count its simulated events once.
        "counts": dict(simulated_counts(stores[0]["rows"]), **{
            "paper.store.claims": sum(store["claims"] for store in stores),
            "paper.store.lease_kb": sum(store["lease_kb"] for store in stores),
            "paper.store.duplicate_records": sum(
                store["verify"]["duplicate_keys"] for store in stores),
            "service.cells_from_store": 0,
            "experiments.scheduler.retries": sum(done["retries"] for done in rounds),
            "service.dedup_ratio": 1.0,
        }),
        "layers": (spans.summarize(spans.merge(
            [done["spans"] for done in rounds + reads])) if traced else None),
    }


def _load(server: Server, plan: dict) -> dict:
    return service_load.run_load(server.port, plan)


def measure_service(scratch: Scratch, seed: int, seconds: int, scale: str,
                    traced: bool, check: Check, load=_load) -> dict:
    """Two closed-loop clients against one ``repro serve`` on a fresh store."""
    plan = specs.service_plan(seed, specs.rounds("service_mix", seconds, scale),
                              scale)
    with Server(scratch, traced=traced) as server:
        result = load(server, plan)
        peak_rss = server.peak_rss_mb()
        if server.proc.poll() is not None:
            raise BenchError(f"server died:\n{server.stderr()}")
    clients = result["clients"].values()
    sweeps = [sweep for client in clients for sweep in client["sweeps"]]
    queries = [query for client in clients for query in client["queries"]]
    requests = [request for client in clients for request in client["requests"]]
    for route, status, _seconds in requests:
        check.expect(status in (200, 202), f"{route} answered {status}")
    for sweep in sweeps:
        check.expect(sweep["state"] == "done", f"sweep ended {sweep['state']}")
    for query in queries:
        check.query(query)
    store = read_store(scratch, server.store)
    rows = store["rows"]
    check.stored(rows, store["verify"],
                 submitted_cells([sweep["spec"] for sweep in sweeps]))
    simulated = sum(sweep.get("cells", {}).get("simulated", 0) for sweep in sweeps)
    counts = dict(simulated_counts(rows), **{
        "paper.store.claims": store["claims"],
        "paper.store.lease_kb": store["lease_kb"],
        "paper.store.duplicate_records": store["verify"]["duplicate_keys"],
        "service.cells_from_store": sum(
            sweep.get("cells", {}).get("from_store", 0) for sweep in sweeps),
        "experiments.scheduler.retries": sum(
            sweep.get("retries", 0) for sweep in sweeps),
        "service.dedup_ratio": len(rows) / simulated if simulated else 0.0,
    })
    layers = None
    if traced:
        with open(server.spans_out) as handle:
            layers = spans.summarize(json.load(handle))
        for route, name in (("POST /sweeps", "service.submit_p50_ms"),
                            ("GET /sweeps/{id}", "service.status_p50_ms")):
            latencies = [seconds * 1e3 for r, _s, seconds in requests if r == route]
            layers[name] = statistics.median(latencies)
    return {
        "setups": [server.setup_s],
        "wall_s": result["wall_s"],
        "cells": sum(sweep.get("cells", {}).get("done", 0) for sweep in sweeps),
        "sweeps": [sweep["seconds"] for sweep in sweeps],
        "queries": [(query["at"], query["ms"]) for query in queries],
        # A query's time is mostly the server's store read and reply.
        "queries_cpu": PROGRAM_CPU,
        "peak_rss": [peak_rss],
        "counts": counts,
        "layers": layers,
    }


def probe_setup(scratch: Scratch, workload: str) -> float:
    """One set-up from a fresh interpreter, stopped before any operation."""
    if workload == "service_mix":
        with Server(scratch) as server:
            return server.setup_s
    with Worker(scratch, {"mode": "probe"}) as worker:
        return worker.setup_s


# -- one benchmark run ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: int, trace: bool,
        root: Path, scale: str = "full", reference: dict | None = None,
        load=_load) -> dict:
    """Measure one workload; returns metrics, counts and the check tally."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"{root} holds no src/repro to benchmark")
    reference = reference if reference is not None else load_reference()
    grid = workload if scale == "full" else f"{workload}.tiny"
    check = Check(reference_cells(reference, grid))
    with _on_cpu(BENCH_CPU):
        scratch = Scratch(root)
        try:
            def measure(traced: bool) -> dict:
                if workload == "service_mix":
                    return measure_service(scratch, seed, seconds, scale, traced,
                                           check, load=load)
                return measure_batch(scratch, workload, seed, seconds, scale,
                                     traced, check)

            with Meter(scratch, PROGRAM_CPU) as program_meter, \
                    Meter(scratch, BENCH_CPU) as bench_meter:
                untraced = measure(False)
                setups = untraced["setups"]
                while len(setups) < SETUP_SAMPLES:
                    setups.append(probe_setup(scratch, workload))
                samples = {PROGRAM_CPU: program_meter.stop(),
                           BENCH_CPU: bench_meter.stop()}
            traced = measure(True) if trace else None
        finally:
            scratch.close()

    # Host seconds scaled to the meter's reference speed on the CPU that did
    # the work: a quarter slower host, a quarter more seconds, same result.
    # Queries are scaled one by one, by the speed around each.
    program = slowdown(samples[PROGRAM_CPU])
    near = samples[untraced["queries_cpu"]]
    queries = [ms for _at, ms in untraced["queries"]]
    scaled = [ms / slowdown(near, at) for at, ms in untraced["queries"]]
    wall = {
        "setup_s": (statistics.median(setups), len(setups)),
        "cells_per_s": (untraced["cells"] / untraced["wall_s"], untraced["cells"]),
        "sweep_p50_s": (statistics.median(untraced["sweeps"]),
                        len(untraced["sweeps"])),
        "query_p50_ms": (statistics.median(queries), len(queries)),
        "query_p90_ms": (_quantile(queries, 90), len(queries)),
    }
    end_to_end = {
        "setup_s": (wall["setup_s"][0] / program, len(setups)),
        "cells_per_s": (wall["cells_per_s"][0] * program, untraced["cells"]),
        "sweep_p50_s": (wall["sweep_p50_s"][0] / program, len(untraced["sweeps"])),
        "query_p50_ms": (statistics.median(scaled), len(scaled)),
        "query_p90_ms": (_quantile(scaled, 90), len(scaled)),
        "peak_rss_mb": (statistics.median(untraced["peak_rss"]),
                        len(untraced["peak_rss"])),
        "failed_ratio": (check.failed / check.attempted, check.attempted),
    }
    for cpu, name in ((PROGRAM_CPU, "program"), (BENCH_CPU, "bench")):
        end_to_end[f"host.{name}_cpu_slowdown"] = (slowdown(samples[cpu]),
                                                   len(samples[cpu]))
    for name, value in wall.items():
        end_to_end[f"wall.{name}"] = value
    per_layer = None
    if traced is not None:
        layers = dict(traced["layers"])
        for share, seconds_name in _SHARES.items():
            layers[share] = layers[seconds_name] / traced["wall_s"]
        layers["tracing_overhead"] = traced["wall_s"] / untraced["wall_s"] - 1
        per_layer = dict(layers, **traced["counts"])
    return {"end_to_end": end_to_end, "per_layer": per_layer,
            "counts": untraced["counts"], "check": check}


def _unit(name: str) -> str:
    if name in END_TO_END or name in PER_LAYER:
        return {**END_TO_END, **PER_LAYER}[name]
    if name.startswith("wall."):
        return _unit(name[len("wall."):])
    if name == "failed_ratio" or name.endswith(("_share", "_slowdown")):
        return "fraction"
    if name.endswith("_calls"):
        return "count"
    return "ms" if name.endswith("_ms") else "s"


def report(workload: str, seed: int, seconds: int, trace: bool, scale: str,
           outcome: dict) -> str:
    """The metric table and the final JSON line."""
    check = outcome["check"]
    lines = [f"# perfbench {workload} seed={seed} trace_seed="
             f"{specs.trace_seed(seed, scale)} seconds={seconds} "
             f"rounds={specs.rounds(workload, seconds, scale)} scale={scale}"]
    for name, (value, samples) in outcome["end_to_end"].items():
        lines.append(f"end_to_end {name:40s} {value:14.6g} {_unit(name):9s} "
                     f"n={samples}")
    layer_rows = outcome["per_layer"] or outcome["counts"]
    for name, value in layer_rows.items():
        lines.append(f"per_layer  {name:40s} {value:14.6g} {_unit(name):9s} n=1")
    for note in check.notes:
        lines.append(f"FAILED: {note}")
    if trace:
        metrics = {name: {"value": outcome["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": outcome["end_to_end"][name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    lines.append(json.dumps({"correct": check.failed == 0,
                             "attempted": check.attempted,
                             "failed": check.failed, "metrics": metrics}))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(specs.SCALES), default="full",
                        help="tiny: seconds-long grids for the benchmark's tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the children are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                      Path.cwd(), scale=args.scale)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(report(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.scale, outcome), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
