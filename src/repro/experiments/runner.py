"""Parallel sweep execution.

:func:`run_jobs` executes an expanded job list on a supervised
:class:`~repro.experiments.scheduler.Scheduler` backend (in-process for
``workers <= 1``, per-worker processes above that), with per-job watchdog
timeouts that terminate and reap the runaway worker, liveness supervision
that respawns crashed workers and retries their cells, deterministic
per-job seeds (carried by the :class:`~repro.experiments.grid.Job` itself)
and graceful partial failure: a job that raises deterministically -- or
keeps failing past the bounded :class:`~repro.experiments.scheduler
.RetryPolicy` -- becomes a failed :class:`JobResult` instead of aborting
the sweep, so a 100-job matrix with one pathological cell still yields 99
rows and **no cell is ever silently lost**.

Jobs never re-run the functional executor for a trace the sweep already
built: :func:`run_sweep` warms each distinct ``(workload, max_ops, seed)``
once, before any job starts.  In-process runs take the warmed trace from an
in-memory mapping keyed by :attr:`~repro.experiments.grid.Job.trace_key`,
so nothing is pickled (a caller-supplied cache directory is still read and
written while warming).  Pool workers are other processes: they read the
pickled trace from the cache directory -- an *ephemeral* one for the
duration of the call when the caller gave none -- and a per-process memo
keeps a worker from re-reading the same pickle for every job it executes.

Two-speed (sampled) sweeps go one step further -- the **checkpoint farm**:
through the same warming, hand-over, cache and memo, the parent runs the
scheme-independent planning pass (functional fast-forward, SMARTS
warming, window recording) once per workload via
:meth:`~repro.pipeline.sampling.SampledSimulator.plan`, and every tracker
-scheme job of the sweep executes its detailed windows from those shared
checkpoints (:meth:`~repro.pipeline.sampling.SampledSimulator
.execute_plan`).  Results are identical to per-scheme independent warming
by construction (the property tests pin this); only the redundant warmup
work disappears, turning O(schemes x warmup) into O(warmup).

Error-budget sweeps (``SweepSpec.sample_tolerance``) ride the same farm:
the adaptive planner probes candidate geometries on a scheme-*stripped*
machine, so the plan it freezes -- and therefore every scheme's window
offsets -- is the same whether planned once here or re-planned
independently per job.  Matched offsets mean per-cell speedup deltas are
*paired* samples, which is where the variance reduction comes from.

Resumable runs (``store=``) additionally use the store as a coordination
substrate: each pending cell is *leased* before it runs, so two concurrent
resumable runs over one store partition the work instead of duplicating
it; cells leased to the other run are awaited (or reclaimed if its lease
goes stale).  An injected torn store write (:class:`~repro.experiments
.faults.FaultPlan` ``torn_write``) is repaired and re-appended on the
spot, converging the store to the bytes a fault-free run writes.

:func:`run_sweep` is the one-call entry point gluing grid -> cache/farm ->
scheduler -> report together.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.experiments.cache import TraceCache, build, warm
from repro.experiments.faults import FaultPlan
from repro.experiments.grid import Job, SweepSpec
from repro.experiments.report import SweepReport, build_report, failure_summary
from repro.experiments.scheduler import (InProcessScheduler,
                                         ProcessPoolScheduler,
                                         ReliabilityStats, RetryPolicy, _log)
from repro.pipeline.core import simulate_trace
from repro.pipeline.result import SimulationResult
from repro.pipeline.sampling import SampledSimulator
# Not called here (builds go through repro.experiments.cache), but kept as
# a public name of this module: perfbench's tracer wraps it.
from repro.workloads import materialize_trace  # noqa: F401

#: Poll period while waiting on cells leased by a concurrent resumable run.
_AWAIT_POLL_SECONDS = 0.25


@dataclass
class JobResult:
    """Outcome of one job: either a :class:`SimulationResult` or an error.

    ``from_store`` marks a cell that was *not* simulated this run but read
    back from a :class:`~repro.paper.store.ResultsStore` (resume); it never
    enters report artifacts, which must be identical either way.
    """

    job: Job
    ok: bool
    result: SimulationResult | None = None
    error: str | None = None
    elapsed: float = 0.0
    from_store: bool = False


#: Progress callback signature: ``(completed_count, total, job_result)``.
ProgressCallback = Callable[[int, int, JobResult], None]


def _note_failure(logger, job_result: JobResult) -> None:
    """Surface a failed job as a structured warning event (satellite of the
    sweep footer: the same summary lands in ``SweepReport.to_markdown``)."""
    if logger is None or job_result.ok:
        return
    job = job_result.job
    logger.warning("job_failed", job_id=job.job_id, workload=job.workload,
                   variant=job.config.variant_name(),
                   error=failure_summary(job_result.error))


def _phase(logger, name: str, **fields):
    """``logger.phase(name)`` or a no-op context when no logger is wired."""
    if logger is None:
        return contextlib.nullcontext()
    return logger.phase(name, **fields)


#: Per-process read memo, keyed by cache file: a pool worker executes many
#: jobs on the same few workloads, so re-reading the pickled trace or plan
#: for every job is wasted I/O.  Bounded (cleared wholesale when full)
#: because a process may run many sweeps in one session.
_MEMO: dict[str, object] = {}
_MEMO_LIMIT = 32


def _replayed(job: Job, cache_root: str | None,
              simulator: SampledSimulator | None):
    """The trace or plan ``job`` replays when this process warmed none.

    With a ``cache_root`` it is read through the memo and the cache: a
    miss (``run_jobs`` called without a prior warm, or a key whose
    warming raised) is built and persisted for the other jobs on the same
    workload; writes are atomic, so concurrent workers are safe.  Without
    one it is built afresh.
    """
    if cache_root is None:
        return build(*job.trace_key, simulator)
    cache = TraceCache(cache_root)
    path = str(cache.path(*job.trace_key, simulator))
    value = _MEMO.get(path)
    if value is None:
        value = cache.get_or_generate(*job.trace_key, simulator)
        if len(_MEMO) >= _MEMO_LIMIT:
            _MEMO.clear()
        _MEMO[path] = value
    return value


def _execute_job(payload: tuple[Job, str | None, object | None]
                 ) -> tuple[bool, SimulationResult | None, str | None, float]:
    """Worker entry point (module-level so it pickles under every start method).

    ``warmed`` is the job's trace or sample plan when this process warmed
    it; otherwise the job reads it through ``cache_root`` or builds it.
    Sampled jobs execute their plan's detailed windows (the checkpoint
    farm); :meth:`~repro.pipeline.sampling.SampledSimulator.execute_plan`
    fails the job if the plan was built for another geometry or machine.
    """
    job, cache_root, warmed = payload
    start = time.perf_counter()
    try:
        simulator = (SampledSimulator(job.config, job.sampling)
                     if job.sampling is not None else None)
        replayed = (warmed if warmed is not None
                    else _replayed(job, cache_root, simulator))
        if simulator is None:
            result = simulate_trace(replayed, job.config)
        else:
            result = simulator.execute_plan(replayed)
        return True, result, None, time.perf_counter() - start
    except Exception:
        return False, None, traceback.format_exc(), time.perf_counter() - start


def run_jobs(jobs: list[Job], workers: int = 1, timeout: float | None = None,
             cache_dir: str | None = None,
             progress: ProgressCallback | None = None,
             warmed: dict | None = None, store=None, logger=None,
             fault_plan: FaultPlan | None = None,
             retry: RetryPolicy | None = None,
             stats: ReliabilityStats | None = None) -> list[JobResult]:
    """Run every job; returns one :class:`JobResult` per job, in input order.

    ``workers`` <= 1 runs in-process (easier to debug, no fork overhead for
    tiny sweeps); above that, jobs run on a supervised per-worker process
    pool (:class:`~repro.experiments.scheduler.ProcessPoolScheduler`).
    ``timeout`` is a per-job wall-clock budget in seconds; a job exceeding
    it has its worker **terminated and reaped** (never orphaned), and is
    retried under ``retry`` before being marked failed.  A crashed or
    externally killed worker is likewise detected, its cell retried on a
    respawned worker -- infrastructure failures are bounded-retried, while
    a job that raises deterministically fails immediately (retrying it
    would fail identically).  ``KeyboardInterrupt`` drains already-finished
    cells (so a store keeps them) and re-raises.

    ``warmed`` maps :attr:`Job.trace_key` to the object this process
    already warmed for it: the full-detail
    :class:`~repro.isa.executor.Trace`, or the checkpoint farm's
    :class:`~repro.pipeline.sampling.SamplePlan` for sampled jobs.
    In-process jobs run from it as is.  Pool workers ignore it -- shipping
    traces through pickle per job would cost more than it saves -- and
    read through ``cache_dir`` instead.  A job with neither builds its own
    trace or plan.

    ``store`` is an optional :class:`~repro.paper.store.ResultsStore`:
    jobs it already holds are returned immediately (``from_store=True``)
    without simulating, every freshly simulated success is appended to it
    *as it completes*, and pending cells are leased so concurrent
    resumable runs over one store partition the work (see
    :mod:`repro.paper.store`).  Results are identical with or without a
    store (the determinism tests pin the artifact bytes).

    ``fault_plan`` (a :class:`~repro.experiments.faults.FaultPlan`)
    deterministically injects worker crashes, hangs, transient raises and
    torn store writes -- all survived by the machinery above; the chaos
    tests pin that artifacts converge to the fault-free bytes.

    ``stats`` (a :class:`~repro.experiments.scheduler.ReliabilityStats`)
    is an out-parameter accumulating what supervision did; ``logger``
    (a :class:`~repro.telemetry.runlog.RunLogger`) receives structured
    ``job_failed`` / ``job_retry`` / ``worker_crash`` / ``job_timeout`` /
    ``job_quarantined`` / lease events.
    """
    if store is not None:
        return _run_jobs_resumable(jobs, store, workers=workers,
                                   timeout=timeout, cache_dir=cache_dir,
                                   progress=progress, warmed=warmed,
                                   logger=logger, fault_plan=fault_plan,
                                   retry=retry, stats=stats)
    cache_root = str(cache_dir) if cache_dir is not None else None
    total = len(jobs)
    results: dict[int, JobResult] = {}

    def _deliver(index: int, ok: bool, result, error, elapsed: float) -> None:
        job_result = JobResult(job=jobs[index], ok=ok, result=result,
                               error=error, elapsed=elapsed)
        _note_failure(logger, job_result)
        results[index] = job_result
        if progress is not None:
            # Ordered delivery makes index order == completion order here.
            progress(index + 1, total, job_result)

    if workers <= 1 or total <= 1:
        backend = InProcessScheduler(_execute_job, retry=retry,
                                     fault_plan=fault_plan, logger=logger,
                                     stats=stats)
        backend.run(jobs, cache_root=cache_root, warmed=warmed,
                    deliver=_deliver)
    else:
        backend = ProcessPoolScheduler(min(workers, total), _execute_job,
                                       timeout=timeout, retry=retry,
                                       fault_plan=fault_plan, logger=logger,
                                       stats=stats)
        backend.run(jobs, cache_root=cache_root, deliver=_deliver)
    return [results[index] for index in range(total)]


def _record_with_repair(store, job_result: JobResult,
                        stats: ReliabilityStats, logger,
                        fault_plan: FaultPlan | None) -> None:
    """Append one success to the store, surviving an injected torn write.

    The recovery path is exactly what a resumed run does after a real
    power cut -- :meth:`~repro.paper.store.ResultsStore.repair` truncates
    the torn tail, then the record is re-appended -- so the store file
    converges to the bytes a fault-free run writes (pinned by the chaos
    tests).
    """
    # Imported here: repro.paper imports this module back (its CLI runs
    # sweeps), so a top-level import would be circular.
    from repro.paper.store import TornWriteError

    meta = {"elapsed_seconds": round(job_result.elapsed, 3)}
    if fault_plan is not None and fault_plan.tears_write(job_result.job.job_id):
        try:
            store.record_torn(job_result.job, job_result.result, meta)
        except TornWriteError as exc:
            removed = store.repair()
            stats.torn_writes_recovered += 1
            _log(logger, "warning", "torn_write_repaired",
                 job_id=job_result.job.job_id, bytes_truncated=removed,
                 reason=str(exc))
    store.record(job_result.job, job_result.result, meta=meta)


def _count_claim(stats: ReliabilityStats, logger, job: Job, grant: str) -> None:
    """Account for a lease this run won (``grant`` from ``store.claim``)."""
    stats.leases_claimed += 1
    if grant == "reclaimed":
        stats.leases_reclaimed += 1
        _log(logger, "warning", "lease_reclaimed", job_id=job.job_id)


def _run_jobs_resumable(jobs: list[Job], store, workers: int,
                        timeout: float | None, cache_dir: str | None,
                        progress: ProgressCallback | None,
                        warmed: dict | None, logger=None,
                        fault_plan: FaultPlan | None = None,
                        retry: RetryPolicy | None = None,
                        stats: ReliabilityStats | None = None) -> list[JobResult]:
    """The resume path of :func:`run_jobs`: store hits first, leased misses run.

    Store hits are reported through ``progress`` up front (elapsed 0).
    Every remaining cell is then **leased**: cells we win run through the
    normal machinery (each fresh success appended to the store -- and its
    lease released -- the moment it is collected, *before* the caller's
    progress callback sees it); cells a concurrent run holds are awaited,
    polling the store, and reclaimed if that run's lease goes stale.  On
    ``KeyboardInterrupt`` the owned leases are released and the store is
    closed cleanly before re-raising, so the sweep exits resumable.
    """
    stats = stats if stats is not None else ReliabilityStats()
    total = len(jobs)
    by_index: dict[int, JobResult] = {}
    mine: list[tuple[int, Job]] = []
    theirs: list[tuple[int, Job]] = []
    try:
        for index, job in enumerate(jobs):
            cached = store.get(job)
            if cached is not None:
                by_index[index] = JobResult(job=job, ok=True, result=cached,
                                            from_store=True)
                continue
            grant = store.claim(job)
            if grant is None:
                theirs.append((index, job))
                continue
            _count_claim(stats, logger, job, grant)
            mine.append((index, job))

        # Close the miss->claim race: a concurrent run may have recorded a
        # cell (and released its lease) between our snapshot read and our
        # claim winning.  One reload re-checks every won cell -- records
        # can only predate the claim, since holding the lease stops anyone
        # else from simulating the cell from here on.
        if mine:
            store.reload()
            contested, mine = mine, []
            for index, job in contested:
                if store.has(job):
                    store.release(job)
                    by_index[index] = JobResult(job=job, ok=True,
                                                result=store.get(job),
                                                from_store=True)
                else:
                    mine.append((index, job))

        ticks = 0
        if progress is not None:
            for index in sorted(by_index):
                ticks += 1
                progress(ticks, total, by_index[index])
        counter = {"done": len(by_index)}

        def _record_and_report(_completed: int, _subtotal: int,
                               job_result: JobResult) -> None:
            if job_result.ok and job_result.result is not None:
                # Wall time travels as record *metadata*: written for
                # per-cell attribution, never read back (determinism).
                _record_with_repair(store, job_result, stats, logger,
                                    fault_plan)
            store.release(job_result.job)
            store.heartbeat_owned()
            counter["done"] += 1
            if progress is not None:
                progress(counter["done"], total, job_result)

        def _run_claimed(claimed: list[Job]) -> list[JobResult]:
            return run_jobs(claimed, workers=workers, timeout=timeout,
                            cache_dir=cache_dir, progress=_record_and_report,
                            warmed=warmed, logger=logger,
                            fault_plan=fault_plan, retry=retry, stats=stats)

        for (index, _job), job_result in zip(mine, _run_claimed(
                [job for _index, job in mine])):
            by_index[index] = job_result

        def _awaited(index: int, job: Job) -> None:
            """Report a cell a concurrent run recorded, read back from the store."""
            job_result = JobResult(job=job, ok=True, result=store.get(job),
                                   from_store=True)
            stats.cells_awaited += 1
            by_index[index] = job_result
            counter["done"] += 1
            if progress is not None:
                progress(counter["done"], total, job_result)

        # Await cells a concurrent resumable run holds leases on: poll the
        # store for their results, reclaim any whose lease went stale
        # (owner crashed) and run those ourselves.  Liveness: a concurrent
        # owner either records the cell, releases the lease (it failed
        # there -- we claim and run it) or goes stale (we reclaim it).
        waiting = theirs
        while waiting:
            still: list[tuple[int, Job]] = []
            progressed = False
            store.reload()
            for index, job in waiting:
                if store.has(job):
                    _awaited(index, job)
                    progressed = True
                    continue
                grant = store.claim(job)
                if grant is None:
                    still.append((index, job))
                    continue
                progressed = True
                # Same miss->claim race as above: the owner may have
                # recorded and released between our reload and this claim
                # winning.
                store.reload()
                if store.has(job):
                    store.release(job)
                    _awaited(index, job)
                    continue
                _count_claim(stats, logger, job, grant)
                by_index[index] = _run_claimed([job])[0]
            waiting = still
            if waiting and not progressed:
                time.sleep(_AWAIT_POLL_SECONDS)
    except KeyboardInterrupt:
        # Graceful cancellation: completed cells were already recorded by
        # the delivery path above; hand our leases back and close the
        # store on a line boundary so the next run resumes exactly the
        # pending cells.
        released = store.release_owned()
        _log(logger, "warning", "sweep_cancelled",
             leases_released=released, completed=len(by_index), total=total)
        store.close()
        raise
    return [by_index[index] for index in range(total)]


def run_sweep(spec: SweepSpec, workers: int = 1, cache_dir: str | None = None,
              timeout: float | None = None,
              progress: ProgressCallback | None = None,
              store=None, logger=None,
              fault_plan: FaultPlan | None = None,
              retry: RetryPolicy | None = None,
              stats: ReliabilityStats | None = None) -> SweepReport:
    """Expand ``spec``, warm its traces or plans, run the scheduler, aggregate.

    A full-detail sweep replays one trace per workload; a sampled sweep
    runs the shared-warmup checkpoint farm, one sample plan per workload
    executed by every scheme job (results equal per-scheme independent
    warming, which ``run_jobs(spec.expand())`` performs).  Both are warmed
    the same way: when a ``cache_dir`` is given, or some workload has more
    than one cell to run, the parent builds each distinct trace or plan
    once (:func:`~repro.experiments.cache.warm`) before any job starts;
    otherwise each job builds its own.  In-process runs (``workers <= 1``)
    keep what was warmed in memory and hand each job the one it replays;
    with a ``cache_dir`` it is still read from or written to that cache
    while warming.  Pool runs leave it in ``cache_dir`` -- or in an
    ephemeral cache for the duration of the call -- for their workers to
    read.  A workload whose trace or plan cannot be built fails its own
    cells with the build error; the rest of the grid still runs.  The
    report's ``cache_stats`` records generated-versus-reused counts only
    for a caller-supplied ``cache_dir``, so the artifact stays
    byte-identical however the sweep was scheduled.

    ``store`` (a :class:`~repro.paper.store.ResultsStore`) makes the sweep
    resumable: finished cells are skipped, fresh ones are appended to the
    store as they complete, and trace/plan warming only covers workloads
    that still have cells to run.  Tables and report JSON are identical to
    a storeless run; only ``cache_stats`` can differ (fewer traces or
    plans are materialised on a resumed run), so byte-for-byte resume
    comparisons should use ``cache_dir=None``, as ``repro paper`` does.

    ``logger`` (a :class:`~repro.telemetry.runlog.RunLogger`) times the
    warming and execution phases (``trace_build`` / ``plan`` / ``execute``
    in :attr:`~repro.telemetry.runlog.RunLogger.phase_seconds`) and
    records each job failure as a warning event.  Purely observational:
    report artifacts are identical with or without it.

    ``fault_plan`` / ``retry`` / ``stats`` flow to :func:`run_jobs`: the
    first injects deterministic faults (chaos testing), the second bounds
    infrastructure retries, the third accumulates the reliability summary
    -- none of them can perturb the report artifacts, which stay
    byte-identical to a fault-free, supervision-quiet run.
    """
    jobs = spec.expand()
    # Warming only needs to cover cells that will actually simulate; on a
    # resumed run the store supplies the rest.  The probe is cheap (an
    # in-memory index after the first read) and does not perturb artifact
    # bytes because warming is invisible to the report tables.
    if store is not None:
        pending = [job for job in jobs if not store.has(job)]
    else:
        pending = jobs
    keys = list(dict.fromkeys(job.trace_key for job in pending))
    sampling = spec.sampling_config()
    simulator = (SampledSimulator(spec.base_config, sampling)
                 if sampling is not None else None)
    kind = "traces" if simulator is None else "plans"
    pool = workers > 1 and len(pending) > 1
    cache_stats: dict[str, int] = {}
    warmed: dict = {}
    ephemeral_dir: str | None = None
    effective_cache_dir = cache_dir
    try:
        if cache_dir is not None or len(pending) > len(keys):
            if cache_dir is None and pool:
                # Pool workers are other processes: they read what the
                # parent warmed from a cache that lives for this call.
                ephemeral_dir = tempfile.mkdtemp(prefix="repro-sweep-cache-")
                effective_cache_dir = ephemeral_dir
            cache = (TraceCache(effective_cache_dir)
                     if effective_cache_dir is not None else None)
            with _phase(logger, "trace_build" if simulator is None else "plan",
                        **{kind: len(keys)}):
                warmed = warm(keys, simulator, cache)
            if cache_dir is not None:
                reused = cache.stats.hits
                cache_stats = {f"{kind}_generated": len(warmed) - reused,
                               f"{kind}_reused": reused, **cache.stats.as_dict()}
            if pool:
                # Workers load their own copies; the parent need not hold
                # every warmed object while they run.
                warmed = {}
        with _phase(logger, "execute", jobs=len(jobs)):
            results = run_jobs(jobs, workers=workers, timeout=timeout,
                               cache_dir=effective_cache_dir, progress=progress,
                               warmed=warmed, store=store,
                               logger=logger, fault_plan=fault_plan,
                               retry=retry, stats=stats)
    finally:
        if ephemeral_dir is not None:
            shutil.rmtree(ephemeral_dir, ignore_errors=True)
    # Note: deliberately free of execution details (worker count, wall
    # times, ephemeral caches, faults survived) -- the artifact must be
    # byte-identical however the sweep was scheduled, which the
    # determinism and chaos regression tests enforce.
    meta = {
        "schemes": list(spec.schemes),
        "workloads": list(spec.resolved_workloads()),
        "max_ops": spec.max_ops,
        "seed": spec.seed,
        "jobs": len(jobs),
    }
    if sampling is not None:
        meta["sampling"] = sampling.to_dict()
    return build_report(results, cache_stats=cache_stats, meta=meta)
