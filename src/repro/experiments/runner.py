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
the parent runs the scheme-independent planning pass (functional
fast-forward, SMARTS warming, window recording) once per workload via
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

from repro.experiments.cache import TraceCache, plan_cache_key
from repro.experiments.faults import FaultPlan
from repro.experiments.grid import Job, SweepSpec
from repro.experiments.report import SweepReport, build_report
from repro.experiments.scheduler import (InProcessScheduler,
                                         ProcessPoolScheduler,
                                         ReliabilityStats, RetryPolicy)
from repro.pipeline.core import simulate_trace
from repro.pipeline.result import SimulationResult
from repro.pipeline.sampling import SampledSimulator
from repro.workloads import build_workload, materialize_trace

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


def failure_summary(error: str | None) -> str:
    """One-line gist of a job failure (the exception line of a traceback)."""
    if not error:
        return "unknown failure"
    lines = [line.strip() for line in error.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "unknown failure"


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

#: Per-process read memos: a pool worker executes many jobs on the same few
#: workloads, so re-reading the pickled trace/plan for every job is wasted
#: I/O.  Bounded (cleared wholesale when full) because a process may run
#: many sweeps in one session.
_TRACE_MEMO: dict = {}
_PLAN_MEMO: dict = {}
_MEMO_LIMIT = 32


def _memoized(memo: dict, key, loader):
    value = memo.get(key)
    if value is None:
        value = loader()
        if value is not None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            memo[key] = value
    return value


def _load_trace(job: Job, cache_root: str | None):
    if cache_root is not None:
        # Read-through: a miss (e.g. run_jobs called without a prior warm)
        # is generated once and persisted for the other jobs on the same
        # workload.  Writes are atomic, so concurrent workers are safe.
        return _memoized(
            _TRACE_MEMO, (cache_root, *job.trace_key),
            lambda: TraceCache(cache_root).get_or_generate(*job.trace_key))
    # materialize_trace handles imported-trace workloads (trace:<path>),
    # which have no functional image to execute.
    return materialize_trace(job.workload, max_ops=job.max_ops, seed=job.seed)


def _load_plan(job: Job, cache_root: str, simulator: SampledSimulator):
    key = (cache_root, plan_cache_key(*job.trace_key, simulator))
    return _memoized(
        _PLAN_MEMO, key,
        lambda: TraceCache(cache_root).get_plan(*job.trace_key, simulator))


def _execute_job(payload: tuple[Job, str | None, object | None]
                 ) -> tuple[bool, SimulationResult | None, str | None, float]:
    """Worker entry point (module-level so it pickles under every start method).

    ``warmed`` is the job's trace or sample plan when this process warmed
    it; otherwise the job loads it from ``cache_root`` or builds it.
    """
    job, cache_root, warmed = payload
    start = time.perf_counter()
    try:
        if job.sampling is not None:
            simulator = SampledSimulator(job.config, job.sampling)
            plan = warmed
            if plan is None and cache_root is not None:
                plan = _load_plan(job, cache_root, simulator)
            if plan is not None \
                    and plan.sampling == simulator.sampling_fingerprint() \
                    and plan.warm_signature == simulator.config.warm_signature():
                # Checkpoint farm: detailed windows only, from the shared
                # warmup (identical result, proven by the property tests).
                result = simulator.execute_plan(plan)
            else:
                # Independent warming: plan + execute in one call.  Sampled
                # mode never materialises the full trace (that is the
                # point), so the trace side of the cache is not consulted.
                result = simulator.run_workload(job.workload, max_ops=job.max_ops,
                                                seed=job.seed)
        else:
            trace = warmed if warmed is not None else _load_trace(job, cache_root)
            result = simulate_trace(trace, job.config)
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
    read from ``cache_dir`` instead.  A job with neither warms on its own:
    it replays a freshly built trace, or plans and executes its sampled
    run independently.

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


def _log(logger, level: str, event: str, **fields) -> None:
    if logger is None:
        return
    logger.event(event, level=level, **fields)


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
            stats.leases_claimed += 1
            if grant == "reclaimed":
                stats.leases_reclaimed += 1
                _log(logger, "warning", "lease_reclaimed", job_id=job.job_id)
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
                    job_result = JobResult(job=job, ok=True,
                                           result=store.get(job),
                                           from_store=True)
                    stats.cells_awaited += 1
                    by_index[index] = job_result
                    counter["done"] += 1
                    progressed = True
                    if progress is not None:
                        progress(counter["done"], total, job_result)
                    continue
                grant = store.claim(job)
                if grant is not None:
                    # Same miss->claim race as above: the owner may have
                    # recorded and released between our reload and this
                    # claim winning.
                    store.reload()
                    if store.has(job):
                        store.release(job)
                        job_result = JobResult(job=job, ok=True,
                                               result=store.get(job),
                                               from_store=True)
                        stats.cells_awaited += 1
                        by_index[index] = job_result
                        counter["done"] += 1
                        progressed = True
                        if progress is not None:
                            progress(counter["done"], total, job_result)
                        continue
                    stats.leases_claimed += 1
                    if grant == "reclaimed":
                        stats.leases_reclaimed += 1
                        _log(logger, "warning", "lease_reclaimed",
                             job_id=job.job_id)
                    by_index[index] = _run_claimed([job])[0]
                    progressed = True
                    continue
                still.append((index, job))
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

    Full-detail sweeps materialise each distinct trace exactly once before
    any job starts.  In-process runs (``workers <= 1``) keep the warmed
    traces in memory and hand each job the one it replays; with a
    ``cache_dir`` they are still read from or written to that cache while
    warming.  Pool runs leave the traces in ``cache_dir`` -- or in an
    ephemeral cache for the duration of the call -- for their workers to
    read.  Without a ``cache_dir``, a trace that only one job replays is
    left to that job.

    Sampled sweeps run the shared-warmup checkpoint farm the same way:
    one planning pass per workload in the parent, executed by every scheme
    job (results equal per-scheme independent warming, which
    ``run_jobs(spec.expand())`` performs).  The report's
    ``cache_stats`` records generated-versus-reused counts only for a
    caller-supplied ``cache_dir``, so the artifact stays byte-identical
    however the sweep was scheduled.

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
    if sampling is None:
        warm = cache_dir is not None or len(pending) > len(keys)
    else:
        warm = cache_dir is not None or bool(pending)
    pool = workers > 1 and len(pending) > 1
    cache_stats: dict[str, int] = {}
    warmed: dict = {}
    ephemeral_dir: str | None = None
    effective_cache_dir = cache_dir
    try:
        if warm:
            if cache_dir is None and pool:
                # Pool workers are other processes: they read what the
                # parent warmed from a cache that lives for this call.
                ephemeral_dir = tempfile.mkdtemp(prefix="repro-sweep-cache-")
                effective_cache_dir = ephemeral_dir
            cache = (TraceCache(effective_cache_dir)
                     if effective_cache_dir is not None else None)
            if sampling is None:
                with _phase(logger, "trace_build", traces=len(keys)):
                    warmed = cache.warm(keys) if cache is not None else {
                        key: materialize_trace(*key) for key in keys}
            else:
                simulator = SampledSimulator(spec.base_config, sampling)
                with _phase(logger, "plan", plans=len(keys)):
                    if cache is not None:
                        warmed = cache.warm_plans(keys, simulator, lenient=True)
                    else:
                        for key in keys:
                            workload, max_ops, seed = key
                            try:
                                image = build_workload(workload, seed=seed)
                                warmed[key] = simulator.plan(
                                    image, workload, max_ops, workload=workload)
                            except Exception:
                                # The job-side fallback reproduces and
                                # reports it.
                                continue
            if cache_dir is not None:
                kind = "traces" if sampling is None else "plans"
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
