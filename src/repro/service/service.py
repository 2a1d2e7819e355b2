"""The sweep service engine: a job queue over the sweep harness.

:class:`SweepService` multiplexes many concurrent clients onto the
existing scheduler stack (:func:`~repro.experiments.runner.run_sweep`
with a shared :class:`~repro.paper.store.ResultsStore`), independent of
any transport -- :mod:`repro.service.server` is the HTTP skin over it.

Isolation model
---------------
Each submission becomes a :class:`SweepJob` running on a bounded thread
pool.  Per-client **quotas** cap how many active (queued or running)
jobs one client may hold, and a global **queue limit** bounds the
service; both reject at submit time rather than degrade everyone.

All jobs share one results store *path* but each opens its own
:class:`~repro.paper.store.ResultsStore` instance with a unique owner
identity, so the store's cell-granular leases partition overlapping
grids between concurrent jobs: every unique cell simulates exactly once,
later and concurrent requesters read it back (``from_store``), and a
repeat of an already-served sweep costs zero simulation.  ``GET
/results`` reads through one more, long-lived instance whose index each
query refreshes with a tail read of the file.

Cancellation rides the runner's own drain path: the per-cell progress
callback raises :class:`KeyboardInterrupt` once a job's cancel flag is
set, which makes :func:`~repro.experiments.runner.run_jobs` release the
job's leases and close its store on a line boundary -- exactly what
Ctrl-C does to ``repro sweep --resume``.

Observability: every job carries a :class:`~repro.telemetry.runlog
.RunLogger` whose events (``cell_simulated`` / ``cell_from_store`` /
``sweep_*`` lifecycle, plus everything the runner logs) are both counted
(:attr:`~repro.telemetry.runlog.RunLogger.counters`, surfaced in status
payloads) and published to per-job subscribers for SSE streaming; a
service-wide :class:`~repro.telemetry.metrics.MetricsRegistry` backs
``GET /metrics``.
"""

from __future__ import annotations

import collections
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.experiments.faults import FaultPlan
from repro.experiments.grid import SweepSpec
from repro.experiments.runner import run_sweep
from repro.experiments.scheduler import ReliabilityStats, RetryPolicy
from repro.paper.store import ResultsStore
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runlog import RunLogger

#: Job states; the last three are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Finished jobs the service keeps (reports and event logs); when one more
#: finishes, the one that finished first is dropped and its id answers 404.
#: Its cells stay in the results store.
FINISHED_JOBS_KEPT = 64

#: Watchdog budget for fault-injected jobs (an injected hang must trip a
#: timeout well before :attr:`FaultPlan.hang_seconds`), mirroring the CLI.
_FAULT_TIMEOUT_SECONDS = 20.0


class ServiceError(Exception):
    """Base for submit-time rejections (maps to an HTTP status upstream)."""

    code = "service_error"


class QuotaExceeded(ServiceError):
    """The client already holds its quota of active jobs."""

    code = "quota_exceeded"


class QueueFull(ServiceError):
    """The service-wide active-job limit is reached."""

    code = "queue_full"


class UnknownJob(ServiceError):
    """No job with the requested id."""

    code = "unknown_job"


class _JobLogger(RunLogger):
    """A RunLogger that also publishes every event to the job's stream."""

    def __init__(self, job: "SweepJob") -> None:
        super().__init__()
        self._job = job

    def event(self, event: str, level: str = "info", **fields) -> dict:
        record = super().event(event, level=level, **fields)
        self._job.publish(record)
        return record


class SweepJob:
    """One submitted sweep: state machine, event stream, result."""

    def __init__(self, job_id: str, client: str, spec: SweepSpec,
                 fault_plan: FaultPlan | None = None) -> None:
        self.id = job_id
        self.client = client
        self.spec = spec
        self.fault_plan = fault_plan
        self.state = "queued"
        self.error: str | None = None
        self.report = None  # SweepReport once done
        self.cells_total = spec.job_count()
        self.cells_done = 0
        self.cells_simulated = 0
        self.cells_from_store = 0
        self.cancel_event = threading.Event()
        #: Event stream for SSE: appended under :attr:`cond`, never mutated.
        self.events: list[dict] = []
        self.cond = threading.Condition()
        self.logger = _JobLogger(self)
        self.stats = ReliabilityStats()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def publish(self, record: dict) -> None:
        """Append one event and wake every waiting subscriber."""
        with self.cond:
            self.events.append(dict(record, seq=len(self.events)))
            self.cond.notify_all()

    def status(self) -> dict:
        """JSON-serialisable snapshot (the ``GET /sweeps/{id}`` body)."""
        with self.cond:
            return {
                "id": self.id,
                "client": self.client,
                "state": self.state,
                "cells": {
                    "total": self.cells_total,
                    "done": self.cells_done,
                    "simulated": self.cells_simulated,
                    "from_store": self.cells_from_store,
                },
                "counters": dict(self.logger.counters),
                "events": len(self.events),
                "error": self.error,
            }


class SweepService:
    """The multi-client job queue over :func:`run_sweep` (see module docs)."""

    def __init__(self, store_path, workers: int = 1,
                 cache_dir: str | None = None, max_concurrent: int = 2,
                 quota: int = 2, queue_limit: int = 8,
                 fsync: bool = True, retry: RetryPolicy | None = None) -> None:
        self.store_path = store_path
        self.workers = workers
        self.cache_dir = cache_dir
        self.quota = quota
        self.queue_limit = queue_limit
        self.fsync = fsync
        self.retry = retry
        self.metrics = MetricsRegistry()
        self._jobs: dict[str, SweepJob] = {}
        #: Ids of the retained finished jobs, the first finished first.
        self._finished: collections.deque[str] = collections.deque()
        self._lock = threading.RLock()
        #: The one store ``GET /results`` reads; its index is refreshed by
        #: a tail read per query (queries run on connection threads).
        self._reader = ResultsStore(store_path, fsync=False)
        self._reader_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._executor = ThreadPoolExecutor(max_workers=max_concurrent,
                                            thread_name_prefix="sweep")

    # -- submission / lifecycle -----------------------------------------------------

    def active_jobs(self, client: str | None = None) -> list[SweepJob]:
        """Non-terminal jobs, optionally restricted to one client."""
        with self._lock:
            return [job for job in self._jobs.values() if not job.terminal
                    and (client is None or job.client == client)]

    def submit(self, spec: SweepSpec, client: str = "anonymous",
               fault_plan: FaultPlan | None = None) -> SweepJob:
        """Queue one sweep; raises :class:`QuotaExceeded` / :class:`QueueFull`."""
        with self._lock:
            active = [job for job in self._jobs.values() if not job.terminal]
            if len(active) >= self.queue_limit:
                raise QueueFull(
                    f"service is at its limit of {self.queue_limit} active "
                    f"sweep(s); retry once one finishes")
            if sum(job.client == client for job in active) >= self.quota:
                raise QuotaExceeded(
                    f"client {client!r} already holds {self.quota} active "
                    f"sweep(s) (the per-client quota)")
            job = SweepJob(f"sweep-{next(self._ids):04d}", client, spec,
                           fault_plan=fault_plan)
            self._jobs[job.id] = job
        self.metrics.inc("service_sweeps_submitted_total")
        job.logger.event("sweep_queued", id=job.id, client=client,
                         cells=job.cells_total)
        self._executor.submit(self._run, job)
        return job

    def get(self, job_id: str) -> SweepJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(f"no sweep with id {job_id!r}")
        return job

    def jobs(self) -> list[SweepJob]:
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> SweepJob:
        """Cancel a job: immediately when queued, via the drain path when running.

        Terminal jobs are left as they are (cancel is idempotent but never
        rewrites history).  Either way the job's queue slot is freed the
        moment it reaches a terminal state, so quota accounting recovers.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state == "queued":
                job.cancel_event.set()
                self._finish(job, "cancelled")
                return job
        job.cancel_event.set()
        return job

    def shutdown(self) -> None:
        """Cancel everything and stop the worker pool (server teardown)."""
        for job in self.jobs():
            if not job.terminal:
                job.cancel_event.set()
        self._executor.shutdown(wait=True, cancel_futures=True)

    # -- execution ------------------------------------------------------------------

    def _finish(self, job: SweepJob, state: str) -> None:
        """Move a job to a terminal state and emit the terminal event.

        Drops the earliest finished job once more than
        :data:`FINISHED_JOBS_KEPT` are kept.
        """
        with self._lock:
            job.state = state
            self._finished.append(job.id)
            while len(self._finished) > FINISHED_JOBS_KEPT:
                del self._jobs[self._finished.popleft()]
        self.metrics.inc("service_sweeps_finished_total",
                         labels={"state": state})
        job.logger.event(f"sweep_{state}", id=job.id,
                         cells_done=job.cells_done,
                         cells_simulated=job.cells_simulated,
                         cells_from_store=job.cells_from_store)

    def _run(self, job: SweepJob) -> None:
        with self._lock:
            if job.terminal:  # cancelled while still queued
                return
            job.state = "running"
        job.logger.event("sweep_started", id=job.id)
        store = ResultsStore(self.store_path, owner=f"svc-{job.id}",
                             fsync=self.fsync)

        def progress(completed: int, total: int, job_result) -> None:
            if job.cancel_event.is_set():
                # Rides the runner's Ctrl-C drain: leases released, store
                # closed on a line boundary, sweep exits resumable.
                raise KeyboardInterrupt
            with job.cond:
                job.cells_done += 1
                if job_result.from_store:
                    job.cells_from_store += 1
                else:
                    job.cells_simulated += 1
            name = ("cell_from_store" if job_result.from_store
                    else "cell_simulated")
            job.logger.event(name, job_id=job_result.job.job_id,
                             ok=job_result.ok, completed=completed,
                             total=total)

        timeout = (_FAULT_TIMEOUT_SECONDS if job.fault_plan is not None
                   else None)
        try:
            report = run_sweep(job.spec, workers=self.workers,
                               cache_dir=self.cache_dir, timeout=timeout,
                               progress=progress, store=store,
                               logger=job.logger, fault_plan=job.fault_plan,
                               retry=self.retry, stats=job.stats)
        except KeyboardInterrupt:
            # The runner already released this job's leases and closed the
            # store; only the bookkeeping is left.
            self._finish(job, "cancelled")
            return
        except Exception as exc:  # pragma: no cover - defensive surface
            store.close()
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, "failed")
            return
        store.close()
        job.report = report
        self.metrics.inc("service_cells_simulated_total",
                         amount=job.cells_simulated)
        self.metrics.inc("service_cells_from_store_total",
                         amount=job.cells_from_store)
        self._finish(job, "done")

    # -- read side ------------------------------------------------------------------

    def wait_events(self, job: SweepJob, index: int,
                    timeout: float | None = None) -> tuple[list[dict], int]:
        """Block until the job has events past ``index`` (or is terminal).

        Returns ``(new_events, next_index)``; an empty list means the wait
        timed out or the job is terminal with nothing new -- the SSE loop
        uses the pair of this and :attr:`SweepJob.terminal` to decide when
        the stream is complete.
        """
        with job.cond:
            if index >= len(job.events) and not job.terminal:
                job.cond.wait(timeout)
            events = job.events[index:]
            return events, index + len(events)

    def query_results(self, workload: str | None = None,
                      variant: str | None = None,
                      fingerprint: str | None = None,
                      limit: int | None = None) -> list[dict]:
        """Query the shared results store (see :meth:`ResultsStore.query`).

        Served from one long-lived reader, so a query parses only the
        records appended since the previous one.
        """
        with self._reader_lock:
            return self._reader.query(workload=workload, variant=variant,
                                      fingerprint=fingerprint, limit=limit)

    def metrics_snapshot(self) -> dict:
        """The ``GET /metrics`` payload: registry export plus live gauges."""
        self.metrics.set("service_jobs_active",
                         len(self.active_jobs()), merge="last")
        self.metrics.set("service_jobs_total", len(self.jobs()), merge="last")
        return self.metrics.to_dict()
