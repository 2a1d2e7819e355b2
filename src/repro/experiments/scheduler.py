"""Supervised job scheduling for the sweep runner.

:func:`~repro.experiments.runner.run_jobs` used to hand its jobs to a bare
:class:`multiprocessing.Pool`: a SIGKILL'd worker silently lost its cell, a
per-job timeout *abandoned* the runaway process instead of stopping it, and
a flaky failure was final.  This module replaces the pool with a
:class:`Scheduler` abstraction whose contract is **no lost cells**: every
job ends in exactly one delivered outcome -- a result, a deterministic
failure, or a quarantine record after bounded retries -- no matter how its
worker died.

Two backends share the contract:

* :class:`InProcessScheduler` -- jobs run serially in the parent (the
  ``workers <= 1`` path).  No supervision is possible or needed; injected
  crash/hang faults degrade to retryable transients.
* :class:`ProcessPoolScheduler` -- per-worker :class:`multiprocessing
  .Process` pairs connected by pipes, supervised by the parent:

  - **liveness**: worker death (crash, OOM kill, external SIGKILL) is
    detected via the process sentinel, the in-flight job is retried and a
    replacement worker is spawned on demand;
  - **watchdog**: a job that exceeds the per-job timeout gets its worker
    ``terminate()``-d (then ``kill()``-ed), *reaped* with ``join()``, and
    the job retried -- no orphan process ever survives a timed-out job
    (pinned by a regression test);
  - **bounded retries**: infrastructure failures (crash, timeout,
    injected transient) retry under a deterministic :class:`RetryPolicy`
    with exponential backoff; a job that keeps failing is *quarantined*
    into a failed outcome.  Deterministic job errors (the job itself
    raised) are never retried -- they would fail identically again;
  - **ordered delivery**: outcomes are delivered to the caller in job
    input order regardless of completion order, so downstream recording
    (the results store) is deterministic across worker counts and fault
    plans;
  - **graceful cancellation**: ``KeyboardInterrupt`` stops dispatch,
    drains every already-completed outcome to the caller (so the store
    keeps them), tears the workers down, and re-raises -- the sweep exits
    *resumable*.

Supervision lives entirely in the parent's dispatch loop -- between jobs,
never inside the simulated cell -- so the hot simulation path is untouched
(the bench sim tier gates this).
"""

from __future__ import annotations

import heapq
import multiprocessing
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Callable

from repro.experiments.faults import FaultPlan, TransientFault

#: ``deliver(index, ok, result, error, elapsed)`` -- invoked exactly once
#: per job, in job input order.
DeliverCallback = Callable[[int, bool, object, "str | None", float], None]

#: Supervision poll granularity (seconds).  Only bounds how quickly a
#: death/timeout is *noticed*; results themselves wake the wait instantly.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded deterministic retries for infrastructure failures.

    ``max_attempts`` counts total tries including the first; retry ``n``
    (1-based) waits ``backoff_base * backoff_factor**(n-1)`` seconds,
    capped at ``backoff_cap`` -- a fixed, jitter-free schedule so runs are
    reproducible.  ``retry_timeouts=False`` restores fail-fast watchdog
    semantics (the worker is still terminated and reaped either way).
    """

    max_attempts: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0
    retry_timeouts: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff(self, failed_attempts: int) -> float:
        """Delay before the retry following ``failed_attempts`` failures."""
        return min(self.backoff_base * self.backoff_factor ** (failed_attempts - 1),
                   self.backoff_cap)


@dataclass
class ReliabilityStats:
    """What supervision actually did during one scheduler run.

    Filled in by the schedulers and the resumable runner; surfaced as the
    one-line reliability summary in the sweep footer (stderr -- never
    inside the byte-deterministic report artifacts) and as structured
    :class:`~repro.telemetry.runlog.RunLogger` events.
    """

    attempts: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    transient_faults: int = 0
    quarantined: int = 0
    workers_spawned: int = 0
    torn_writes_recovered: int = 0
    leases_claimed: int = 0
    leases_reclaimed: int = 0
    cells_awaited: int = 0
    #: Every worker pid ever spawned (the orphan-reaping test's witness).
    worker_pids: list[int] = field(default_factory=list)

    def as_dict(self) -> dict[str, int]:
        return {"attempts": self.attempts, "retries": self.retries,
                "crashes": self.crashes, "timeouts": self.timeouts,
                "transient_faults": self.transient_faults,
                "quarantined": self.quarantined,
                "workers_spawned": self.workers_spawned,
                "torn_writes_recovered": self.torn_writes_recovered,
                "leases_claimed": self.leases_claimed,
                "leases_reclaimed": self.leases_reclaimed,
                "cells_awaited": self.cells_awaited}

    def summary_line(self, jobs: int) -> str:
        """The sweep-footer one-liner (attempts, retries, leases)."""
        parts = [f"{self.attempts} attempt(s) for {jobs} job(s)"]
        if self.retries:
            causes = []
            if self.crashes:
                causes.append(f"{self.crashes} crash(es)")
            if self.timeouts:
                causes.append(f"{self.timeouts} timeout(s)")
            if self.transient_faults:
                causes.append(f"{self.transient_faults} transient(s)")
            suffix = f" ({', '.join(causes)})" if causes else ""
            parts.append(f"{self.retries} retried{suffix}")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.torn_writes_recovered:
            parts.append(f"{self.torn_writes_recovered} torn write(s) repaired")
        if self.leases_claimed or self.leases_reclaimed or self.cells_awaited:
            parts.append(f"{self.leases_claimed} lease(s) claimed, "
                         f"{self.leases_reclaimed} stale reclaimed, "
                         f"{self.cells_awaited} awaited")
        return "reliability: " + ", ".join(parts)


def _log(logger, level: str, event: str, **fields) -> None:
    if logger is None:
        return
    logger.event(event, level=level, **fields)


class InProcessScheduler:
    """Serial in-process backend (``workers <= 1``).

    Supports the same retry/quarantine semantics as the pool backend for
    *transient* failures; crash/hang faults degrade to transients (there
    is no separate process to kill), and timeouts are not enforceable.
    """

    def __init__(self, execute, retry: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None, logger=None,
                 stats: ReliabilityStats | None = None,
                 sleep=time.sleep) -> None:
        self.execute = execute
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan
        self.logger = logger
        self.stats = stats if stats is not None else ReliabilityStats()
        self._sleep = sleep

    def run(self, jobs, cache_root: str | None = None, warmed: dict | None = None,
            deliver: DeliverCallback | None = None) -> None:
        warmed = warmed or {}
        for index, job in enumerate(jobs):
            attempt = 1
            while True:
                self.stats.attempts += 1
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.trip(job.job_id, attempt, in_process=True)
                    ok, result, error, elapsed = self.execute(
                        (job, cache_root, warmed.get(job.trace_key)))
                except TransientFault as exc:
                    self.stats.transient_faults += 1
                    if attempt < self.retry.max_attempts:
                        self.stats.retries += 1
                        delay = self.retry.backoff(attempt)
                        _log(self.logger, "info", "job_retry", job_id=job.job_id,
                             attempt=attempt + 1, backoff_seconds=round(delay, 3),
                             reason=str(exc))
                        self._sleep(delay)
                        attempt += 1
                        continue
                    self.stats.quarantined += 1
                    _log(self.logger, "warning", "job_quarantined",
                         job_id=job.job_id, attempts=attempt, reason=str(exc))
                    ok, result, elapsed = False, None, 0.0
                    error = (f"quarantined after {attempt} failed attempt(s): "
                             f"{exc}")
                if deliver is not None:
                    deliver(index, ok, result, error, elapsed)
                break


class _WorkerHandle:
    """One live worker process plus its parent-side pipe end."""

    __slots__ = ("proc", "conn", "index", "attempt", "deadline")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.index: int | None = None  # in-flight job index (None = idle)
        self.attempt = 0
        self.deadline: float | None = None


def _worker_main(conn, execute, cache_root, fault_plan) -> None:
    """Worker process loop: receive ``(index, job, attempt)``, send outcome.

    Module-level so it pickles under every start method.  SIGINT is
    ignored -- cancellation is the parent's job (it drains and terminates);
    a worker that died mid-``recv``/``send`` simply exits and the parent's
    liveness supervision handles the fallout.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if task is None:
            return
        index, job, attempt = task
        try:
            if fault_plan is not None:
                fault_plan.trip(job.job_id, attempt)
            message = (index, "done", *execute((job, cache_root, None)))
        except TransientFault as exc:
            message = (index, "transient", False, None, str(exc), 0.0)
        except KeyboardInterrupt:
            return
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


class ProcessPoolScheduler:
    """Supervised process-pool backend (see the module docstring).

    Workers are spawned on demand up to ``workers`` and replaced when they
    die; each carries one job at a time over its own pipe, so a lost
    worker loses *at most* the identity of its in-flight job -- which the
    parent holds, and retries.
    """

    def __init__(self, workers: int, execute, timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 fault_plan: FaultPlan | None = None, logger=None,
                 stats: ReliabilityStats | None = None) -> None:
        self.workers = max(workers, 1)
        self.execute = execute
        self.timeout = timeout
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan
        self.logger = logger
        self.stats = stats if stats is not None else ReliabilityStats()
        self._ctx = multiprocessing.get_context()

    # -- worker lifecycle -------------------------------------------------------------

    def _spawn(self, cache_root) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.execute, cache_root, self.fault_plan),
            daemon=True)
        proc.start()
        child_conn.close()
        self.stats.workers_spawned += 1
        self.stats.worker_pids.append(proc.pid)
        _log(self.logger, "info", "worker_spawn", pid=proc.pid)
        return _WorkerHandle(proc, parent_conn)

    @staticmethod
    def _dispose(handle: _WorkerHandle, kill: bool = False) -> None:
        """Stop and *reap* one worker (terminate -> kill escalation)."""
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.proc.is_alive():
            if kill:
                handle.proc.terminate()
            handle.proc.join(timeout=1.0)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join()
        else:
            handle.proc.join()

    # -- the dispatch loop ------------------------------------------------------------

    def run(self, jobs, cache_root: str | None = None,
            deliver: DeliverCallback | None = None) -> None:
        # Shipping traces and recorded windows through a pipe per job costs
        # more than it saves, so pool workers read them from the cache
        # directory.
        total = len(jobs)
        #: (not_before, index, attempt) -- min-heap on dispatch eligibility.
        ready: list[tuple[float, int, int]] = [(0.0, i, 1) for i in range(total)]
        outcomes: dict[int, tuple] = {}
        delivered = 0
        idle: list[_WorkerHandle] = []
        busy: list[_WorkerHandle] = []

        def _deliver_in_order() -> None:
            nonlocal delivered
            while delivered < total and delivered in outcomes:
                if deliver is not None:
                    deliver(delivered, *outcomes[delivered])
                delivered += 1

        def _retryable_failure(index: int, attempt: int, reason: str,
                               retriable: bool) -> None:
            now = time.monotonic()
            if retriable and attempt < self.retry.max_attempts:
                self.stats.retries += 1
                delay = self.retry.backoff(attempt)
                _log(self.logger, "info", "job_retry",
                     job_id=jobs[index].job_id, attempt=attempt + 1,
                     backoff_seconds=round(delay, 3), reason=reason)
                heapq.heappush(ready, (now + delay, index, attempt + 1))
                return
            self.stats.quarantined += 1
            _log(self.logger, "warning", "job_quarantined",
                 job_id=jobs[index].job_id, attempts=attempt, reason=reason)
            error = reason if attempt == 1 else \
                f"quarantined after {attempt} failed attempt(s): {reason}"
            outcomes[index] = (False, None, error, 0.0)
            _deliver_in_order()

        def _collect(handle: _WorkerHandle, message) -> None:
            index, kind, ok, result, error, elapsed = message
            handle.index, handle.deadline = None, None
            busy.remove(handle)
            idle.append(handle)
            if kind == "transient":
                self.stats.transient_faults += 1
                _retryable_failure(index, handle.attempt, error, retriable=True)
                return
            outcomes[index] = (ok, result, error, elapsed)
            _deliver_in_order()

        def _worker_crashed(handle: _WorkerHandle) -> None:
            busy.remove(handle)
            self._dispose(handle)
            exitcode = handle.proc.exitcode
            self.stats.crashes += 1
            _log(self.logger, "warning", "worker_crash", pid=handle.proc.pid,
                 exitcode=exitcode,
                 job_id=jobs[handle.index].job_id if handle.index is not None
                 else None)
            if handle.index is not None:
                _retryable_failure(handle.index, handle.attempt,
                                   f"worker crashed (exit {exitcode})",
                                   retriable=True)

        def _worker_timed_out(handle: _WorkerHandle) -> None:
            busy.remove(handle)
            self._dispose(handle, kill=True)  # terminate AND reap: no orphans
            self.stats.timeouts += 1
            _log(self.logger, "warning", "job_timeout", pid=handle.proc.pid,
                 job_id=jobs[handle.index].job_id,
                 timeout_seconds=self.timeout)
            _retryable_failure(handle.index, handle.attempt,
                               f"timed out after {self.timeout:.1f}s",
                               retriable=self.retry.retry_timeouts)

        try:
            while delivered < total:
                now = time.monotonic()
                # Dispatch every eligible job onto an idle (live) worker.
                while ready and ready[0][0] <= now and len(busy) < self.workers:
                    _, index, attempt = heapq.heappop(ready)
                    handle = None
                    while idle and handle is None:
                        candidate = idle.pop()
                        if candidate.proc.is_alive():
                            handle = candidate
                        else:  # died while idle (external kill): replace it
                            self._dispose(candidate)
                            self.stats.crashes += 1
                            _log(self.logger, "warning", "worker_crash",
                                 pid=candidate.proc.pid,
                                 exitcode=candidate.proc.exitcode, job_id=None)
                    if handle is None:
                        handle = self._spawn(cache_root)
                    self.stats.attempts += 1
                    handle.index, handle.attempt = index, attempt
                    handle.deadline = (now + self.timeout
                                       if self.timeout is not None else None)
                    busy.append(handle)
                    try:
                        handle.conn.send((index, jobs[index], attempt))
                    except (BrokenPipeError, OSError):
                        _worker_crashed(handle)

                if not busy:
                    if ready:  # nothing in flight; sleep until next backoff ends
                        time.sleep(max(ready[0][0] - time.monotonic(), 0.0))
                        continue
                    break  # every outcome is in; delivery loop has drained

                # Wait on results AND process sentinels: a pipe inherited by
                # a sibling fork can keep EOF from ever arriving, but the
                # sentinel always fires when the process dies.
                waitables = [h.conn for h in busy] + [h.proc.sentinel for h in busy]
                poll = _POLL_SECONDS
                deadlines = [h.deadline for h in busy if h.deadline is not None]
                if deadlines:
                    poll = min(poll, max(min(deadlines) - time.monotonic(), 0.0))
                if ready:
                    poll = min(poll, max(ready[0][0] - time.monotonic(), 0.0))
                _connection_wait(waitables, timeout=poll)

                now = time.monotonic()
                for handle in list(busy):
                    message = None
                    try:
                        if handle.conn.poll(0):
                            message = handle.conn.recv()
                    except (EOFError, OSError):
                        _worker_crashed(handle)
                        continue
                    if message is not None:
                        _collect(handle, message)
                    elif not handle.proc.is_alive():
                        _worker_crashed(handle)
                    elif handle.deadline is not None and now >= handle.deadline:
                        _worker_timed_out(handle)
        except KeyboardInterrupt:
            # Graceful cancellation: drain results that already arrived so
            # the caller (and its results store) keeps them, then re-raise
            # with every worker reaped -- the sweep exits *resumable*.
            _log(self.logger, "warning", "sweep_cancelled",
                 delivered=delivered, total=total)
            for handle in busy:
                try:
                    if handle.conn.poll(0):
                        index, _kind, ok, result, error, elapsed = handle.conn.recv()
                        outcomes[index] = (ok, result, error, elapsed)
                except (EOFError, OSError):
                    pass
            for index in sorted(k for k in outcomes if k >= delivered):
                if deliver is not None:
                    try:
                        deliver(index, *outcomes[index])
                    except KeyboardInterrupt:
                        continue  # keep draining; we are already cancelling
            raise
        finally:
            for handle in idle + busy:
                if handle.index is None and handle.proc.is_alive():
                    try:
                        handle.conn.send(None)  # polite shutdown first
                    except (BrokenPipeError, OSError):
                        pass
            for handle in idle + list(busy):
                self._dispose(handle, kill=True)
