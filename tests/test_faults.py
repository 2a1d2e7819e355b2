"""Chaos suite: deterministic fault injection against the sweep scheduler.

The contract pinned here is the headline robustness invariant: a sweep
bombarded with injected worker crashes (real SIGKILLs), hangs past the
watchdog, transient raises and torn store writes **converges to
byte-identical artifacts and store contents** as a fault-free run -- every
fault is survived by a retry, a respawn or a repair, never by losing a
cell.  The suite also pins the failure edges: persistent faults end in
quarantined (not lost) cells, timed-out workers are terminated and reaped
with no orphan surviving, ``KeyboardInterrupt`` leaves the store clean and
resumable, and concurrent resumable runs partition work through leases.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.experiments.faults import FAULT_KINDS, FaultPlan, TransientFault
from repro.experiments.runner import _execute_job, run_jobs, run_sweep
from repro.experiments.scheduler import ReliabilityStats, RetryPolicy
from repro.paper.store import ResultsStore, TornWriteError
from repro.telemetry import RunLogger

#: Fast, deterministic retries for tests (no multi-second backoffs).
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05)


# -- fault plan determinism ----------------------------------------------------------


def test_fault_plan_assignment_is_deterministic_and_bounded():
    plan = FaultPlan(seed=11, rate=0.5)
    ids = [f"job{i}" for i in range(200)]
    first = [plan.fault_for(job_id) for job_id in ids]
    assert first == [FaultPlan(seed=11, rate=0.5).fault_for(j) for j in ids]
    hit = [kind for kind in first if kind is not None]
    assert 40 < len(hit) < 160  # ~rate, not all, not none
    assert set(hit) <= set(FAULT_KINDS)
    # A different seed draws a different assignment somewhere.
    assert first != [FaultPlan(seed=12, rate=0.5).fault_for(j) for j in ids]
    # Rate bounds.
    assert all(FaultPlan(seed=1, rate=0.0).fault_for(j) is None for j in ids)
    assert all(FaultPlan(seed=1, rate=1.0).fault_for(j) is not None for j in ids)


def test_fault_plan_first_attempt_only_unless_persistent():
    plan = FaultPlan(seed=3, rate=1.0, kinds=("raise",))
    assert plan.fault_for("cell", attempt=1) == "raise"
    assert plan.fault_for("cell", attempt=2) is None
    sticky = FaultPlan(seed=3, rate=1.0, kinds=("raise",), every_attempt=True)
    assert sticky.fault_for("cell", attempt=5) == "raise"


def test_fault_plan_validates_inputs():
    with pytest.raises(ValueError):
        FaultPlan(seed=1, kinds=("explode",))
    with pytest.raises(ValueError):
        FaultPlan(seed=1, kinds=())
    with pytest.raises(ValueError):
        FaultPlan(seed=1, rate=1.5)


def test_in_process_crash_and_hang_degrade_to_transient():
    plan = FaultPlan(seed=1, rate=1.0, kinds=("crash",))
    with pytest.raises(TransientFault):
        plan.trip("cell", attempt=1, in_process=True)
    plan = FaultPlan(seed=1, rate=1.0, kinds=("hang",))
    with pytest.raises(TransientFault):
        plan.trip("cell", attempt=1, in_process=True)
    # torn_write is store-side: trip never fires it.
    FaultPlan(seed=1, rate=1.0, kinds=("torn_write",)).trip("cell", attempt=1)


# -- the headline invariant: chaos converges to clean bytes --------------------------


@pytest.fixture(scope="module")
def clean_reference(tmp_path_factory, chaos_spec):
    """Fault-free report + canonical (compacted) store bytes."""
    out = tmp_path_factory.mktemp("chaos_clean")
    store = ResultsStore(out / "results.jsonl", fsync=False)
    report = run_sweep(chaos_spec, cache_dir=None, store=store)
    store.close()
    store.compact()
    return report, (out / "results.jsonl").read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_fault_injected_sweep_is_byte_identical_to_clean(
        kind, seed, tmp_path, clean_reference, chaos_spec):
    clean_report, clean_store_bytes = clean_reference
    plan = FaultPlan(seed=seed, rate=1.0, kinds=(kind,), hang_seconds=10.0)
    # crash needs a real worker process to kill; hang needs a watchdog.
    workers = 2 if kind in ("crash", "hang") else 1
    timeout = 0.5 if kind == "hang" else 30.0
    stats = ReliabilityStats()
    store = ResultsStore(tmp_path / "results.jsonl", fsync=False)
    report = run_sweep(chaos_spec, workers=workers, cache_dir=None,
                       timeout=timeout, store=store, fault_plan=plan,
                       retry=FAST_RETRY, stats=stats)
    store.close()
    store.compact()

    assert not report.failures  # zero lost cells, zero quarantines
    assert report.to_json() == clean_report.to_json()
    assert report.to_markdown() == clean_report.to_markdown()
    assert (tmp_path / "results.jsonl").read_bytes() == clean_store_bytes
    # The faults really fired and were survived by the machinery.
    expected = {"crash": lambda: stats.crashes,
                "hang": lambda: stats.timeouts,
                "raise": lambda: stats.transient_faults,
                "torn_write": lambda: stats.torn_writes_recovered}
    assert expected[kind]() >= 1
    # Every worker ever spawned is reaped: no orphan survives the sweep.
    for pid in stats.worker_pids:
        with pytest.raises(OSError):
            os.kill(pid, 0)


# -- quarantine: persistent failure ends in a failed cell, never a lost one ----------


def test_persistent_fault_quarantines_cells_and_reports_them(tiny_jobs):
    jobs = tiny_jobs
    plan = FaultPlan(seed=5, rate=1.0, kinds=("raise",), every_attempt=True)
    stats = ReliabilityStats()
    logger = RunLogger()
    results = run_jobs(jobs, fault_plan=plan, retry=FAST_RETRY, stats=stats,
                       logger=logger)
    assert len(results) == len(jobs)  # no lost cells
    assert all(not r.ok for r in results)
    for result in results:
        assert "quarantined after 3 failed attempt(s)" in result.error
    assert stats.quarantined == len(jobs)
    assert stats.retries == 2 * len(jobs)
    # The events flowed through the logger, and the failures hit the footer.
    assert logger.counters.get("job_retry") == 2 * len(jobs)
    assert logger.counters.get("job_quarantined") == len(jobs)
    assert logger.counters.get("job_failed") == len(jobs)
    from repro.experiments.report import build_report

    footer = build_report(results).to_markdown()
    assert f"{len(jobs)} job(s) failed:" in footer
    assert "quarantined" in footer


# -- satellite: timeouts terminate + reap, never orphan ------------------------------


def test_timed_out_worker_is_terminated_and_no_orphan_survives(tiny_jobs):
    jobs = tiny_jobs
    plan = FaultPlan(seed=7, rate=1.0, kinds=("hang",), every_attempt=True,
                     hang_seconds=30.0)
    stats = ReliabilityStats()
    retry = RetryPolicy(max_attempts=2, backoff_base=0.01)
    results = run_jobs(jobs, workers=2, timeout=0.4, fault_plan=plan,
                       retry=retry, stats=stats)
    assert all(not r.ok for r in results)
    assert all("timed out after 0.4s" in r.error for r in results)
    assert stats.timeouts == 2 * len(jobs)
    assert stats.worker_pids  # the pool really ran processes
    for pid in stats.worker_pids:
        with pytest.raises(OSError):  # every one reaped -- no orphans
            os.kill(pid, 0)


def test_timeout_without_retry_fails_fast_with_old_error_text(tiny_jobs):
    jobs = tiny_jobs
    plan = FaultPlan(seed=7, rate=1.0, kinds=("hang",), every_attempt=True)
    retry = RetryPolicy(max_attempts=3, retry_timeouts=False)
    results = run_jobs(jobs, workers=2, timeout=0.4, fault_plan=plan,
                       retry=retry)
    assert all(r.error == "timed out after 0.4s" for r in results)


# -- satellite: real SIGKILL of a worker ---------------------------------------------


def test_sigkilled_worker_is_respawned_and_sweep_completes(tmp_path, chaos_spec):
    """The crash fault is a real ``os.kill(pid, SIGKILL)`` inside the
    worker -- the supervisor must notice the death, respawn, retry."""
    jobs = chaos_spec.expand()
    plan = FaultPlan(seed=2, rate=1.0, kinds=("crash",))
    stats = ReliabilityStats()
    results = run_jobs(jobs, workers=2, cache_dir=str(tmp_path),
                       fault_plan=plan, retry=FAST_RETRY, stats=stats)
    assert all(r.ok for r in results)
    assert stats.crashes >= len(jobs)  # every first attempt was SIGKILLed
    assert stats.workers_spawned > 2  # replacements were spawned
    clean = run_jobs(jobs, workers=1, cache_dir=str(tmp_path))
    for survived, reference in zip(results, clean):
        assert survived.result.to_dict() == reference.result.to_dict()


# -- satellite: KeyboardInterrupt leaves the store clean and resumable ---------------


def test_keyboard_interrupt_mid_sweep_is_resumable(tmp_path, tiny_jobs):
    jobs = tiny_jobs
    path = tmp_path / "results.jsonl"
    store = ResultsStore(path, fsync=False)

    def interrupt_after_first(_done, _total, job_result):
        if not job_result.from_store:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_jobs(jobs, store=store, progress=interrupt_after_first)

    # The store was flushed and closed on a line boundary, leases released.
    assert path.read_bytes().endswith(b"\n")
    assert store.owned_leases == set()
    assert store._lease_state() == {}

    # The resumed run simulates exactly the pending cells.
    resumed = ResultsStore(path, fsync=False)
    results = run_jobs(jobs, store=resumed)
    assert [r.from_store for r in results] == [True, False]
    assert resumed.stats.appended == 1
    assert all(r.ok for r in results)


def test_pool_keyboard_interrupt_drains_completed_cells(tmp_path, chaos_spec):
    """A cancelled pool sweep keeps every already-finished cell."""
    jobs = chaos_spec.expand()
    path = tmp_path / "results.jsonl"
    store = ResultsStore(path, fsync=False)
    seen = []

    def interrupt_on_third(_done, _total, job_result):
        if not job_result.from_store:
            seen.append(job_result.job.job_id)
            if len(seen) == 3:
                raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_jobs(jobs, workers=2, cache_dir=str(tmp_path / "cache"),
                 store=store, progress=interrupt_on_third)
    assert path.read_bytes().endswith(b"\n")
    assert store._lease_state() == {}

    resumed = ResultsStore(path, fsync=False)
    results = run_jobs(jobs, store=resumed, cache_dir=str(tmp_path / "cache"))
    assert all(r.ok for r in results)
    assert sum(1 for r in results if r.from_store) >= 3


# -- leases: claim / release / stale reclaim / partition -----------------------------


def test_lease_claim_is_exclusive_until_released(tmp_path, tiny_jobs, fake_clock):
    clock = fake_clock
    path = tmp_path / "results.jsonl"
    a = ResultsStore(path, owner="a", clock=clock, lease_ttl=10.0)
    b = ResultsStore(path, owner="b", clock=clock, lease_ttl=10.0)
    job = tiny_jobs[0]
    assert a.claim(job) == "fresh"
    assert b.claim(job) is None
    assert b.lease_holder(job)["owner"] == "a"
    a.release(job)
    assert a.owned_leases == set()
    assert b.claim(job) == "fresh"


class Turns:
    """Runs racing claimants' lease steps in one fixed global order.

    Each paced store's lease reads (``_lease_state``: the check, then the
    verify) and its append wait until their owner is next in ``order``.
    """

    def __init__(self, order: str) -> None:
        self.order = list(order)
        self.cond = threading.Condition()

    def pace(self, store: ResultsStore, method: str) -> None:
        original = getattr(store, method)

        def step(*args, **kwargs):
            with self.cond:
                assert self.cond.wait_for(
                    lambda: self.order[:1] == [store.owner], timeout=10.0)
            try:
                return original(*args, **kwargs)
            finally:
                with self.cond:
                    self.order.pop(0)
                    self.cond.notify_all()

        setattr(store, method, step)


@pytest.mark.parametrize("order", ["ababab", "abaabb"],
                         ids=["check-check-append-append-verify-verify",
                              "second-appends-after-first-verified"])
def test_racing_claims_have_exactly_one_winner(tmp_path, tiny_jobs, fake_clock,
                                               order):
    """Both claimants pass the check; the first claim line wins the cell.

    In the second interleaving ``a`` verifies before ``b`` appends: a
    last-claim-wins fold granted the cell to both of them there.
    """
    path = tmp_path / "results.jsonl"
    job = tiny_jobs[0]
    turns = Turns(order)
    stores = [ResultsStore(path, owner=name, clock=fake_clock, lease_ttl=10.0)
              for name in "ab"]
    for store in stores:
        turns.pace(store, "_lease_state")
        turns.pace(store, "_append_lease")
    grants = {}
    threads = [threading.Thread(
        target=lambda store=store: grants.update({store.owner: store.claim(job)}))
        for store in stores]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert turns.order == []
    assert grants == {"a": "fresh", "b": None}
    assert ResultsStore(path, clock=fake_clock).lease_holder(job)["owner"] == "a"
    assert stores[1].owned_leases == set()


def test_own_claim_refreshes_the_lease(tmp_path, tiny_jobs, fake_clock):
    clock = fake_clock
    path = tmp_path / "results.jsonl"
    a = ResultsStore(path, owner="a", clock=clock, lease_ttl=10.0)
    b = ResultsStore(path, owner="b", clock=clock, lease_ttl=10.0)
    job = tiny_jobs[0]
    assert a.claim(job) == "fresh"
    clock.now += 8.0
    assert a.claim(job) == "fresh"  # still ours: the expiry moves on
    assert b.lease_holder(job)["expires"] == clock.now + 10.0
    clock.now += 8.0  # past the first expiry, inside the refreshed one
    assert b.claim(job) is None
    clock.now += 3.0
    assert b.claim(job) == "reclaimed"


def test_stale_lease_is_reclaimed_and_heartbeat_prevents_it(
        tmp_path, tiny_jobs, fake_clock):
    clock = fake_clock
    path = tmp_path / "results.jsonl"
    a = ResultsStore(path, owner="a", clock=clock, lease_ttl=10.0)
    b = ResultsStore(path, owner="b", clock=clock, lease_ttl=10.0)
    job = tiny_jobs[0]
    assert a.claim(job) == "fresh"
    clock.now += 8.0
    assert a.heartbeat_owned(min_interval=0.0) == 1  # refreshed before expiry
    clock.now += 8.0  # past the original expiry, inside the refreshed one
    assert b.claim(job) is None
    clock.now += 11.0  # now genuinely stale
    assert b.claim(job) == "reclaimed"
    # The old owner's heartbeat no longer revives its lost lease.
    a.heartbeat_owned(min_interval=0.0)
    assert b.lease_holder(job)["owner"] == "b"


def test_release_owned_clears_every_lease(tmp_path, tiny_jobs, fake_clock):
    clock = fake_clock
    store = ResultsStore(tmp_path / "r.jsonl", owner="a", clock=clock,
                         lease_ttl=10.0)
    jobs = tiny_jobs
    for job in jobs:
        assert store.claim(job) == "fresh"
    assert store.release_owned() == len(jobs)
    assert store._lease_state() == {}


def test_concurrent_resumable_runs_partition_work(tmp_path, tiny_jobs):
    """Two runs over one store: cells leased by the other run are awaited
    (not duplicated), and both runs end with the full result set."""
    jobs = tiny_jobs
    path = tmp_path / "results.jsonl"
    other = ResultsStore(path, owner="other", fsync=False)
    assert other.claim(jobs[1]) == "fresh"

    def other_run():
        time.sleep(0.5)
        ok, result, _error, _elapsed = _execute_job((jobs[1], None, None))
        assert ok
        other.record(jobs[1], result)
        other.release(jobs[1])
        other.close()

    thread = threading.Thread(target=other_run)
    thread.start()
    try:
        mine = ResultsStore(path, fsync=False)
        stats = ReliabilityStats()
        results = run_jobs(jobs, store=mine, stats=stats)
    finally:
        thread.join()
    assert all(r.ok for r in results)
    assert results[1].from_store  # came from the other run, not re-simulated
    assert stats.cells_awaited == 1
    assert mine.stats.appended == 1  # we only simulated our own cell
    mine.close()


def test_stale_leased_cell_is_reclaimed_and_run(tmp_path, tiny_jobs):
    """A cell whose owner crashed (lease expired, no result) is reclaimed."""
    jobs = tiny_jobs
    path = tmp_path / "results.jsonl"
    crashed = ResultsStore(path, owner="crashed", fsync=False, lease_ttl=0.05)
    assert crashed.claim(jobs[0]) == "fresh"
    time.sleep(0.1)  # the owner dies without releasing; the lease goes stale

    mine = ResultsStore(path, fsync=False)
    stats = ReliabilityStats()
    results = run_jobs(jobs, store=mine, stats=stats)
    assert all(r.ok and not r.from_store for r in results)
    assert stats.leases_reclaimed >= 1
    assert mine.stats.appended == len(jobs)


# -- store durability: fsync, torn-line repair, verify/compact -----------------------


def test_repair_truncates_torn_tail_only(tmp_path, tiny_jobs):
    jobs = tiny_jobs
    path = tmp_path / "results.jsonl"
    store = ResultsStore(path, fsync=False)
    run_jobs(jobs, store=store)
    store.close()
    intact = path.read_bytes()
    path.write_bytes(intact + b'{"v": 1, "key": "torn", "resu')

    again = ResultsStore(path)
    assert again.verify()["torn_tail"] is True
    removed = again.repair()
    assert removed == len(b'{"v": 1, "key": "torn", "resu')
    assert path.read_bytes() == intact
    assert again.repair() == 0  # idempotent


def test_record_torn_then_repair_converges_to_identical_bytes(tmp_path, tiny_jobs):
    jobs = tiny_jobs
    ok, result, _error, _elapsed = _execute_job((jobs[0], None, None))
    assert ok

    clean = ResultsStore(tmp_path / "clean.jsonl", fsync=False)
    clean.record(jobs[0], result)
    clean.close()

    torn = ResultsStore(tmp_path / "torn.jsonl", fsync=False)
    with pytest.raises(TornWriteError):
        torn.record_torn(jobs[0], result)
    assert not (tmp_path / "torn.jsonl").read_bytes().endswith(b"\n")
    torn.repair()
    torn.record(jobs[0], result)
    torn.close()
    assert ((tmp_path / "torn.jsonl").read_bytes()
            == (tmp_path / "clean.jsonl").read_bytes())


def test_compact_canonicalizes_order_duplicates_and_meta(tmp_path, chaos_spec):
    jobs = chaos_spec.expand()
    executed = [(job, _execute_job((job, None, None))[1]) for job in jobs]

    forward = ResultsStore(tmp_path / "fwd.jsonl", fsync=False)
    for job, result in executed:
        forward.record(job, result, meta={"elapsed_seconds": 1.23})
    forward.close()

    backward = ResultsStore(tmp_path / "bwd.jsonl", fsync=False)
    for job, result in reversed(executed):
        backward.record(job, result, meta={"elapsed_seconds": 9.87})
    # A duplicate append and a torn tail must both disappear.
    backward.record(executed[0][0], executed[0][1])
    with pytest.raises(TornWriteError):
        backward.record_torn(executed[1][0], executed[1][1])
    backward.close()

    assert forward.compact()["records_kept"] == len(jobs)
    outcome = backward.compact()
    assert outcome["records_kept"] == len(jobs)
    assert outcome["duplicates_dropped"] == 1
    assert outcome["torn_tail_dropped"] is True
    assert ((tmp_path / "fwd.jsonl").read_bytes()
            == (tmp_path / "bwd.jsonl").read_bytes())
    # Compacted stores still resume.
    resumed = ResultsStore(tmp_path / "fwd.jsonl")
    assert all(resumed.has(job) for job in jobs)


def test_verify_reports_damage_and_lease_hygiene(tmp_path, tiny_jobs, fake_clock):
    clock = fake_clock
    jobs = tiny_jobs
    path = tmp_path / "results.jsonl"
    store = ResultsStore(path, fsync=False, clock=clock, lease_ttl=10.0)
    run_jobs(jobs, store=store)
    store.close()
    store.claim(jobs[0])          # live lease
    clock.now += 100.0            # ...now stale

    lines = path.read_text().splitlines()
    lines[0] = "{garbage"
    path.write_text("\n".join(lines) + "\n" + '{"torn')

    report = ResultsStore(path, clock=clock).verify()
    assert report["corrupt_lines"] == 2  # the garbage line + the torn tail
    assert report["torn_tail"] is True
    assert report["records"] == len(jobs) - 1
    assert report["leases_stale"] == 1 and report["leases_live"] == 0


def test_fsync_is_on_by_default_and_optional():
    assert ResultsStore("unused.jsonl").fsync is True
    assert ResultsStore("unused.jsonl", fsync=False).fsync is False


# -- reliability surfacing -----------------------------------------------------------


def test_reliability_summary_line_mentions_what_happened():
    stats = ReliabilityStats(attempts=9, retries=3, crashes=1, timeouts=1,
                             transient_faults=1, quarantined=1,
                             torn_writes_recovered=2, leases_claimed=6,
                             leases_reclaimed=1, cells_awaited=2)
    line = stats.summary_line(6)
    assert line.startswith("reliability: 9 attempt(s) for 6 job(s)")
    for fragment in ("3 retried", "1 crash(es)", "1 timeout(s)",
                     "1 transient(s)", "1 quarantined",
                     "2 torn write(s) repaired", "6 lease(s) claimed",
                     "1 stale reclaimed", "2 awaited"):
        assert fragment in line
    quiet = ReliabilityStats(attempts=4).summary_line(4)
    assert quiet == "reliability: 4 attempt(s) for 4 job(s)"
    assert stats.as_dict()["retries"] == 3


def test_retry_policy_backoff_is_bounded_and_deterministic():
    retry = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.3)
    assert [retry.backoff(n) for n in (1, 2, 3, 4)] == [0.1, 0.2, 0.3, 0.3]
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


def test_transient_faults_retry_in_process_and_converge(tmp_path, tiny_jobs):
    """The in-process backend retries injected transients with backoff and
    produces results identical to an uninjected run."""
    jobs = tiny_jobs
    plan = FaultPlan(seed=9, rate=1.0, kinds=("raise",))
    stats = ReliabilityStats()
    slept = []
    from repro.experiments.scheduler import InProcessScheduler

    delivered = {}
    backend = InProcessScheduler(
        _execute_job, retry=FAST_RETRY, fault_plan=plan, stats=stats,
        sleep=slept.append)
    backend.run(jobs, cache_root=str(tmp_path),
                deliver=lambda i, ok, res, err, el: delivered.update({i: res}))
    assert stats.retries == len(jobs)
    assert slept == [FAST_RETRY.backoff(1)] * len(jobs)
    clean = run_jobs(jobs, cache_dir=str(tmp_path))
    for index, reference in enumerate(clean):
        assert delivered[index].to_dict() == reference.result.to_dict()
