"""Tail reads of the results store and its lease sidecar.

A long-lived :class:`ResultsStore` folds only what was appended to its two
files since its previous read.  Two properties pin that:

* differential: after every kind of change the files go through (append,
  torn tail, completed tail, repair, compact, in-place rewrite, a second
  writer, heartbeat, release), a long-lived writer and a long-lived reader
  observe exactly what a freshly opened store does;
* cost shape: the sidecar bytes a claim pass reads grow linearly with the
  number of cells, not quadratically.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.paper.store as store_module
from repro.paper.store import ResultsStore, TornWriteError
from repro.pipeline.result import SimulationResult


def cells(template, count: int) -> list:
    """``count`` jobs with distinct store keys (one per trace seed)."""
    return [dataclasses.replace(template, seed=seed, job_id=f"cell{seed}")
            for seed in range(count)]


def result_for(job) -> SimulationResult:
    return SimulationResult(workload=job.workload, config_label=job.variant,
                            cycles=1_000 + job.seed, instructions=800,
                            stats={"seed": job.seed})


def view(store: ResultsStore, jobs: list) -> dict:
    """Everything a reader observes of a store (query refreshes it first)."""
    rows = store.query()
    return {
        "query": rows,
        "has": [store.has(job) for job in jobs],
        "get": [None if (result := store.get(job)) is None
                else result.to_dict() for job in jobs],
        "verify": store.verify(),
        "leases": {key: dict(entry)
                   for key, entry in store._lease_state().items()},
    }


def test_long_lived_stores_match_a_fresh_open_after_every_change(
        tmp_path, tiny_jobs, fake_clock):
    clock = fake_clock
    path = tmp_path / "results.jsonl"
    jobs = cells(tiny_jobs[0], 3)
    writer = ResultsStore(path, owner="w", fsync=False, clock=clock,
                          lease_ttl=10.0)
    reader = ResultsStore(path, owner="r", fsync=False, clock=clock)
    other = ResultsStore(path, owner="o", fsync=False, clock=clock,
                         lease_ttl=10.0)
    # The exact line record() writes for each job.
    line_store = ResultsStore(tmp_path / "lines.jsonl", fsync=False)
    for job in jobs:
        line_store.record(job, result_for(job))
    line_store.close()
    line_of = (tmp_path / "lines.jsonl").read_bytes().splitlines(keepends=True)
    full_line = line_of[1]

    def append_raw(data: bytes) -> None:
        with open(path, "ab") as handle:
            handle.write(data)

    def torn_tail() -> None:
        size = path.stat().st_size
        with pytest.raises(TornWriteError):
            writer.record_torn(jobs[1], result_for(jobs[1]))
        assert full_line.startswith(path.read_bytes()[size:])

    def complete_tail() -> None:
        torn = len(path.read_bytes()) - path.read_bytes().rfind(b"\n") - 1
        append_raw(full_line[torn:])

    def rewrite_in_place() -> None:
        # Same inode and size, other bytes before the readers' offset.
        assert path.read_bytes() == line_of[0] + line_of[1]
        path.write_bytes(line_of[1] + line_of[2])

    def heartbeat() -> None:
        clock.now += 5.0
        assert other.heartbeat_owned(min_interval=0.0) == 1

    steps = [
        ("empty", lambda: None),
        ("append", lambda: (writer.claim(jobs[0]),
                            writer.record(jobs[0], result_for(jobs[0])),
                            writer.record(jobs[0], result_for(jobs[0]),
                                          meta={"elapsed_seconds": 1.0}),
                            writer.release(jobs[0]))),
        ("torn tail", torn_tail),
        ("tail completed", complete_tail),
        ("torn again", torn_tail),
        ("repair", writer.repair),
        ("compact", lambda: (writer.claim(jobs[2]), writer.compact())),
        ("rewrite in place", rewrite_in_place),
        ("second writer", lambda: (other.claim(jobs[0]),
                                   other.record(jobs[0], result_for(jobs[0])))),
        ("heartbeat", heartbeat),
        ("release", lambda: (other.release(jobs[0]), writer.release(jobs[2]))),
    ]
    for name, change in steps:
        change()
        expected = view(ResultsStore(path, fsync=False, clock=clock), jobs)
        for store in (writer, reader):
            assert view(store, jobs) == expected, f"{store.owner} after {name}"
    assert expected["has"] == [True, True, True]
    assert expected["leases"] == {}


def test_torn_tail_is_not_taken_in_until_its_newline_lands(tmp_path, tiny_jobs):
    path = tmp_path / "results.jsonl"
    job = tiny_jobs[0]
    writer = ResultsStore(path, fsync=False)
    writer.record(job, result_for(job))
    writer.close()
    line = path.read_bytes()
    for unfinished in (line[:len(line) // 2], line[:-1]):
        path.write_bytes(unfinished)
        reader = ResultsStore(path, fsync=False)
        assert reader.query() == [] and not reader.has(job)
    path.write_bytes(line)
    assert [row["key"] for row in reader.query()] == [
        row["key"] for row in ResultsStore(path).query()]
    assert reader.has(job)


def test_query_limit_caps_rows_and_zero_answers_none(tmp_path, tiny_jobs):
    store = ResultsStore(tmp_path / "results.jsonl", fsync=False)
    for job in cells(tiny_jobs[0], 4):
        store.record(job, result_for(job))
    assert store.query(limit=0) == []
    assert [len(store.query(limit=n)) for n in (None, 1, 3, 9)] == [4, 1, 3, 4]


def lease_bytes_read(monkeypatch, path, jobs) -> int:
    """Bytes read from ``path``'s lease sidecar by one claim per job."""
    real_open = open
    total = [0]

    class CountingFile:
        def __init__(self, handle) -> None:
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info) -> None:
            self.handle.close()

        def read(self, *args) -> bytes:
            data = self.handle.read(*args)
            total[0] += len(data)
            return data

        def __getattr__(self, name):
            return getattr(self.handle, name)

    def counting_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        return CountingFile(handle) if str(file).endswith(".leases") else handle

    store = ResultsStore(path, owner="a", fsync=False)
    monkeypatch.setattr(store_module, "open", counting_open, raising=False)
    try:
        for job in jobs:
            assert store.claim(job) == "fresh"
    finally:
        monkeypatch.undo()
    return total[0]


def test_claim_pass_reads_sidecar_bytes_linear_in_cells(tmp_path, tiny_jobs,
                                                        monkeypatch):
    per_claim = {}
    for count in (24, 96, 300):
        jobs = cells(tiny_jobs[0], count)
        read = lease_bytes_read(monkeypatch, tmp_path / f"n{count}.jsonl", jobs)
        # Each claim must at least read back its own claim line.
        assert read >= count * 100
        per_claim[count] = read / count
    # Re-folding the whole sidecar per claim would make this ratio ~12.
    assert max(per_claim.values()) <= 1.5 * min(per_claim.values()), per_claim
