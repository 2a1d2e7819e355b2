"""Append-only on-disk store of completed simulation results.

A paper-figure grid is hundreds of ``(workload, config)`` cells, each worth
seconds to minutes of simulation.  :class:`ResultsStore` makes the grid
*resumable*: every finished cell is appended to a JSONL file the moment it
completes, and a restarted run skips every cell the store already holds.
``repro paper`` and ``repro sweep --resume`` both run on top of it.

Keying
------
A cell is identified by :func:`job_key`: the trace key ``(workload,
max_ops, seed)``, the report variant, the sampling-geometry fingerprint and
a fingerprint of the *entire* :class:`~repro.pipeline.config.CoreConfig`
(which subsumes :meth:`~repro.pipeline.config.CoreConfig.warm_signature`).
Two jobs that could ever simulate differently therefore never share a key:
a PRF-sizing sweep reuses variant names across sizing points, but each
sizing point hashes to a different config fingerprint.

Durability model
----------------
The store is a plain append-only JSONL file, one completed cell per line,
flushed **and fsynced** after every append (``fsync=False`` opts out for
throwaway stores), so a completed cell survives both a killed process and
a lost page cache.  Appends keep an atomic-append discipline: every record
is one ``write()`` of a full newline-terminated line, and opening the
store for appending first *repairs* a torn tail (a final line without its
newline, i.e. a record killed mid-append) by truncating it -- the affected
cell simply re-simulates, and the file converges to the same bytes a clean
run would have written.  Loading additionally tolerates arbitrary interior
corruption: garbage bytes, stale versions and unreadable files are all
skipped.  Duplicate keys keep the *last* record so a re-recorded cell wins.

Leases (multi-process coordination)
-----------------------------------
The store doubles as the coordination substrate for concurrent runs over
one grid: cell-granular **leases** live in a sidecar JSONL file
(``<store>.leases``) as idempotent appends -- ``claim`` / ``heartbeat`` /
``release`` records folded in file order.  The *first live claim wins*: a
claim line takes the cell only when no other owner holds a live lease on
it at that line's timestamp, so of two racing claimants exactly the one
whose line landed first holds the cell.  Leases expire after their TTL so
a crashed owner's cells are *reclaimed* by any surviving run.  Two
``repro sweep --resume`` processes on one store partition the pending
cells instead of duplicating them; the results file itself stays pure
(lease traffic never touches it), which is what keeps fault-free and
fault-injected stores byte-comparable after :meth:`ResultsStore.compact`.

Tail reads
----------
Both files only ever grow by whole lines between maintenance rewrites, so
a store instance reads each of them incrementally: it remembers the byte
offset just past the last complete line it took in, the file's identity
(``st_dev`` / ``st_ino``) and the bytes just before that offset, and each
refresh folds only the lines appended since into the key index or the
lease state.  A refresh starts over from byte 0 only when the file was
replaced (:meth:`ResultsStore.compact`), shrank below the offset, or no
longer holds the same bytes before it (rewritten in place); it never takes
in a final line that has no newline yet.  So a claim or a query costs what
was appended since the previous one, not the size of the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.pipeline.result import SimulationResult

#: Bumped whenever the record layout changes; stale lines are ignored (the
#: cells re-simulate) instead of being misread.
STORE_FORMAT_VERSION = 1

#: Version tag on every lease-file line; foreign lines are ignored.
LEASE_FORMAT_VERSION = 1

#: Default seconds before an unrefreshed lease is considered stale.
DEFAULT_LEASE_TTL = 300.0

#: How many bytes before a tail reader's offset must be unchanged for the
#: next read to continue from that offset (see "Tail reads").
_ANCHOR_BYTES = 256


class TornWriteError(OSError):
    """A store append was torn mid-line (only raised by fault injection)."""


def job_key(job) -> str:
    """Stable identity of one sweep cell (see the module docstring).

    ``job`` is any object with the :class:`~repro.experiments.grid.Job`
    surface: ``workload``, ``max_ops``, ``seed``, ``variant``, ``config``
    and ``sampling``.  The key is human-readable up front (trace key and
    variant for debugging a store file by eye) and exact at the back (full
    config and sampling fingerprints).
    """
    config_fp = hashlib.sha256(repr(job.config).encode()).hexdigest()[:16]
    if job.sampling is None:
        sampling_fp = "full"
    else:
        # SamplingConfig.__repr__ follows an omit-default rule (error-budget
        # knobs appear only when set), so keys recorded before those knobs
        # existed stay byte-identical and pre-existing stores resume with
        # zero cells re-simulated.
        sampling_fp = "s" + hashlib.sha256(
            repr(job.sampling).encode()).hexdigest()[:12]
    return (f"{job.workload}|ops{job.max_ops}|seed{job.seed}|{job.variant}"
            f"|w{job.config.warm_signature()}|c{config_fp}|{sampling_fp}")


def parse_key(key: str) -> dict | None:
    """Split a :func:`job_key` back into its queryable components.

    Returns ``{"workload", "max_ops", "seed", "variant", "warm",
    "config", "sampling"}`` or ``None`` for a key this version cannot
    parse.  The reverse of the key layout documented above; a workload
    name containing ``|`` (never produced by the registry) would make the
    split ambiguous, so the fixed six-field tail is anchored at the end.

    >>> parse_key("move_chain|ops800|seed1|isrb_me|wabc|cdef|full")["variant"]
    'isrb_me'
    """
    parts = key.split("|")
    if len(parts) < 7:
        return None
    workload = "|".join(parts[:-6])
    ops, seed, variant, warm, config, sampling = parts[-6:]
    if not (ops.startswith("ops") and seed.startswith("seed")
            and warm.startswith("w") and config.startswith("c")):
        return None
    try:
        return {"workload": workload, "max_ops": int(ops[3:]),
                "seed": int(seed[4:]), "variant": variant,
                "warm": warm[1:], "config": config[1:],
                "sampling": sampling}
    except ValueError:
        return None


def _json_object(line: bytes) -> dict | None:
    try:
        value = json.loads(line.decode(errors="replace"))
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def _parse_record(line: bytes) -> dict | None:
    """One results-file line as a record, or None for a corrupt/stale one."""
    record = _json_object(line)
    if (record is None or record.get("v") != STORE_FORMAT_VERSION
            or not isinstance(record.get("key"), str)
            or not isinstance(record.get("result"), dict)):
        return None
    return record


def _parse_lease(line: bytes) -> tuple | None:
    """``(op, key, owner, t, ttl)`` of one lease line, or None (foreign/garbled)."""
    entry = _json_object(line)
    if entry is None or entry.get("lv") != LEASE_FORMAT_VERSION:
        return None
    key, owner = entry.get("key"), entry.get("owner")
    if not isinstance(key, str) or not isinstance(owner, str):
        return None
    try:
        return (entry.get("op"), key, owner, float(entry.get("t", 0.0)),
                float(entry.get("ttl", 0.0)))
    except (TypeError, ValueError):
        return None


class _TailFile:
    """Incremental reader of one append-only JSONL file (see "Tail reads")."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._ident: tuple[int, int] | None = None
        self._offset = 0
        self._anchor = b""

    def read(self) -> tuple[bool, list[bytes]]:
        """``(restarted, lines)``: the complete lines appended since the last read.

        ``restarted`` means the lines start at byte 0 (first read, or the
        file was replaced, shrank or rewritten), so the caller must drop
        everything it folded before.  A missing or unreadable file reads
        as empty.
        """
        try:
            with open(self.path, "rb") as handle:
                info = os.fstat(handle.fileno())
                ident = (info.st_dev, info.st_ino)
                resume = ident == self._ident and info.st_size >= self._offset
                start = self._offset - len(self._anchor) if resume else 0
                handle.seek(start)
                data = handle.read()
        except OSError:
            ident, resume, start, data = None, False, 0, b""
        if resume and not data.startswith(self._anchor):
            self._ident = None  # rewritten in place: start over
            return self.read()
        skip = len(self._anchor) if resume else 0
        end = data.rfind(b"\n") + 1  # never past the last complete line
        self._ident, self._offset = ident, start + end
        self._anchor = data[max(end - _ANCHOR_BYTES, 0):end]
        return not resume, data[skip:end].split(b"\n")[:-1]


@dataclass
class StoreStats:
    """Accounting for one :class:`ResultsStore` (reported by ``repro paper``).

    ``corrupt_lines`` counts skipped lines plus torn tails removed by
    :meth:`ResultsStore.repair`.
    """

    hits: int = 0
    misses: int = 0
    appended: int = 0
    corrupt_lines: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "appended": self.appended, "corrupt_lines": self.corrupt_lines}


class ResultsStore:
    """Append-only JSONL store of completed ``(job, SimulationResult)`` cells.

    The store is safe to share across the many :func:`~repro.experiments
    .runner.run_sweep` calls of one figure grid (one open handle, one
    in-memory index) and across *processes over time* (every refresh
    tail-reads the file).  Concurrent processes coordinate through cell
    leases (see the module docstring); results are still only appended by
    each sweep's parent process, never by pool workers.
    """

    def __init__(self, path: str | Path, fsync: bool = True,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 owner: str | None = None, clock=time.time) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.lease_ttl = lease_ttl
        #: Unique identity of this run for lease ownership (never compared
        #: across runs, so it may -- must -- be nondeterministic).
        self.owner = owner or (f"{socket.gethostname()}-{os.getpid()}"
                               f"-{uuid.uuid4().hex[:8]}")
        self._clock = clock
        self.stats = StoreStats()
        #: key -> (result payload, :func:`parse_key` components); None
        #: until the first read.
        self._index: dict[str, tuple[dict, dict | None]] | None = None
        self._results_tail = _TailFile(self.path)
        self._handle = None
        #: key -> {owner, t, ttl, expires}: the folded lease sidecar.
        self._leases: dict[str, dict] = {}
        self._lease_lines = 0
        self._lease_tail = _TailFile(self.lease_path)
        #: Keys this store instance currently holds a lease on.
        self.owned_leases: set[str] = set()
        self._last_heartbeat = self._clock()

    @property
    def lease_path(self) -> Path:
        return self.path.with_name(self.path.name + ".leases")

    # -- loading --------------------------------------------------------------------

    def _load(self) -> dict[str, tuple[dict, dict | None]]:
        """The key index, read from the file on first use."""
        if self._index is None:
            self.reload()
        return self._index

    def reload(self) -> None:
        """Fold the records appended since the last read into the key index.

        The first lookup and every refresh share this tail read; the
        concurrent-resume poll loop calls it to observe cells another
        process finished since.  Corrupt lines are skipped and counted.
        """
        restarted, lines = self._results_tail.read()
        if restarted:
            self._index = {}
        for line in lines:
            if not line.strip():
                continue
            record = _parse_record(line)
            if record is None:
                self.stats.corrupt_lines += 1
                continue
            key = record["key"]
            self._index[key] = (record["result"], parse_key(key))

    def __len__(self) -> int:
        return len(self._load())

    # -- lookup / append ------------------------------------------------------------

    def has(self, job) -> bool:
        """Whether a record for ``job`` exists.

        Unlike :meth:`get` this neither deserialises nor touches
        :attr:`stats` -- it is the planning probe the sweep runner uses to
        decide which traces/plans still need warming.
        """
        return job_key(job) in self._load()

    def get(self, job) -> SimulationResult | None:
        """The stored result for ``job``, or ``None`` (cell must run)."""
        entry = self._load().get(job_key(job))
        if entry is None:
            self.stats.misses += 1
            return None
        try:
            result = SimulationResult.from_dict(entry[0])
        except (KeyError, TypeError, ValueError):
            # A record whose body does not deserialize is corruption too.
            self.stats.corrupt_lines += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def _serialize(self, job, result: SimulationResult,
                   meta: dict | None = None) -> tuple[str, dict, str]:
        key = job_key(job)
        payload = result.to_dict()
        record = {"v": STORE_FORMAT_VERSION, "key": key,
                  "job_id": getattr(job, "job_id", ""),
                  "result": payload}
        if meta:
            record["meta"] = dict(meta)
        return key, payload, json.dumps(record, sort_keys=True)

    def _open_for_append(self) -> None:
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic-append discipline: a pre-existing file must end on a line
        # boundary before we append.  A missing trailing newline is by
        # construction a torn final append (this store only ever writes
        # whole lines), so repair it -- the torn cell re-simulates and the
        # file converges to the bytes a clean run would have written.
        self.repair()
        self._handle = self.path.open("a")

    def record(self, job, result: SimulationResult, meta: dict | None = None) -> None:
        """Append one completed cell, flush and fsync it to disk immediately.

        The flush-and-fsync is what makes a killed grid resumable: every
        cell that finished before the kill is recoverable, at worst the one
        being appended is lost as a torn line (truncated and re-simulated
        on the next run).

        ``meta`` carries observability-only record metadata (wall-time,
        worker identity): it is written to the store line but never read
        back into results -- :meth:`get` deserialises only ``result`` --
        so it cannot leak into the deterministic report artifacts
        (:meth:`compact` drops it entirely).
        """
        key, payload, line = self._serialize(job, result, meta)
        self._open_for_append()
        self._handle.write(line + "\n")
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._load()[key] = (payload, parse_key(key))
        self.stats.appended += 1

    def record_torn(self, job, result: SimulationResult,
                    meta: dict | None = None) -> None:
        """Fault-injection hook: tear the append mid-line and raise.

        Writes only the first half of the record line (no newline), syncs
        it so the torn bytes really reach the file, and raises
        :class:`TornWriteError` -- exactly what a power cut mid-append
        leaves behind.  The caller recovers with :meth:`repair` +
        :meth:`record`; the chaos tests pin that the repaired store is
        byte-identical to one that never tore.
        """
        _key, _payload, line = self._serialize(job, result, meta)
        self._open_for_append()
        self._handle.write(line[:max(len(line) // 2, 1)])
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        raise TornWriteError(f"store append torn mid-line for {job.job_id}")

    def repair(self) -> int:
        """Truncate a torn (newline-less) tail; returns bytes removed.

        Safe by the append discipline: complete records always end in a
        newline, so trailing bytes without one are a torn append, never a
        finished cell (nor ever taken into the index).  A removed tail
        counts as one corrupt line.  Interior corruption is *not*
        rewritten here -- loading skips it and :meth:`compact` cleans it.
        """
        had_handle = self._handle is not None
        if had_handle:
            self._handle.close()
            self._handle = None
        removed = 0
        try:
            with self.path.open("rb+") as handle:
                handle.seek(0, 2)
                size = handle.tell()
                if size:
                    handle.seek(-1, 2)
                    if handle.read(1) != b"\n":
                        handle.seek(0)
                        data = handle.read()
                        keep = data.rfind(b"\n") + 1  # 0 when no newline at all
                        handle.truncate(keep)
                        removed = size - keep
                        self.stats.corrupt_lines += 1
        except OSError:
            return 0
        if had_handle:
            self._handle = self.path.open("a")
        return removed

    def close(self) -> None:
        """Close the append handle (the store remains usable; it reopens)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- leases ---------------------------------------------------------------------

    def _append_lease(self, op: str, key: str, ttl: float | None = None) -> None:
        line = json.dumps({"lv": LEASE_FORMAT_VERSION, "op": op, "key": key,
                           "owner": self.owner, "t": round(self._clock(), 3),
                           "ttl": ttl if ttl is not None else self.lease_ttl},
                          sort_keys=True)
        self.lease_path.parent.mkdir(parents=True, exist_ok=True)
        with self.lease_path.open("a") as handle:
            handle.write(line + "\n")

    def _lease_state(self) -> dict[str, dict]:
        """The folded lease file: key -> holder {owner, expires, t, ttl}.

        Folds only the lines appended since the last call (a tail read).
        Fold rules (idempotent appends, file order): a ``claim`` installs
        its owner unless *another* owner's lease is still live at the
        claim's ``t`` (first live claim wins -- the tie-break for racing
        claimants; the holder's own claim refreshes its lease, and a stale
        lease is taken over); ``heartbeat`` refreshes expiry only when its
        owner still holds the lease; ``release`` clears it only for the
        holder.
        """
        restarted, lines = self._lease_tail.read()
        if restarted:
            self._leases, self._lease_lines = {}, 0
        state = self._leases
        for line in lines:
            if not line.strip():
                continue
            self._lease_lines += 1
            entry = _parse_lease(line)
            if entry is None:
                continue
            op, key, owner, t, ttl = entry
            current = state.get(key)
            if op == "claim":
                if (current is None or current["owner"] == owner
                        or current["expires"] <= t):
                    state[key] = {"owner": owner, "t": t, "ttl": ttl,
                                  "expires": t + ttl}
            elif current is not None and current["owner"] == owner:
                if op == "heartbeat":
                    current.update(t=t, ttl=ttl, expires=t + ttl)
                elif op == "release":
                    del state[key]
        return state

    def lease_holder(self, job) -> dict | None:
        """The live lease on ``job`` (``{"owner", "expires", ...}``) or None."""
        entry = self._lease_state().get(job_key(job))
        if entry is None or entry["expires"] <= self._clock():
            return None
        return entry

    def claim(self, job, ttl: float | None = None) -> str | None:
        """Try to lease ``job`` for this run; None when another run holds it.

        Returns ``"fresh"`` (nobody held it), ``"reclaimed"`` (a stale
        lease was taken over) or ``None``.  Claiming is check -> append ->
        verify: after appending our claim the new tail of the lease file
        is folded, and the *first* live claim wins, so however the steps
        of two racing claimants interleave, both agree on the one whose
        line landed first -- without any locking.
        """
        key = job_key(job)
        now = self._clock()
        current = self._lease_state().get(key)
        stale = current is not None and current["expires"] <= now
        if current is not None and current["owner"] != self.owner and not stale:
            return None
        self._append_lease("claim", key, ttl)
        winner = self._lease_state().get(key)
        if winner is None or winner["owner"] != self.owner:
            return None  # a racing claimant's line landed first and holds it
        self.owned_leases.add(key)
        return "reclaimed" if stale and current["owner"] != self.owner else "fresh"

    def heartbeat_owned(self, min_interval: float | None = None) -> int:
        """Refresh every owned lease; returns how many were refreshed.

        ``min_interval`` (default ``ttl / 4``) rate-limits refreshes so the
        per-cell delivery path can call this unconditionally.
        """
        interval = min_interval if min_interval is not None else self.lease_ttl / 4
        now = self._clock()
        if not self.owned_leases or now - self._last_heartbeat < interval:
            return 0
        self._last_heartbeat = now
        for key in sorted(self.owned_leases):
            self._append_lease("heartbeat", key)
        return len(self.owned_leases)

    def release(self, job) -> None:
        """Release this run's lease on ``job`` (no-op when not held)."""
        key = job_key(job)
        if key in self.owned_leases:
            self.owned_leases.discard(key)
            self._append_lease("release", key)

    def release_owned(self) -> int:
        """Release every lease this run still holds (cancellation path)."""
        released = 0
        for key in sorted(self.owned_leases):
            self._append_lease("release", key)
            released += 1
        self.owned_leases.clear()
        return released

    # -- read-side queries (the service's ``GET /results``) ---------------------------

    def query(self, workload: str | None = None, variant: str | None = None,
              fingerprint: str | None = None,
              limit: int | None = None) -> list[dict]:
        """Stored cells matching the filters, sorted by key.

        ``workload`` and ``variant`` match exactly; ``fingerprint`` is a
        prefix match on the config fingerprint (so a full 16-hex
        fingerprint and a shortened one both work).  Each row carries the
        parsed key components plus the raw result payload; keys this
        store version cannot parse (foreign writers) are skipped.  Purely
        read-side (never touches leases).  The index is refreshed by a tail
        read, and each key was split into its components when its record
        was first read, so a query re-parses nothing it already read.
        """
        self.reload()
        rows: list[dict] = []
        index = self._index
        for key in sorted(index):
            payload, parsed = index[key]
            if parsed is None:
                continue
            if workload is not None and parsed["workload"] != workload:
                continue
            if variant is not None and parsed["variant"] != variant:
                continue
            if fingerprint is not None \
                    and not parsed["config"].startswith(fingerprint):
                continue
            if limit is not None and len(rows) >= limit:
                break
            rows.append({"key": key, **parsed, "result": payload})
        return rows

    # -- maintenance (``repro store``) ------------------------------------------------

    def verify(self) -> dict:
        """Integrity report of the store and lease files (read-only).

        Counts well-formed records, duplicate keys, corrupt lines and a
        torn tail on the results file, plus live/stale/total leases.
        """
        report = {"path": str(self.path), "file_bytes": 0, "lines": 0,
                  "records": 0, "unique_keys": 0, "duplicate_keys": 0,
                  "corrupt_lines": 0, "torn_tail": False,
                  "leases_live": 0, "leases_stale": 0, "lease_lines": 0}
        try:
            raw = self.path.read_bytes()
        except OSError:
            raw = b""
        report["file_bytes"] = len(raw)
        report["torn_tail"] = bool(raw) and not raw.endswith(b"\n")
        keys: dict[str, int] = {}
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            report["lines"] += 1
            record = _parse_record(line)
            if record is None:
                report["corrupt_lines"] += 1
                continue
            report["records"] += 1
            keys[record["key"]] = keys.get(record["key"], 0) + 1
        report["unique_keys"] = len(keys)
        report["duplicate_keys"] = sum(count - 1 for count in keys.values())
        leases = self._lease_state()
        report["lease_lines"] = self._lease_lines
        now = self._clock()
        for entry in leases.values():
            if entry["expires"] > now:
                report["leases_live"] += 1
            else:
                report["leases_stale"] += 1
        return report

    def compact(self, keep_meta: bool = False) -> dict:
        """Rewrite the store in canonical form; returns what was dropped.

        Canonical form: the last record per key, sorted by key, one
        ``json.dumps(..., sort_keys=True)`` line each, observability
        ``meta`` stripped (unless ``keep_meta``).  Torn tails, interior
        garbage and duplicates disappear -- two stores holding the same
        results compact to **byte-identical files** regardless of append
        order, faults survived or meta recorded, which is the form the
        chaos gates compare.  The rewrite is atomic (temp file +
        ``os.replace``); the lease sidecar is pruned to live leases only.
        """
        before = self.verify()
        records: dict[str, dict] = {}
        try:
            raw = self.path.read_bytes()
        except OSError:
            raw = b""
        for line in raw.split(b"\n"):
            record = _parse_record(line)
            if record is None:
                continue
            if not keep_meta:
                record.pop("meta", None)
            records[record["key"]] = record
        self.close()
        if records or self.path.exists():
            tmp = self.path.with_name(self.path.name + ".compact.tmp")
            with tmp.open("w") as handle:
                for key in sorted(records):
                    handle.write(json.dumps(records[key], sort_keys=True) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        # Prune the lease sidecar: live claims survive (re-emitted with
        # their original timestamps, so expiry is unchanged), everything
        # released or expired is dropped.
        now = self._clock()
        live = {key: entry for key, entry in self._lease_state().items()
                if entry["expires"] > now}
        if self.lease_path.exists():
            tmp = self.lease_path.with_name(self.lease_path.name + ".compact.tmp")
            with tmp.open("w") as handle:
                for key in sorted(live):
                    entry = live[key]
                    handle.write(json.dumps(
                        {"lv": LEASE_FORMAT_VERSION, "op": "claim", "key": key,
                         "owner": entry["owner"], "t": entry["t"],
                         "ttl": entry["ttl"]}, sort_keys=True) + "\n")
            os.replace(tmp, self.lease_path)
        self.reload()
        return {"records_kept": len(records),
                "duplicates_dropped": before["duplicate_keys"],
                "corrupt_dropped": before["corrupt_lines"],
                "torn_tail_dropped": before["torn_tail"],
                "leases_kept": len(live),
                "lease_lines_dropped": before["lease_lines"] - len(live)}
