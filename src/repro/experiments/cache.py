"""On-disk trace and sample-plan cache.

Every job of a sweep that shares a workload replays the *identical* dynamic
trace (traces are deterministic in ``(workload, max_ops, seed)``), so the
functional executor only needs to run once per workload -- not once per
job.  Two-speed (sampled) sweeps share a :class:`~repro.pipeline.sampling
.SamplePlan` the same way -- the checkpoint farm: one functional
fast-forward + warming + window-recording pass per workload, shared by
every tracker-scheme job of the sweep.

Both kinds of entry go through one path: :func:`build` makes one,
:class:`TraceCache` reads it through a cache directory (building and
persisting it on a miss), and :func:`warm` builds every distinct key of a
sweep once, in the parent process.  Plans are additionally keyed by the
sampling geometry and the warm-relevant machine structure
(:meth:`~repro.pipeline.config.CoreConfig.warm_signature`), because a plan
is only executable on the machine family it was built for.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.workloads import build_workload, materialize_trace, workload_cache_token

#: Bumped whenever the trace layout changes; stale files are regenerated.
#: v2: ``DynamicOp`` gained slots and precomputed classification fields.
CACHE_FORMAT_VERSION = 2

#: Bumped whenever the ``SamplePlan`` layout changes; stale files are rebuilt.
PLAN_FORMAT_VERSION = 1


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`TraceCache`."""

    hits: int = 0
    misses: int = 0
    generated: int = 0
    invalid: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "generated": self.generated, "invalid": self.invalid}


def plan_cache_key(workload: str, max_ops: int, seed: int, simulator) -> str:
    """Stable, filesystem-safe key for a checkpoint-farm sample plan.

    ``simulator`` is the :class:`~repro.pipeline.sampling.SampledSimulator`
    whose geometry and warm-relevant machine structure the plan must match.

    Error-budget plans gain a suffix carrying the tolerance knobs *and* a
    hash of the probe machine: adaptive window placement depends on the
    probed IPC, and the warm signature deliberately excludes scheme-neutral
    sizing (e.g. the physical register file) that the probe does see.
    Fixed-geometry keys are byte-identical to what they were before the
    tolerance field existed, so existing ``.plan.pkl`` files stay valid;
    for the same reason every key keeps the ``-w1`` that marked a warmed
    plan while gap warming could be switched off.
    """
    sampling = simulator.sampling
    adaptive = ""
    if sampling.tolerance is not None:
        probe = hashlib.sha256(
            repr(simulator.probe_config()).encode()).hexdigest()[:12]
        adaptive = (f"__t{sampling.tolerance:g}-{sampling.min_windows}"
                    f"-{sampling.max_windows}-{probe}")
    return (f"{workload_cache_token(workload)}__ops{max_ops}__seed{seed}"
            f"__p{sampling.period}-{sampling.window}-{sampling.warmup}"
            f"-{sampling.cooldown}-w1{adaptive}"
            f"__m{simulator.config.warm_signature()}")


class TraceCache:
    """Pickle-file cache of what sweep jobs replay, keyed by trace key.

    Every method takes the trace key ``(workload, max_ops, seed)`` and an
    optional :class:`~repro.pipeline.sampling.SampledSimulator`: without
    one the entry is the full-detail trace (``*.trace.pkl``), with one it
    is the checkpoint farm's sample plan for that simulator
    (``*.plan.pkl``).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path(self, workload: str, max_ops: int, seed: int,
             simulator=None) -> Path:
        """Path of the cache file for one entry (whether or not it exists).

        Plainly registered workloads key by name (existing cache files stay
        valid); family workloads (``riscv:<path>``, ``trace:<path>``,
        ``fuzz:...``) key by their sanitised, content-hashed cache token.
        """
        if simulator is not None:
            return self.root / (plan_cache_key(workload, max_ops, seed,
                                               simulator) + ".plan.pkl")
        return self.root / (f"{workload_cache_token(workload)}__ops{max_ops}"
                            f"__seed{seed}.trace.pkl")

    def get(self, workload: str, max_ops: int, seed: int, simulator=None):
        """Return the cached trace or plan, or ``None`` on a miss (counted).

        A missing file is a plain miss.  A torn file, or one whose payload
        is stale or foreign (see :func:`_unpack`), also counts as invalid;
        the caller rebuilds and overwrites it.
        """
        try:
            with self.path(workload, max_ops, seed, simulator).open("rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            payload = None
        value = _unpack(payload, simulator)
        if value is None:
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, workload: str, max_ops: int, seed: int, value,
            simulator=None) -> Path:
        """Atomically persist a trace or plan under its key; returns the file path."""
        path = self.path(workload, max_ops, seed, simulator)
        payload = {**_versions(simulator), "workload": workload,
                   "max_ops": max_ops, "seed": seed,
                   "trace" if simulator is None else "plan": value}
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def get_or_generate(self, workload: str, max_ops: int, seed: int,
                        simulator=None):
        """Read-through lookup: build and persist the entry on a miss."""
        value = self.get(workload, max_ops, seed, simulator)
        if value is None:
            value = build(workload, max_ops, seed, simulator)
            self.stats.generated += 1
            self.put(workload, max_ops, seed, value, simulator)
        return value


def _versions(simulator) -> dict[str, int]:
    """The format-version fields a trace or plan payload starts with.

    A plan embeds recorded ``Trace``/``DynamicOp`` objects, so a trace
    layout bump invalidates cached plans too.
    """
    if simulator is None:
        return {"version": CACHE_FORMAT_VERSION}
    return {"version": PLAN_FORMAT_VERSION,
            "trace_version": CACHE_FORMAT_VERSION}


def _unpack(payload, simulator):
    """The trace or plan a loaded payload holds, or ``None`` if stale or foreign.

    A plan's file name encodes its geometry and machine already; both are
    re-verified anyway, so a stale or hand-copied file can never smuggle
    in a foreign plan.
    """
    if not isinstance(payload, dict) or any(
            payload.get(name) != version
            for name, version in _versions(simulator).items()):
        return None
    if simulator is None:
        return payload.get("trace") or None     # an empty trace is torn
    plan = payload.get("plan")
    if plan is None or plan.sampling != simulator.sampling_fingerprint() \
            or plan.warm_signature != simulator.config.warm_signature():
        return None
    return plan


def build(workload: str, max_ops: int, seed: int, simulator=None):
    """Build what a job replays: the full-detail trace, or ``simulator``'s plan.

    The plan is the checkpoint farm's planning pass for the trace key.
    """
    if simulator is None:
        return materialize_trace(workload, max_ops=max_ops, seed=seed)
    image = build_workload(workload, seed=seed)
    return simulator.plan(image, workload, max_ops, workload=workload)


def warm(keys, simulator=None, cache: TraceCache | None = None) -> dict:
    """Build every distinct trace key in ``keys`` once, through ``cache`` if given.

    Returns the traces -- or, given ``simulator``, the sample plans -- by
    key, in first-seen order.  With a cache, ``cache.stats.hits`` counts
    the ones read back from it and the rest were built -- the acceptance
    check for "the executor (or the warmup) ran once per workload" in
    sweeps; without one, nothing is pickled.

    A key whose build raises (a malformed imported trace, a workload that
    halts before its first window, a budget below the warmup) is left out,
    so that workload fails *its own jobs* with the real error -- each job
    rebuilds it and reports it -- instead of aborting the whole sweep.
    """
    warmed = {}
    for key in dict.fromkeys(keys):
        try:
            warmed[key] = (build(*key, simulator) if cache is None
                           else cache.get_or_generate(*key, simulator))
        except Exception:
            continue
    return warmed
