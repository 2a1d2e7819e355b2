"""On-disk trace and sample-plan cache.

Every job of a sweep that shares a workload replays the *identical* dynamic
trace (traces are deterministic in ``(workload, max_ops, seed)``), so the
functional executor only needs to run once per workload -- not once per
job.  :class:`TraceCache` materialises traces as pickle files under a cache
directory; the sweep runner warms it in the parent process, in-process jobs
replay the traces that warming returned, and pool worker processes read
them from disk instead of re-executing the workload.

Two-speed (sampled) sweeps cache :class:`~repro.pipeline.sampling
.SamplePlan` objects the same way -- the checkpoint farm: one functional
fast-forward + warming + window-recording pass per workload, shared by
every tracker-scheme job of the sweep.  Plans are additionally keyed by the
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

from repro.isa.executor import Trace
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
    """Pickle-file trace cache keyed by ``(workload, max_ops, seed)``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    # -- keys and paths -------------------------------------------------------------

    @staticmethod
    def key(workload: str, max_ops: int, seed: int) -> str:
        """Stable, filesystem-safe cache key.

        Plainly registered workloads key by name (existing cache files stay
        valid); family workloads (``riscv:<path>``, ``trace:<path>``,
        ``fuzz:...``) key by their sanitised, content-hashed cache token.
        """
        return f"{workload_cache_token(workload)}__ops{max_ops}__seed{seed}"

    def path(self, workload: str, max_ops: int, seed: int) -> Path:
        """Path of the cache file for one key (whether or not it exists)."""
        return self.root / f"{self.key(workload, max_ops, seed)}.trace.pkl"

    # -- read/write -----------------------------------------------------------------

    def _read(self, path: Path, accept) -> dict | None:
        """The payload pickled at ``path``, or ``None`` on a miss (counted).

        A missing file is a plain miss.  A torn file, or one whose payload
        ``accept`` rejects (a stale format, a foreign plan), also counts as
        invalid; the caller regenerates and overwrites it.
        """
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            payload = None
        if not isinstance(payload, dict) or not accept(payload):
            self.stats.invalid += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def _write(self, path: Path, payload: dict) -> Path:
        """Atomically pickle ``payload`` to ``path``; returns the path."""
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

    def get(self, workload: str, max_ops: int, seed: int) -> Trace | None:
        """Return the cached trace, or ``None`` on a miss (counted)."""
        payload = self._read(
            self.path(workload, max_ops, seed),
            lambda payload: (payload.get("version") == CACHE_FORMAT_VERSION
                             and len(payload.get("trace", ())) > 0))
        return None if payload is None else payload["trace"]

    def put(self, workload: str, max_ops: int, seed: int, trace: Trace) -> Path:
        """Atomically persist ``trace`` under its key; returns the file path."""
        return self._write(self.path(workload, max_ops, seed), {
            "version": CACHE_FORMAT_VERSION,
            "workload": workload,
            "max_ops": max_ops,
            "seed": seed,
            "trace": trace,
        })

    def get_or_generate(self, workload: str, max_ops: int, seed: int) -> Trace:
        """Read-through lookup: functionally execute and persist on a miss."""
        trace = self.get(workload, max_ops, seed)
        if trace is not None:
            return trace
        trace = materialize_trace(workload, max_ops=max_ops, seed=seed)
        self.stats.generated += 1
        self.put(workload, max_ops, seed, trace)
        return trace

    def warm(self, keys) -> dict[tuple[str, int, int], Trace]:
        """Materialise every distinct ``(workload, max_ops, seed)`` in ``keys``.

        Returns the traces by key, in first-seen order.  ``stats.hits``
        counts the ones read back from the cache; the executor built the
        rest -- the acceptance check for "the executor ran once per
        workload" in sweeps.
        """
        return {key: self.get_or_generate(*key) for key in dict.fromkeys(keys)}

    # -- sample plans (checkpoint farm) -----------------------------------------------

    def plan_path(self, workload: str, max_ops: int, seed: int, simulator) -> Path:
        """Path of the cached sample plan for one (workload, geometry, machine)."""
        return self.root / (plan_cache_key(workload, max_ops, seed, simulator)
                            + ".plan.pkl")

    def get_plan(self, workload: str, max_ops: int, seed: int, simulator):
        """Return the cached :class:`SamplePlan`, or ``None`` on a miss (counted)."""

        def accept(payload: dict) -> bool:
            # A plan embeds recorded Trace/DynamicOp objects, so a trace
            # layout bump invalidates cached plans too.  The key encodes
            # geometry and machine already; re-verify anyway so a stale or
            # hand-copied file can never smuggle in a foreign plan.
            plan = payload.get("plan")
            return (payload.get("version") == PLAN_FORMAT_VERSION
                    and payload.get("trace_version") == CACHE_FORMAT_VERSION
                    and plan is not None
                    and plan.sampling == simulator.sampling_fingerprint()
                    and plan.warm_signature == simulator.config.warm_signature())

        payload = self._read(
            self.plan_path(workload, max_ops, seed, simulator), accept)
        return None if payload is None else payload["plan"]

    def put_plan(self, workload: str, max_ops: int, seed: int, simulator,
                 plan) -> Path:
        """Atomically persist a sample plan under its key; returns the file path."""
        return self._write(
            self.plan_path(workload, max_ops, seed, simulator),
            {"version": PLAN_FORMAT_VERSION,
             "trace_version": CACHE_FORMAT_VERSION, "workload": workload,
             "max_ops": max_ops, "seed": seed, "plan": plan})

    def get_or_plan(self, workload: str, max_ops: int, seed: int, simulator):
        """Read-through lookup: run the planning pass and persist on a miss."""
        plan = self.get_plan(workload, max_ops, seed, simulator)
        if plan is not None:
            return plan
        plan = _plan(workload, max_ops, seed, simulator)
        self.stats.generated += 1
        self.put_plan(workload, max_ops, seed, simulator, plan)
        return plan


def _plan(workload: str, max_ops: int, seed: int, simulator):
    """The checkpoint farm's planning pass for one trace key."""
    image = build_workload(workload, seed=seed)
    return simulator.plan(image, workload, max_ops, workload=workload)


def warm_plans(keys, simulator, cache: TraceCache | None = None) -> dict:
    """Plan every distinct trace key in ``keys`` once, through ``cache`` if given.

    Returns the plans by key, in first-seen order.  With a cache,
    ``cache.stats.hits`` counts the ones read back from it and the planning
    pass built the rest -- the acceptance check for "the warmup ran once
    per workload" in checkpoint-farm sweeps; without one, nothing is
    pickled.

    A key whose planning fails (a workload that halts before its first
    window, a budget below the warmup) is left out, so that workload fails
    *its own jobs* with the real error -- the job-side fallback re-plans
    and reports it -- instead of aborting the whole sweep.
    """
    plan = _plan if cache is None else cache.get_or_plan
    plans = {}
    for key in dict.fromkeys(keys):
        try:
            plans[key] = plan(*key, simulator)
        except Exception:
            continue
    return plans
