"""SMARTS-style sampled simulation: functional fast-forward + detailed windows.

The cycle-level core is 40-80x slower than the functional core, which caps
how long a workload the harness can study.  :class:`SampledSimulator`
interleaves the two speeds: each sampling *period* starts with a detailed
stretch (``warmup`` instructions to refill the pipeline-adjacent state,
then a measured ``window``), after which the rest of the period is retired
by :class:`~repro.isa.functional.FunctionalCore` at millions of micro-ops
per second.  Micro-architectural state -- branch predictors, caches, the
rename state and the register-sharing tracker -- is carried across the
fast-forward gaps by the :class:`~repro.pipeline.snapshot.CoreSnapshot`
API, so every window starts warm.

Measurement methodology (see DESIGN.md for the error analysis):

* each detailed stretch (warmup + window) is replayed as *one*
  :meth:`Core.run`, resumed from the previous stretch's snapshot, so the
  detailed model never sees the fast-forward gap;
* the window's cycle count is measured from the commit of the last warmup
  micro-op (the run's ``commit_milestone``) to the end of the run -- the
  warmup therefore absorbs both the stale-state transient *and* the
  pipeline-fill ramp of restarting a drained pipeline, and the window
  measures mid-steady-state throughput (only the end-of-run drain remains
  inside the window, a small downward bias);
* the detailed stretch's offset *rotates* within the period from one
  sample to the next (a deterministic golden-ratio stride over the gap),
  so windows cannot systematically alias with program periodicity -- a
  workload whose slow phase recurs every N instructions would otherwise be
  sampled always-in or always-out of it;
* the steady-state IPC point estimate is the ratio estimator
  ``sum(window instructions) / sum(window cycles)``;
* the whole-run cycle estimate is *hybrid*: every detailed stretch
  contributes its actual simulated cycles (so one-off transients such as
  the cold-start ramp are charged once, at their true cost, instead of
  being extrapolated), and only the fast-forwarded instructions are
  extrapolated at the steady-state IPC;
* the per-window IPC sample additionally yields an instruction-weighted
  mean and standard deviation and a Student-t 95% confidence interval
  (weighting matters when the budget truncates the last window; the t
  distribution matters at the handful-of-windows sample sizes this module
  lives at), all recorded on the
  :class:`~repro.pipeline.result.SimulationResult`.

Error-budget (adaptive) mode: a :class:`SamplingConfig` with a
``tolerance`` drops the fixed period and instead *iterates* the planning
pass -- place ``min_windows`` windows evenly over the run, probe them on a
scheme-independent machine (:meth:`SampledSimulator.probe_config`), and
keep growing the window count until the relative 95% CI half-width of the
per-window IPC falls below the tolerance (or the ``max_windows`` ceiling
is hit).  The final geometry is frozen into the :class:`SamplePlan`, so
every tracker scheme of a sweep executes the *same matched window
offsets* -- per-cell speedup deltas then difference out the shared
program-phase variance (paired sampling).  Placement depends only on
``(workload, seed, max_ops, geometry)``, never on wall clock or host, so
resume and checkpoint-farm byte-identity are preserved.

A worked example -- a 28%-detailed geometry, run end to end::

    >>> from repro.pipeline.config import CoreConfig
    >>> from repro.pipeline.sampling import SamplingConfig, simulate_sampled
    >>> cfg = SamplingConfig(period=10_000, window=2_000, warmup=500,
    ...                      cooldown=300)
    >>> cfg.detailed_per_period
    2800
    >>> f"{cfg.detailed_fraction:.0%}"
    '28%'
    >>> result = simulate_sampled("move_chain", CoreConfig(), cfg,
    ...                           max_ops=20_000)
    >>> result.instructions          # every retired micro-op is accounted
    20000
    >>> int(result.stat("sampling_windows"))
    2
    >>> result.stat("fastforwarded_instructions") > 10_000
    True

Error-budget mode instead asks for an accuracy, not a geometry::

    >>> budget = SamplingConfig(window=300, warmup=200, cooldown=100,
    ...                         tolerance=0.5, min_windows=2, max_windows=4)
    >>> adaptive = simulate_sampled("move_chain", CoreConfig(), budget,
    ...                             max_ops=8_000)
    >>> int(adaptive.stat("sampling_windows")) >= 2
    True
    >>> adaptive.stat("sampling_tolerance")
    0.5
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import ReturnAddressStack
from repro.common.history import PathHistory, ShiftHistory
from repro.common.statistics import t_critical_95, weighted_mean_std
from repro.isa.executor import Trace
from repro.isa.functional import FunctionalCore
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.result import SimulationResult
from repro.pipeline.snapshot import CoreSnapshot
from repro.telemetry.metrics import SAMPLING_STOP_REASONS, MetricsRegistry


@dataclass(frozen=True)
class SamplingConfig:
    """Geometry of the two-speed schedule.

    Every ``period`` retired micro-ops, ``warmup + window + cooldown`` of
    them are simulated in detail (only the ``window`` portion is measured)
    and the rest are fast-forwarded functionally.  ``period == warmup +
    window + cooldown`` degenerates to full detailed simulation in
    windowed form (useful for validating the snapshot machinery).
    """

    period: int = 50_000
    window: int = 2_000
    warmup: int = 500
    #: Detailed micro-ops simulated *after* the window so its last commit is
    #: measured mid-stream instead of on a pipeline drain.  Should cover the
    #: ROB plus the front-end queue of the measured machine.
    cooldown: int = 300
    #: Error-budget mode: when set, the fixed ``period`` no longer dictates
    #: placement -- the planner spreads windows evenly and grows their count
    #: until the relative Student-t 95% CI half-width of the per-window IPC
    #: sample drops to ``tolerance`` (see the module docstring).  ``None``
    #: keeps the classic fixed geometry.
    tolerance: float | None = None
    #: Window-count floor and ceiling of the error-budget search.  The floor
    #: must leave a dispersion estimate (>= 2); the ceiling bounds the
    #: detailed-simulation cost on genuinely noisy workloads.
    min_windows: int = 5
    max_windows: int = 64

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("sampling window must be >= 1 instruction")
        if self.warmup < 0 or self.cooldown < 0:
            raise ValueError("sampling warmup and cooldown must be >= 0")
        if self.period < self.warmup + self.window + self.cooldown:
            raise ValueError(
                f"sampling period ({self.period}) must cover warmup + window "
                f"+ cooldown ({self.warmup} + {self.window} + {self.cooldown})")
        if self.tolerance is not None and not 0.0 < self.tolerance < 1.0:
            raise ValueError(
                "sampling tolerance is a relative CI half-width and must lie "
                f"in (0, 1), got {self.tolerance}")
        if self.min_windows < 2:
            raise ValueError(
                "min_windows must be >= 2: a single window carries no "
                "dispersion estimate, so the stopping rule could never fire")
        if self.max_windows < self.min_windows:
            raise ValueError(
                f"max_windows ({self.max_windows}) must be >= min_windows "
                f"({self.min_windows})")

    @property
    def detailed_per_period(self) -> int:
        """Micro-ops simulated in detail per period (warmup + window + cooldown)."""
        return self.warmup + self.window + self.cooldown

    @property
    def detailed_fraction(self) -> float:
        """Fraction of retired micro-ops that go through the cycle-level core."""
        return self.detailed_per_period / self.period

    def to_dict(self) -> dict:
        """JSON-serialisable knob summary (recorded in sweep artifacts).

        The error-budget knobs appear only when enabled.  Plan cache keys,
        sampling fingerprints and results-store keys are all derived from
        this dict (or from ``repr(self)``, which follows the same rule), so
        omitting the defaults keeps every artifact recorded before the
        ``tolerance`` field existed byte-for-byte resumable.
        """
        payload = {"period": self.period, "window": self.window,
                   "warmup": self.warmup, "cooldown": self.cooldown}
        if self.tolerance is not None:
            payload["tolerance"] = self.tolerance
            payload["min_windows"] = self.min_windows
            payload["max_windows"] = self.max_windows
        return payload

    def __repr__(self) -> str:
        # The results store keys cells by a hash of this repr; stay
        # byte-identical to the pre-tolerance dataclass repr whenever the
        # error-budget knobs sit at their defaults (same omit-default rule
        # as to_dict()).  The constant last field names a switch that no
        # longer exists: the fast-forward gaps are always warmed.
        fields = (f"period={self.period!r}, window={self.window!r}, "
                  f"warmup={self.warmup!r}, cooldown={self.cooldown!r}, "
                  "warm_gaps=True")
        if self.tolerance is not None:
            fields += (f", tolerance={self.tolerance!r}, "
                       f"min_windows={self.min_windows!r}, "
                       f"max_windows={self.max_windows!r}")
        return f"SamplingConfig({fields})"


#: Window-local measurements that are meaningless summed and therefore
#: excluded from aggregation (``events_per_cycle`` is re-derived from the
#: summed cycle counts afterwards).
_WINDOW_LOCAL_STATS = ("first_commit_cycle", "events_per_cycle")


def _aggregate_stats(window_results: list[SimulationResult]) -> dict[str, float]:
    """Combine per-window statistics dictionaries into whole-run statistics.

    A left-to-right fold of per-window :class:`MetricsRegistry` views under
    each metric's declared merge policy (counters add, peaks take the max,
    constants keep the last value, rates average) -- bit-identical to the
    hand-rolled accumulation this function used to perform, which is pinned
    by the sampled-simulation determinism tests.
    """
    registry = MetricsRegistry()
    for result in window_results:
        registry.merge(MetricsRegistry.from_stats(result.stats,
                                                  skip=_WINDOW_LOCAL_STATS))
    totals = registry.as_stats()
    # Ratios with both parts summed are re-derived exactly.
    if totals.get("mem_l1d_accesses"):
        totals["mem_l1d_miss_rate"] = totals["mem_l1d_misses"] / totals["mem_l1d_accesses"]
    if totals.get("committed_loads"):
        totals["bypassed_load_fraction"] = (
            totals.get("committed_bypassed_loads", 0) / totals["committed_loads"])
    detailed_cycles = sum(result.cycles for result in window_results)
    if detailed_cycles:
        totals["events_per_cycle"] = (
            (detailed_cycles - totals.get("skipped_cycles", 0)) / detailed_cycles)
    return totals


def _resume_with_warm_state(snap: CoreSnapshot | None,
                            warm: "WarmState") -> CoreSnapshot | None:
    """Merge a plan's boundary warm image into a scheme's chained snapshot.

    The first stretch resumes from nothing (a cold core); later stretches
    resume from the scheme's own snapshot with the functionally warmed
    structures substituted in.
    """
    if snap is None:
        return None
    # The L1I contents and the MSHR / DRAM bank-busy timing deltas are
    # scheme-local (products of the scheme's own detailed windows) and
    # chain through the scheme's snapshot; the warmed data side comes from
    # the plan.  The split lives with the snapshot layout it depends on.
    return dataclasses.replace(
        snap,
        memory=MemoryHierarchy.merge_warm_snapshot(warm.memory, snap.memory),
        btb=warm.btb,
        ras=warm.ras,
        history=warm.history,
        path=warm.path,
    )


@dataclass(frozen=True)
class WarmState:
    """Image of the functionally warmed structures at a stretch boundary.

    A pure value: captured once per detailed stretch during planning and
    merged (via :func:`_resume_with_warm_state`) into every scheme's resume
    snapshot, so it must never be mutated -- every ``restore_snapshot``
    implementation copies out of its snapshot rather than aliasing it.
    """

    memory: dict
    btb: list
    ras: list
    history: int
    path: int


@dataclass(frozen=True)
class PlannedStretch:
    """One detailed stretch of a :class:`SamplePlan`.

    ``measure_ops == 0`` marks a tail stretch that halted inside its warmup:
    it is still simulated in detail (its cycles join the hybrid estimate)
    but contributes no measured window.
    """

    trace: Trace
    warm: WarmState
    warm_ops: int
    measure_ops: int


@dataclass(frozen=True)
class SamplePlan:
    """Everything scheme-independent about a sampled run of one workload.

    Produced by :meth:`SampledSimulator.plan` in a single functional pass:
    the recorded window traces, the functional-warming images at each
    stretch boundary and the fast-forward bookkeeping.  Executing the plan
    under N tracker schemes (:meth:`SampledSimulator.execute_plan`) re-uses
    all of it, which is what turns a sweep's warmup cost from
    O(schemes x warmup) into O(warmup) -- the checkpoint farm.

    ``sampling`` and ``warm_signature`` fingerprint the geometry and the
    warm-relevant machine structure; ``execute_plan`` refuses a plan built
    for a different one.
    """

    name: str
    workload: str
    max_ops: int
    retired: int
    fastforwarded: int
    halted: bool
    sampling: dict
    warm_signature: str
    stretches: tuple[PlannedStretch, ...]
    #: How planning finished: ``"fixed"`` geometry, error budget met
    #: (``"tolerance"``), window ``"ceiling"`` reached, or the workload
    #: ``"halted"`` first.  Defaulted (with the probe counters) so plans
    #: pickled before error-budget mode existed keep loading: pickle
    #: restores the instance ``__dict__`` and missing attributes resolve
    #: to these class-level defaults.
    stop_reason: str = "fixed"
    probe_rounds: int = 0
    probe_detailed_ops: int = 0


class _GapWarmer:
    """SMARTS-style functional warming of long-lived state.

    Holds its own instances of the structures whose useful history is much
    longer than a window warmup can rebuild -- the cache hierarchy (tags,
    LRU, dirty bits), the stride prefetcher, DRAM open rows, the BTB, the
    RAS and the global branch/path history registers.  During planning it
    is trained continuously over the *whole* architectural instruction
    stream: the :class:`~repro.isa.functional.FunctionalCore` blocks call
    its hooks both across the fast-forward gaps and while recording each
    detailed stretch.  Its state at a stretch boundary is therefore a pure
    function of the instruction stream -- identical for every tracker
    scheme -- which is what lets the checkpoint farm share one warmup
    across a whole sweep.

    The TAGE branch predictor and the SMB distance predictor are *not*
    warmed (their per-branch training is as expensive as detailed
    simulation in this model); their shorter-lived accuracy is rebuilt by
    each window's detailed warmup, which is the standard sampled-simulation
    compromise.
    """

    def __init__(self, config: CoreConfig) -> None:
        self.memory = MemoryHierarchy(config.memory)
        # The load and store hooks are the hierarchy's own timing-free
        # accesses, so a warmed access costs the fast-forward one call.
        self.load = self.memory.warm_load
        self.store = self.memory.warm_store
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_depth)
        self.history = ShiftHistory(max_bits=256)
        self.path = PathHistory(max_bits=32)

    # -- planning plumbing ----------------------------------------------------------

    def capture(self) -> WarmState:
        """Snapshot the warmed structures as an immutable boundary image."""
        return WarmState(
            memory=self.memory.to_snapshot(0),
            btb=self.btb.to_snapshot(),
            ras=self.ras.to_snapshot(),
            history=self.history.value,
            path=self.path.value,
        )

    # -- FunctionalCore warming hooks (load and store: see __init__) ----------------

    def cond(self, pc: int, taken: bool, target_pc: int) -> None:
        self.history.push(taken)
        self.path.push(pc)
        if taken and self.btb.lookup(pc) != target_pc:
            self.btb.update(pc, target_pc)

    def jump(self, pc: int, target_pc: int) -> None:
        self.path.push(pc)
        if self.btb.lookup(pc) != target_pc:
            self.btb.update(pc, target_pc)

    def call(self, pc: int, target_pc: int) -> None:
        self.path.push(pc)
        self.ras.push(pc + 4)
        if self.btb.lookup(pc) != target_pc:
            self.btb.update(pc, target_pc)

    def ret(self, pc: int) -> None:
        self.path.push(pc)
        self.ras.pop()


class SampledSimulator:
    """Two-speed driver: fast-forward between warm detailed windows."""

    def __init__(self, config: CoreConfig | None = None,
                 sampling: SamplingConfig | None = None) -> None:
        self.config = config or CoreConfig()
        self.sampling = sampling or SamplingConfig()

    # -- entry points -------------------------------------------------------------

    def run_workload(self, workload: str, max_ops: int = 1_000_000,
                     seed: int = 1) -> SimulationResult:
        """Build ``workload`` and run it sampled for ``max_ops`` micro-ops.

        Unlike the full-detail path, sampled simulation never materialises
        the whole dynamic trace (that is the point), so the experiment
        harness's trace cache/provider machinery is bypassed.
        """
        from repro.workloads import build_workload

        image = build_workload(workload, seed=seed)
        return self.run_image(image, workload, max_ops)

    def run_image(self, image, name: str, max_ops: int,
                  workload: str | None = None) -> SimulationResult:
        """Run a :class:`~repro.workloads.base.WorkloadImage` under sampling.

        Thin composition of the two halves of the engine: one functional
        planning pass (:meth:`plan`) followed by one detailed execution
        pass (:meth:`execute_plan`).  The checkpoint farm calls the same
        two halves with one plan shared across many scheme configurations;
        by construction both paths produce identical results.
        """
        return self.execute_plan(self.plan(image, name, max_ops,
                                           workload=workload))

    # -- planning (scheme-independent, runs once per workload) ----------------------

    def plan(self, image, name: str, max_ops: int,
             workload: str | None = None) -> SamplePlan:
        """One functional pass: fast-forward, warm, and record every stretch.

        Everything this produces depends only on the architectural
        instruction stream and the warm-relevant machine structure
        (:meth:`CoreConfig.warm_signature`), never on the tracker scheme,
        move elimination or SMB -- those only exist in the detailed
        execution pass.  (In error-budget mode the planner additionally
        probes candidate geometries on the scheme-*stripped* machine, see
        :meth:`probe_config`, which preserves this independence.)
        """
        if max_ops < 1:
            raise ValueError("max_ops must be >= 1")
        if self.sampling.tolerance is not None:
            return self._plan_adaptive(image, name, max_ops, workload)
        stretches, retired, fastforwarded, halted = self._functional_pass(
            image, name, max_ops, self.sampling.period)
        return SamplePlan(
            name=name,
            workload=workload or name,
            max_ops=max_ops,
            retired=retired,
            fastforwarded=fastforwarded,
            halted=halted,
            sampling=self.sampling_fingerprint(),
            warm_signature=self.config.warm_signature(),
            stretches=tuple(stretches),
        )

    def _functional_pass(
            self, image, name: str, max_ops: int, period: int,
    ) -> tuple[list[PlannedStretch], int, int, bool]:
        """The single functional sweep behind every plan.

        Places a ``warmup + window + cooldown`` detailed stretch every
        ``period`` retired micro-ops (the caller chooses the period: the
        configured one in fixed mode, ``max_ops // target_windows`` in
        error-budget mode) and returns ``(stretches, retired,
        fastforwarded, halted)``.
        """
        sampling = self.sampling
        warmer = _GapWarmer(self.config)
        fcore = FunctionalCore.from_image(image, warmer=warmer)
        stretches: list[PlannedStretch] = []
        measured_windows = 0
        fastforwarded = 0

        gap = period - sampling.detailed_per_period
        # Golden-ratio rotation of the detailed stretch inside the period
        # (see the module docstring): deterministic, near-uniform offsets.
        offset_stride = max(int(gap * 0.6180339887), 1) if gap > 0 else 0

        while fcore.retired < max_ops and not fcore.halted:
            remaining = max_ops - fcore.retired
            if gap > 0:
                pre_skip = (measured_windows * offset_stride) % (gap + 1)
                fastforwarded += fcore.fast_forward(min(pre_skip, remaining))
                if fcore.halted:
                    break
                remaining = max_ops - fcore.retired
            warm_ops = min(sampling.warmup, remaining)
            if remaining - warm_ops == 0:
                # Tail shorter than a warmup: nothing measurable, skip it.
                fastforwarded += fcore.fast_forward(remaining)
                break
            measure_ops = min(sampling.window, remaining - warm_ops)
            cool_ops = min(sampling.cooldown, remaining - warm_ops - measure_ops)
            # The warm image belongs to the stretch *start*: capture before
            # recording trains the warmer over the stretch's own micro-ops.
            warm_state = warmer.capture()
            trace = fcore.record(warm_ops + measure_ops + cool_ops,
                                 name=f"{name}#w{measured_windows}")
            if len(trace) <= warm_ops:  # halted inside the warmup
                if len(trace):
                    stretches.append(PlannedStretch(
                        trace=trace, warm=warm_state,
                        warm_ops=len(trace), measure_ops=0))
                break
            measure_ops = min(measure_ops, len(trace) - warm_ops)
            stretches.append(PlannedStretch(
                trace=trace, warm=warm_state,
                warm_ops=warm_ops, measure_ops=measure_ops))
            measured_windows += 1
            post_skip = gap - (pre_skip if gap > 0 else 0)
            fastforwarded += fcore.fast_forward(
                min(post_skip, max_ops - fcore.retired))

        if not measured_windows:
            if fcore.halted:
                raise ValueError(
                    f"workload {name!r} halted after {fcore.retired} micro-ops, "
                    "before the first detailed window completed")
            raise ValueError(
                f"max_ops={max_ops} leaves no room for a measured window "
                f"(sampling warmup is {sampling.warmup}); raise max_ops or "
                "shrink the warmup")
        if (not fcore.halted
                and all(stretch.measure_ops < sampling.window
                        for stretch in stretches)):
            # Only the budget boundary truncates windows (a halt is the
            # program's own doing, not a geometry fault), and only the last
            # window can hit it -- so "all truncated" means the only window
            # is a short one, and averaging it as if it were whole would
            # silently bias the IPC estimate.
            raise ValueError(
                f"max_ops={max_ops} fits no whole measured window (window is "
                f"{sampling.window}, warmup {sampling.warmup}): every window "
                "would be truncated by the budget; raise max_ops or shrink "
                "the window")
        return stretches, fcore.retired, fastforwarded, fcore.halted

    # -- error-budget planning ------------------------------------------------------

    def probe_config(self) -> CoreConfig:
        """The scheme-stripped machine error-budget planning probes on.

        The stopping decision must be identical for every tracker scheme of
        a sweep: the checkpoint farm plans once from the sweep's *base*
        configuration, and an independent per-scheme run must freeze the
        very same geometry or the bit-identity of farmed and independent
        runs (and the matched-offset pairing) would break.  Resetting the
        tracker, move elimination, SMB, lazy reclamation and tracing to
        their defaults makes every variant of a sweep probe the same
        machine; the warm-relevant structure (memory hierarchy, BTB, RAS)
        and the register-file sizing are deliberately preserved.
        """
        defaults = CoreConfig()
        return self.config.replace(
            tracker=defaults.tracker,
            move_elimination=defaults.move_elimination,
            smb=defaults.smb,
            lazy_reclaim=defaults.lazy_reclaim,
            trace=None,
        )

    def _plan_adaptive(self, image, name: str, max_ops: int,
                       workload: str | None) -> SamplePlan:
        """Sequential stopping rule: grow the window count until the CI fits.

        Each round spreads ``target`` windows evenly over the run
        (``period = max_ops // target``), re-runs the functional pass, and
        probes the recorded stretches on :meth:`probe_config`.  The search
        stops when the instruction-weighted relative Student-t 95% CI
        half-width of the per-window IPC sample is <= the tolerance, when
        the workload halts, or when more windows cannot be had (ceiling
        reached, or the run too short to place even the current target).
        Growth follows the variance projection ``n' = n * (h / tol)^2``,
        clamped to at most doubling and at least +1 per round.

        Every input is deterministic -- workload bytes, ``max_ops``, the
        geometry, the probe machine -- so re-runs, resume and any worker
        pool size freeze identical window placements.
        """
        sampling = self.sampling
        tolerance = sampling.tolerance
        probe_config = self.probe_config()
        ceiling = min(sampling.max_windows,
                      max(max_ops // sampling.detailed_per_period, 1))
        target = min(sampling.min_windows, ceiling)
        probe_rounds = 0
        probe_detailed_ops = 0
        while True:
            period = max(max_ops // target, sampling.detailed_per_period)
            stretches, retired, fastforwarded, halted = self._functional_pass(
                image, name, max_ops, period)
            probe_rounds += 1
            probe_detailed_ops += sum(
                len(stretch.trace) for stretch in stretches)
            windows, _, _, _ = _run_stretches(probe_config, stretches)
            count = len(windows)
            halfwidth = _relative_halfwidth(windows)
            if halfwidth is not None and halfwidth <= tolerance:
                stop_reason = "tolerance"
                break
            if halted:
                stop_reason = "halted"
                break
            if target >= ceiling or count < target:
                # Asking for more windows cannot help: the ceiling is
                # reached, or the run is too short to place even the
                # current target.
                stop_reason = "ceiling"
                break
            if halfwidth is None or halfwidth <= 0.0:
                projected = target * 2
            else:
                projected = math.ceil(count * (halfwidth / tolerance) ** 2)
            target = min(max(min(projected, target * 2), target + 1), ceiling)
        return SamplePlan(
            name=name,
            workload=workload or name,
            max_ops=max_ops,
            retired=retired,
            fastforwarded=fastforwarded,
            halted=halted,
            sampling=self.sampling_fingerprint(),
            warm_signature=self.config.warm_signature(),
            stretches=tuple(stretches),
            stop_reason=stop_reason,
            probe_rounds=probe_rounds,
            probe_detailed_ops=probe_detailed_ops,
        )

    # -- execution (scheme-specific, runs once per configuration) -------------------

    def execute_plan(self, plan: SamplePlan) -> SimulationResult:
        """Replay a plan's detailed stretches under this simulator's config.

        Scheme-local state -- the sharing tracker, rename maps and free
        lists, the TAGE predictor, Store Sets, SMB tables -- chains through
        the scheme's own :class:`CoreSnapshot` from stretch to stretch,
        exactly as an unshared run would; only the functionally warmed
        structures are adopted from the plan's boundary images.
        """
        if plan.sampling != self.sampling_fingerprint():
            raise ValueError(
                f"plan for workload {plan.workload!r} was built with sampling "
                f"geometry {plan.sampling}, not {self.sampling_fingerprint()}")
        if plan.warm_signature != self.config.warm_signature():
            raise ValueError(
                f"plan for workload {plan.workload!r} was built for a machine "
                "with a different warm structure (memory/BTB/RAS geometry)")
        windows, warmup_ops, cooldown_ops, detailed_cycles_extra = \
            _run_stretches(self.config, plan.stretches)
        if not windows:
            raise ValueError(
                f"plan for workload {plan.workload!r} contains no measured window")
        return self._aggregate(plan, windows, warmup_ops, cooldown_ops,
                               detailed_cycles_extra)

    def sampling_fingerprint(self) -> dict:
        """Geometry fingerprint a plan must match to be executable here.

        The constant gap-warming entry stays so that cached plans and
        stored cells fingerprinted while gap warming was a switch keep
        matching.
        """
        fingerprint = self.sampling.to_dict()
        fingerprint["warm_gaps"] = True
        return fingerprint

    # -- aggregation --------------------------------------------------------------

    def _aggregate(self, plan: SamplePlan,
                   windows: list[tuple[int, int, SimulationResult]],
                   warmup_ops: int, cooldown_ops: int,
                   detailed_cycles_extra: int) -> SimulationResult:
        sampling = self.sampling
        fastforwarded = plan.fastforwarded
        measured_ops = sum(instructions for instructions, _, _ in windows)
        detailed_cycles = (sum(result.cycles for _, _, result in windows)
                           + detailed_cycles_extra)
        window_cycles_total = sum(cycles for _, cycles, _ in windows)
        ipc_estimate = measured_ops / window_cycles_total
        window_ipcs = [instructions / cycles for instructions, cycles, _ in windows]
        weights = [float(instructions) for instructions, _, _ in windows]
        count = len(window_ipcs)
        # A truncated tail window carries fewer instructions than the rest;
        # instruction weighting keeps it from dragging the mean at full
        # strength (and matches the ratio estimator's implicit weighting).
        mean, std = weighted_mean_std(window_ipcs, weights)

        stats = _aggregate_stats([result for _, _, result in windows])
        stats.update({
            "sampling_windows": count,
            "sampling_period": sampling.period,
            "sampling_window": sampling.window,
            "sampling_warmup": sampling.warmup,
            "sampled_instructions": measured_ops,
            "sampled_window_cycles": window_cycles_total,
            "sampled_detailed_cycles": detailed_cycles,
            "warmup_instructions": warmup_ops,
            "cooldown_instructions": cooldown_ops,
            "fastforwarded_instructions": fastforwarded,
            "sampling_ipc_estimate": ipc_estimate,
            "sampling_ipc_mean": mean,
            "sampling_stop_reason_code": SAMPLING_STOP_REASONS[plan.stop_reason],
        })
        if std is not None:
            # Student-t, not the normal 1.96: at the handful-of-windows
            # sample sizes this module lives at, the normal interval is
            # badly anti-conservative.  With a single window there is no
            # dispersion estimate at all, so the std/CI keys are omitted
            # entirely rather than reported as a zero-width interval.
            ci95 = t_critical_95(count - 1) * std / math.sqrt(count)
            stats["sampling_ipc_std"] = std
            stats["sampling_ipc_ci95_low"] = mean - ci95
            stats["sampling_ipc_ci95_high"] = mean + ci95
            if mean > 0.0:
                stats["sampling_ipc_rel_ci95"] = ci95 / mean
        if sampling.tolerance is not None:
            stats["sampling_tolerance"] = sampling.tolerance
            stats["sampling_probe_rounds"] = plan.probe_rounds
            stats["sampling_probe_instructions"] = plan.probe_detailed_ops
        # Hybrid extrapolation: detailed stretches at their actual cost,
        # fast-forwarded instructions at the measured steady-state IPC.
        estimated_cycles = max(
            detailed_cycles + round(fastforwarded / ipc_estimate), 1)
        return SimulationResult(
            workload=plan.name,
            config_label=self.config.label(),
            cycles=estimated_cycles,
            instructions=plan.retired,
            stats=stats,
        )


def _run_stretches(
        config: CoreConfig, stretches: tuple[PlannedStretch, ...],
) -> tuple[list[tuple[int, int, SimulationResult]], int, int, int]:
    """Replay planned stretches on one machine and measure every window.

    Returns ``(windows, warmup_ops, cooldown_ops, detailed_cycles_extra)``
    where ``windows`` holds one ``(window instructions, window cycles,
    detailed-run result)`` triple per completed window and the extra cycles
    belong to warmup-only tail stretches.  Shared by
    :meth:`SampledSimulator.execute_plan` and the error-budget planner's
    probe pass, so stopping decisions are made with exactly the measurement
    the final execution will use.
    """
    core = Core(config)
    windows: list[tuple[int, int, SimulationResult]] = []
    warmup_ops = 0
    cooldown_ops = 0
    detailed_cycles_extra = 0

    for number, stretch in enumerate(stretches):
        trace = stretch.trace
        # Each stretch after the first resumes from the state the previous
        # one left; nothing reads the state after the last.
        snap = core.snapshot() if number else None
        resume = _resume_with_warm_state(snap, stretch.warm)
        if not stretch.measure_ops:  # halted inside the warmup
            warmup_ops += len(trace)
            tail_result = core.run(trace, resume=resume)
            detailed_cycles_extra += tail_result.cycles
            continue
        warm_ops = stretch.warm_ops
        window_end = warm_ops + stretch.measure_ops
        milestones = [commit for commit in (warm_ops, window_end) if commit]
        result = core.run(trace, resume=resume, commit_milestones=milestones)
        # With no warmup the window includes the pipeline-fill ramp; when
        # the trace ends at the window (no cooldown ops recorded) it
        # includes the end-of-run drain.
        start = core.milestone_cycles.get(warm_ops, 0) if warm_ops else 0
        end = core.milestone_cycles.get(window_end, result.cycles)
        window_cycles = max(end - start, 1)
        windows.append((stretch.measure_ops, window_cycles, result))
        warmup_ops += warm_ops
        cooldown_ops += len(trace) - warm_ops - stretch.measure_ops

    return windows, warmup_ops, cooldown_ops, detailed_cycles_extra


def _relative_halfwidth(
        windows: list[tuple[int, int, SimulationResult]]) -> float | None:
    """Instruction-weighted relative Student-t 95% CI half-width of the IPC.

    ``None`` when fewer than two windows exist or the mean is degenerate --
    the error-budget planner treats that as "budget not yet met".
    """
    if len(windows) < 2:
        return None
    ipcs = [instructions / cycles for instructions, cycles, _ in windows]
    weights = [float(instructions) for instructions, _, _ in windows]
    mean, std = weighted_mean_std(ipcs, weights)
    if std is None or mean <= 0.0:
        return None
    count = len(windows)
    return (t_critical_95(count - 1) * std / math.sqrt(count)) / mean


def window_samples(plan: SamplePlan,
                   config: CoreConfig) -> list[tuple[int, int]]:
    """Per-window ``(instructions, cycles)`` of ``plan`` replayed on ``config``.

    The measurement vehicle behind paired speedup analysis: replaying one
    frozen plan under two configurations yields window pairs at *matched
    offsets*, so per-window speedup ratios difference out the program-phase
    variance both machines share (the bench suite's ``adaptive`` tier
    quantifies the reduction).
    """
    if plan.warm_signature != config.warm_signature():
        raise ValueError(
            f"plan for workload {plan.workload!r} was built for a machine "
            "with a different warm structure (memory/BTB/RAS geometry)")
    windows, _, _, _ = _run_stretches(config, plan.stretches)
    return [(instructions, cycles) for instructions, cycles, _ in windows]


def simulate_sampled(workload: str, config: CoreConfig | None = None,
                     sampling: SamplingConfig | None = None,
                     max_ops: int = 1_000_000, seed: int = 1) -> SimulationResult:
    """One-call sampled simulation of a registered workload."""
    return SampledSimulator(config, sampling).run_workload(
        workload, max_ops=max_ops, seed=seed)
