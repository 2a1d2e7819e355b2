"""Declarative sweep specifications.

A :class:`SweepSpec` describes the paper's evaluation matrix in one value:
which sharing-tracker schemes to compare, which optimisations (move
elimination, SMB) to toggle, which sizing points to visit, and which
workloads to run them on.  :meth:`SweepSpec.expand` turns the spec into a
flat list of :class:`Job` objects -- one ``(workload, CoreConfig)`` pair
per cell of the matrix, plus one shared-nothing *baseline* job per workload
that every speedup in the report is measured against (the shape of the
paper's Figures 7--9).

Scheme names accepted in a spec are the :data:`SCHEME_PRESETS` keys; each
preset fixes the tracker sizing the paper uses for that scheme (e.g. the
32-entry / 3-bit ISRB of Section 6.3) while ``entries`` / ``counter_bits``
on the spec override it for sizing studies.  :func:`scheme_config` is the
one place that turns a scheme name into a machine, for sweeps, figures,
the command line and the bench suite alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.pipeline.config import CoreConfig
from repro.pipeline.sampling import SamplingConfig
from repro.workloads import DEFAULT_SUITE, get_workload, workload_registry

#: Paper-default tracker sizing per scheme name.  ``entries``/``counter_bits``
#: of ``None`` mean unlimited/unbounded, matching :class:`TrackerConfig`.
#: ``sizeable`` marks capacity-limited structures the ``entries`` sweep axis
#: applies to; ``counters`` marks schemes whose ``counter_bits`` width is
#: functional.  Overrides on the other schemes are pinned to the preset --
#: the tracker would ignore them, and sweeping would produce distinctly
#: named but identical runs.
SCHEME_PRESETS: dict[str, dict] = {
    "isrb": {"scheme": "isrb", "entries": 32, "counter_bits": 3,
             "sizeable": True, "counters": True},
    "unlimited": {"scheme": "unlimited", "entries": None, "counter_bits": None,
                  "sizeable": False, "counters": False},
    "refcount": {"scheme": "refcount", "entries": None, "counter_bits": 3,
                 "sizeable": False, "counters": True},
    "refcount_checkpoint": {
        "scheme": "refcount_checkpoint", "entries": None, "counter_bits": 3,
        "sizeable": False, "counters": True},
    "rda": {"scheme": "rda", "entries": 32, "counter_bits": None,
            "sizeable": True, "counters": False},
    "mit": {"scheme": "mit", "entries": 32, "counter_bits": None,
            "sizeable": True, "counters": False},
    "matrix": {"scheme": "matrix", "entries": None, "counter_bits": None,
               "sizeable": False, "counters": False},
    "battle": {"scheme": "battle", "entries": None, "counter_bits": None,
               "sizeable": False, "counters": False},
}


def known_schemes() -> list[str]:
    """Scheme names accepted by :class:`SweepSpec`, in a stable order."""
    return list(SCHEME_PRESETS)


#: :func:`scheme_config` sizing argument meaning "the scheme's preset"
#: (``None`` already means unlimited/unbounded).
_PRESET = object()


def scheme_config(scheme: str, base: CoreConfig | None = None, *,
                  entries=_PRESET, counter_bits=_PRESET,
                  move_elim: bool = True, smb: bool = True) -> CoreConfig:
    """The machine a scheme name means: preset sizing, plus ME, plus SMB.

    ``"baseline"`` is ``base`` itself (default: the no-sharing Table-1
    machine).  ``entries`` / ``counter_bits`` override the preset only for
    schemes whose structure uses them (``sizeable`` / ``counters``); on the
    others they are pinned to the preset.
    """
    base = base if base is not None else CoreConfig()
    if scheme == "baseline":
        return base
    preset = SCHEME_PRESETS[scheme]
    if entries is _PRESET or not preset["sizeable"]:
        entries = preset["entries"]
    if counter_bits is _PRESET or not preset["counters"]:
        counter_bits = preset["counter_bits"]
    config = base.with_tracker(scheme=preset["scheme"], entries=entries,
                               counter_bits=counter_bits)
    if move_elim:
        config = config.with_move_elimination()
    if smb:
        config = config.with_smb()
    return config


@dataclass(frozen=True)
class Job:
    """One runnable ``(workload, config)`` cell of an expanded sweep.

    ``sampling`` switches the job from full-detail trace replay to
    two-speed sampled simulation (``max_ops`` then bounds the *retired*
    instruction count, of which only the detailed windows go through the
    cycle-level model).
    """

    job_id: str
    workload: str
    config: CoreConfig
    max_ops: int
    seed: int
    is_baseline: bool = False
    sampling: SamplingConfig | None = None

    @property
    def variant(self) -> str:
        """Report-column key for this job's configuration."""
        return "baseline" if self.is_baseline else self.config.variant_name()

    @property
    def trace_key(self) -> tuple[str, int, int]:
        """The trace-cache key this job will replay."""
        return (self.workload, self.max_ops, self.seed)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one experiment sweep.

    Attributes
    ----------
    schemes:
        Tracker schemes to compare (keys of :data:`SCHEME_PRESETS`).
    workloads:
        Workload names; empty means the full ``DEFAULT_SUITE``.
    move_elim:
        Move-elimination settings to cross in (``(True,)`` reproduces the
        paper's headline configuration; ``(False, True)`` adds an ablation).
    smb:
        Speculative-memory-bypassing settings to cross in.
    entries / counter_bits:
        Optional sizing sweeps.  Empty tuples use each scheme's preset; a
        non-empty tuple overrides the preset for *every* scheme (the
        Section 6.3 sensitivity studies).
    max_ops / seed:
        Trace length and workload seed, shared by every job so all configs
        replay the identical dynamic trace.
    base_config:
        The machine everything is built on (Table 1 by default).
    sample_period / sample_window / sample_warmup:
        ``sample_period`` switches every job of the sweep (baselines
        included, so speedups compare like against like) to two-speed
        sampled simulation with the given period/window/warmup geometry;
        ``None`` (the default) keeps full-detail trace replay.
    sample_tolerance:
        Error-budget sampled simulation: the planner grows the window
        count per workload until the per-window IPC 95% CI relative
        half-width is <= this value (see
        :class:`~repro.pipeline.sampling.SamplingConfig`).  Setting it
        enables sampling even without ``sample_period`` (the default
        period then only sizes the fallback geometry metadata).
    """

    schemes: tuple[str, ...] = ("isrb",)
    workloads: tuple[str, ...] = ()
    move_elim: tuple[bool, ...] = (True,)
    smb: tuple[bool, ...] = (True,)
    entries: tuple[int | None, ...] = ()
    counter_bits: tuple[int | None, ...] = ()
    max_ops: int = 20_000
    seed: int = 1
    base_config: CoreConfig = field(default_factory=CoreConfig)
    sample_period: int | None = None
    sample_window: int = 2_000
    sample_warmup: int = 500
    sample_cooldown: int = 300
    sample_tolerance: float | None = None
    sample_min_windows: int = 5
    sample_max_windows: int = 64

    def __post_init__(self) -> None:
        self.sampling_config()  # validates the sampling geometry early
        if not self.schemes:
            raise ValueError("a sweep needs at least one tracker scheme")
        unknown = [name for name in self.schemes if name not in SCHEME_PRESETS]
        if unknown:
            raise ValueError(
                f"unknown scheme(s) {unknown}; known schemes: {known_schemes()}")
        # Resolver-aware lookup: family workloads (riscv:<path>, fuzz:...,
        # trace:<path>) validate through their resolver, which also checks
        # that backing files exist before any job is launched.
        bad = []
        for name in self.resolved_workloads():
            try:
                get_workload(name)
            except KeyError as exc:
                bad.append(f"{name} ({exc.args[0].split(';')[0]})"
                           if ":" in name else name)
        if bad:
            raise ValueError(
                f"unknown workload(s) {bad}; known workloads: "
                f"{sorted(workload_registry())}")
        if self.max_ops < 1:
            raise ValueError("max_ops must be >= 1")
        if not self.move_elim or not self.smb:
            raise ValueError("move_elim and smb option tuples must be non-empty")

    # -- expansion ------------------------------------------------------------------

    def sampling_config(self) -> SamplingConfig | None:
        """The two-speed sampling geometry of this sweep (``None`` = full detail).

        An error-budget sweep (``sample_tolerance`` set) is sampled even
        without an explicit period: the tolerance picks the geometry.
        """
        if self.sample_period is None and self.sample_tolerance is None:
            return None
        extra = {}
        if self.sample_tolerance is not None:
            extra = {"tolerance": self.sample_tolerance,
                     "min_windows": self.sample_min_windows,
                     "max_windows": self.sample_max_windows}
        return SamplingConfig(
            period=(self.sample_period if self.sample_period is not None
                    else SamplingConfig().period),
            window=self.sample_window,
            warmup=self.sample_warmup,
            cooldown=self.sample_cooldown,
            **extra)

    def resolved_workloads(self) -> tuple[str, ...]:
        """The workloads this sweep runs (spec order, or the default suite)."""
        return self.workloads if self.workloads else tuple(DEFAULT_SUITE)

    def variant_configs(self) -> list[CoreConfig]:
        """Every non-baseline configuration of the sweep, in expansion order.

        The ``(move_elim=False, smb=False)`` cell is skipped -- without
        either optimisation no register is ever shared, so the run would be
        cycle-identical to the baseline regardless of tracker scheme.
        """
        configs: list[CoreConfig] = []
        seen: set[str] = set()
        for scheme_name, entries, bits, use_me, use_smb in itertools.product(
                self.schemes, self.entries or (_PRESET,),
                self.counter_bits or (_PRESET,), self.move_elim, self.smb):
            if not use_me and not use_smb:
                continue
            config = scheme_config(scheme_name, self.base_config,
                                   entries=entries, counter_bits=bits,
                                   move_elim=use_me, smb=use_smb)
            name = config.variant_name()
            if name not in seen:
                seen.add(name)
                configs.append(config)
        return configs

    def expand(self) -> list[Job]:
        """Expand into the job list: baseline first, then every variant, per workload."""
        jobs: list[Job] = []
        variants = self.variant_configs()
        sampling = self.sampling_config()
        for workload in self.resolved_workloads():
            jobs.append(Job(
                job_id=f"{workload}__baseline",
                workload=workload,
                config=self.base_config,
                max_ops=self.max_ops,
                seed=self.seed,
                is_baseline=True,
                sampling=sampling,
            ))
            for config in variants:
                jobs.append(Job(
                    job_id=f"{workload}__{config.variant_name()}",
                    workload=workload,
                    config=config,
                    max_ops=self.max_ops,
                    seed=self.seed,
                    sampling=sampling,
                ))
        return jobs

    def job_count(self) -> int:
        """Number of jobs :meth:`expand` will produce."""
        return len(self.resolved_workloads()) * (1 + len(self.variant_configs()))

    def trace_count(self) -> int:
        """Number of distinct traces the sweep needs (one per workload)."""
        return len(self.resolved_workloads())

    def describe(self) -> str:
        """Multi-line human-readable summary used by ``repro sweep``."""
        variants = self.variant_configs()
        lines = [
            f"schemes   : {', '.join(self.schemes)}",
            f"workloads : {', '.join(self.resolved_workloads())}",
            f"variants  : {', '.join(c.variant_name() for c in variants)}",
            f"jobs      : {self.job_count()} "
            f"({self.trace_count()} traces x {1 + len(variants)} configs)",
            f"trace     : max_ops={self.max_ops} seed={self.seed}",
        ]
        sampling = self.sampling_config()
        if sampling is not None:
            if sampling.tolerance is not None:
                lines.append(
                    f"sampling  : error budget +/-{sampling.tolerance * 100:g}% "
                    f"IPC (window={sampling.window} warmup={sampling.warmup} "
                    f"cooldown={sampling.cooldown}, "
                    f"{sampling.min_windows}-{sampling.max_windows} windows)")
            else:
                lines.append(
                    f"sampling  : period={sampling.period} window={sampling.window} "
                    f"warmup={sampling.warmup} cooldown={sampling.cooldown} "
                    f"({sampling.detailed_fraction * 100:.1f}% detailed)")
        return "\n".join(lines)
