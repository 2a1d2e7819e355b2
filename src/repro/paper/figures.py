"""Declarative figure presets for the paper's evaluation figures.

The paper's results section is three figure families: speedup over the
no-sharing baseline per tracker scheme across the workload suite
(Figure 7), sensitivity of that speedup to the physical-register-file size
(Figure 8), and sensitivity to the ISRB capacity (Figure 9).  A
:class:`FigureSpec` describes one such family declaratively and expands it
into :class:`GridSlice` objects -- each slice a plain
:class:`~repro.experiments.grid.SweepSpec` the existing harness runs --
then folds the finished :class:`~repro.experiments.report.SweepReport`
objects back into a :class:`FigureData` ready for rendering, including the
automated checks of the paper's qualitative claims.

A doctest-sized look at the shape::

    >>> from repro.paper.figures import FIGURES
    >>> sorted(FIGURES)
    ['7', '8', '9']
    >>> slices = FIGURES["7"].slices(smoke=True)
    >>> [(s.label, s.spec.job_count()) for s in slices]
    [('main', 12)]
    >>> FIGURES["8"].slices(smoke=True)[0].spec.base_config.num_int_pregs
    128
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.grid import SCHEME_PRESETS, SweepSpec, scheme_config
from repro.experiments.report import SweepReport, geomean
from repro.pipeline.config import CoreConfig
from repro.workloads import DEFAULT_SUITE

#: Trace length per cell: the full grids match the sweep default, the smoke
#: grid shrinks cells so the whole three-figure run stays under the CI
#: budget (the acceptance bar is two minutes end to end).
FULL_MAX_OPS = 20_000
SMOKE_MAX_OPS = 3_000

#: The >=1M micro-op workloads only tractable under two-speed sampling;
#: Figure 7 runs them as a separate sampled slice in full mode.
LONG_WORKLOADS: tuple[str, ...] = ("long_phase_mix", "long_stride_drift")
LONG_MAX_OPS = 1_000_000
LONG_SAMPLE_PERIOD = 50_000


@dataclass(frozen=True)
class GridSlice:
    """One independently runnable slab of a figure grid.

    ``x_value`` is the coordinate the slice contributes on a line figure's
    x axis (the PRF size of a Figure-8 slice); bar figures and single-slice
    grids leave it ``None``.
    """

    figure: str
    label: str
    spec: SweepSpec
    x_value: int | None = None


@dataclass
class Claim:
    """One automated check of a qualitative claim from the paper."""

    claim: str
    observed: str
    verdict: str  # "holds" | "diverges" | "inconclusive"

    def to_dict(self) -> dict:
        return {"claim": self.claim, "observed": self.observed,
                "verdict": self.verdict}


@dataclass
class FigureData:
    """Everything the renderer needs for one figure (chart + table + prose)."""

    figure: str
    slug: str
    title: str
    chart: str  # "bar" | "line"
    x_label: str
    y_label: str
    description: str
    paper_claim: str
    categories: list[str] = field(default_factory=list)
    x_values: list[int] = field(default_factory=list)
    series: list[tuple[str, list[float | None]]] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serialisable form (the ``figures.json`` entry)."""
        return {
            "figure": self.figure,
            "slug": self.slug,
            "title": self.title,
            "chart": self.chart,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "description": self.description,
            "paper_claim": self.paper_claim,
            "categories": list(self.categories),
            "x_values": list(self.x_values),
            "series": [{"name": name, "values": list(values)}
                       for name, values in self.series],
            "claims": [claim.to_dict() for claim in self.claims],
            "failures": list(self.failures),
            "svg": f"{self.slug}.svg",
        }


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one paper figure's evaluation grid."""

    figure: str
    slug: str
    title: str
    chart: str
    x_label: str
    y_label: str
    description: str
    paper_claim: str
    schemes: tuple[str, ...]
    smoke_schemes: tuple[str, ...]
    workloads: tuple[str, ...]
    smoke_workloads: tuple[str, ...]
    #: Figure-8 axis: per-class physical-register-file sizes; empty = fixed.
    prf_sizes: tuple[int, ...] = ()
    smoke_prf_sizes: tuple[int, ...] = ()
    #: Figure-9 axis: tracker capacities swept on sizeable schemes.
    entries_axis: tuple[int, ...] = ()
    smoke_entries_axis: tuple[int, ...] = ()
    #: Figure-7 extra: run the >=1M-op workloads as a sampled slice.
    long_slice: bool = False

    # -- expansion ------------------------------------------------------------------

    def _axis(self, full, smoke_axis, smoke):
        return smoke_axis if smoke else full

    def slices(self, smoke: bool = False, sample_period: int | None = None,
               seed: int = 1,
               ipc_tolerance: float | None = None) -> list[GridSlice]:
        """Expand into runnable grid slices (each one a ``SweepSpec``).

        ``sample_period`` switches *every* slice to two-speed sampled
        simulation (the long Figure-7 slice is always sampled);
        ``ipc_tolerance`` instead lets the error-budget planner pick the
        cheapest faithful geometry per cell; ``smoke`` swaps in the
        reduced axes.
        """
        schemes = self._axis(self.schemes, self.smoke_schemes, smoke)
        workloads = self._axis(self.workloads, self.smoke_workloads, smoke)
        max_ops = SMOKE_MAX_OPS if smoke else FULL_MAX_OPS
        sampling_kwargs = {}
        if sample_period is not None:
            sampling_kwargs["sample_period"] = sample_period
        if ipc_tolerance is not None:
            sampling_kwargs["sample_tolerance"] = ipc_tolerance
        slices: list[GridSlice] = []
        if self.prf_sizes:
            for prf in self._axis(self.prf_sizes, self.smoke_prf_sizes, smoke):
                base = CoreConfig().replace(num_int_pregs=prf, num_fp_pregs=prf)
                slices.append(GridSlice(
                    figure=self.figure, label=f"prf{prf}", x_value=prf,
                    spec=SweepSpec(schemes=schemes, workloads=workloads,
                                   max_ops=max_ops, seed=seed, base_config=base,
                                   **sampling_kwargs)))
            return slices
        entries_axis = self._axis(self.entries_axis, self.smoke_entries_axis,
                                  smoke)
        slices.append(GridSlice(
            figure=self.figure, label="main",
            spec=SweepSpec(schemes=schemes, workloads=workloads,
                           max_ops=max_ops, seed=seed, entries=entries_axis,
                           **sampling_kwargs)))
        if self.long_slice and not smoke:
            slices.append(GridSlice(
                figure=self.figure, label="long",
                spec=SweepSpec(schemes=schemes, workloads=LONG_WORKLOADS,
                               max_ops=LONG_MAX_OPS, seed=seed,
                               sample_period=sample_period or LONG_SAMPLE_PERIOD,
                               sample_tolerance=ipc_tolerance)))
        return slices

    # -- folding results back into figure data ----------------------------------------

    def extract(self, reports: dict[str, SweepReport],
                smoke: bool = False) -> FigureData:
        """Fold per-slice sweep reports into renderable figure data.

        ``reports`` maps :attr:`GridSlice.label` to the finished report of
        that slice; slices that never ran (interrupted grid) may be absent
        and simply leave holes (``None`` cells) that the renderer and the
        claim checks treat as missing data.
        """
        data = FigureData(
            figure=self.figure, slug=self.slug, title=self.title,
            chart=self.chart, x_label=self.x_label, y_label=self.y_label,
            description=self.description, paper_claim=self.paper_claim)
        for report in reports.values():
            data.failures.extend(report.failures)
        if self.figure == "7":
            self._extract_fig7(data, reports, smoke)
        elif self.figure == "8":
            self._extract_fig8(data, reports, smoke)
        else:
            self._extract_fig9(data, reports, smoke)
        return data

    def _series_schemes(self, smoke: bool) -> tuple[str, ...]:
        return self._axis(self.schemes, self.smoke_schemes, smoke)

    def _extract_fig7(self, data: FigureData, reports, smoke: bool) -> None:
        base = CoreConfig()
        schemes = self._series_schemes(smoke)
        workloads: list[str] = []
        for label in ("main", "long"):
            if label in reports:
                workloads.extend(reports[label].workloads)
        data.categories = workloads + ["geomean"]
        speedups: dict[str, dict[str, float]] = {}
        for label in ("main", "long"):
            if label in reports:
                speedups.update(reports[label].speedups)
        means: dict[str, float] = {}
        for scheme in schemes:
            variant = scheme_config(scheme, base).variant_name()
            values = [speedups.get(workload, {}).get(variant)
                      for workload in workloads]
            cells = [value for value in values if value is not None]
            mean = geomean(cells) if cells else None
            means[scheme] = mean
            data.series.append((scheme, values + [mean]))
        # Claim 1: sharing never hurts.
        complete = {s: m for s, m in means.items() if m is not None}
        if complete:
            worst = min(complete, key=complete.get)
            data.claims.append(Claim(
                claim="Register sharing never degrades performance: every "
                      "scheme's geomean speedup over the no-sharing baseline "
                      "is at least 1.0.",
                observed=f"minimum geomean speedup {complete[worst]:.3f} "
                         f"({worst})",
                verdict="holds" if complete[worst] >= 0.999 else "diverges"))
        # Claim 2: the bounded ISRB tracks the unlimited scheme closely.
        isrb = complete.get("isrb")
        unlimited = complete.get("unlimited")
        if isrb is not None and unlimited is not None:
            if unlimited <= 1.005:
                verdict, observed = "inconclusive", (
                    f"unlimited sharing itself gains only "
                    f"{(unlimited - 1) * 100:.2f}% on this grid")
            else:
                fraction = (isrb - 1) / (unlimited - 1)
                observed = (f"ISRB geomean {isrb:.3f} vs unlimited "
                            f"{unlimited:.3f} ({fraction * 100:.0f}% of the "
                            "unlimited gain)")
                verdict = "holds" if fraction >= 0.90 else "diverges"
            data.claims.append(Claim(
                claim="A 32-entry, 3-bit ISRB captures nearly all of the "
                      "benefit of unbounded sharing tracking.",
                observed=observed, verdict=verdict))

    def _extract_fig8(self, data: FigureData, reports, smoke: bool) -> None:
        prf_sizes = sorted(self._axis(self.prf_sizes, self.smoke_prf_sizes,
                                      smoke))
        schemes = self._series_schemes(smoke)
        data.x_values = list(prf_sizes)
        data.categories = [str(prf) for prf in prf_sizes]
        series_means: dict[str, list[float | None]] = {}
        for scheme in schemes:
            values: list[float | None] = []
            for prf in prf_sizes:
                report = reports.get(f"prf{prf}")
                if report is None:
                    values.append(None)
                    continue
                base = CoreConfig().replace(num_int_pregs=prf, num_fp_pregs=prf)
                variant = scheme_config(scheme, base).variant_name()
                values.append(report.geomean_speedups().get(variant))
            series_means[scheme] = values
            data.series.append((scheme, values))
        # Claim 1: the benefit grows as the PRF shrinks.
        isrb = series_means.get("isrb", [])
        known = [(prf, value) for prf, value in zip(prf_sizes, isrb)
                 if value is not None]
        if len(known) >= 2:
            smallest, largest = known[0], known[-1]
            observed = (f"ISRB geomean speedup {smallest[1]:.3f} at "
                        f"{smallest[0]} regs/class vs {largest[1]:.3f} at "
                        f"{largest[0]}")
            verdict = "holds" if smallest[1] >= largest[1] + 0.002 else "diverges"
            data.claims.append(Claim(
                claim="Sharing matters more under register pressure: the "
                      "speedup over the same-size baseline grows as the PRF "
                      "shrinks.", observed=observed, verdict=verdict))
        # Claim 2: sharing lets a smaller PRF stand in for a bigger one.
        small_prf, big_prf = prf_sizes[0], prf_sizes[-1]
        small_report = reports.get(f"prf{small_prf}")
        big_report = reports.get(f"prf{big_prf}")
        if small_report is not None and big_report is not None:
            small_base = CoreConfig().replace(num_int_pregs=small_prf,
                                              num_fp_pregs=small_prf)
            variant = scheme_config("isrb", small_base).variant_name()
            ratios = []
            for workload in big_report.workloads:
                shared = small_report.ipc.get(workload, {}).get(variant)
                unshared = big_report.ipc.get(workload, {}).get("baseline")
                if shared and unshared:
                    ratios.append(shared / unshared)
            if ratios:
                ratio = geomean(ratios)
                data.claims.append(Claim(
                    claim="With ISRB sharing, a reduced PRF sustains most of "
                          "the IPC of a much larger PRF without sharing.",
                    observed=(f"{small_prf} regs/class with ISRB reaches "
                              f"{ratio * 100:.1f}% of the {big_prf}-reg "
                              "no-sharing IPC (geomean)"),
                    verdict="holds" if ratio >= 0.95 else "diverges"))

    def _extract_fig9(self, data: FigureData, reports, smoke: bool) -> None:
        report = reports.get("main")
        entries_axis = sorted(self._axis(self.entries_axis,
                                         self.smoke_entries_axis, smoke))
        schemes = self._series_schemes(smoke)
        data.x_values = list(entries_axis)
        data.categories = [str(entries) for entries in entries_axis]
        if report is None:
            return
        base = CoreConfig()
        means = report.geomean_speedups()
        sized = [s for s in schemes if SCHEME_PRESETS[s]["sizeable"]]
        flat = [s for s in schemes if not SCHEME_PRESETS[s]["sizeable"]]
        series_means: dict[str, list[float | None]] = {}
        for scheme in sized:
            values = [means.get(scheme_config(scheme, base,
                                              entries=n).variant_name())
                      for n in entries_axis]
            series_means[scheme] = values
            data.series.append((scheme, values))
        for scheme in flat:
            value = means.get(scheme_config(scheme, base).variant_name())
            data.series.append((scheme, [value] * len(entries_axis)))
            series_means[scheme] = [value] * len(entries_axis)
        # Claim 1: capacity saturates around the paper's 32-entry point.
        isrb = dict(zip(entries_axis, series_means.get("isrb", [])))
        unlimited = (series_means.get("unlimited") or [None])[0]
        isrb32 = isrb.get(32)
        if isrb32 is not None and unlimited is not None:
            if unlimited <= 1.005:
                observed = (f"unlimited tracking itself gains only "
                            f"{(unlimited - 1) * 100:.2f}% on this grid")
                verdict = "inconclusive"
            else:
                fraction = (isrb32 - 1) / (unlimited - 1)
                observed = (f"32-entry ISRB geomean {isrb32:.3f} vs unlimited "
                            f"{unlimited:.3f} ({fraction * 100:.0f}% of the "
                            "unlimited gain)")
                verdict = "holds" if fraction >= 0.90 else "diverges"
            data.claims.append(Claim(
                claim="ISRB capacity saturates: 32 entries capture nearly "
                      "all of the benefit of unlimited tracking.",
                observed=observed, verdict=verdict))
        # Claim 2: below saturation, capacity still buys performance.
        known = [(n, v) for n, v in sorted(isrb.items()) if v is not None]
        if len(known) >= 2:
            first, last = known[0], known[-1]
            data.claims.append(Claim(
                claim="Below saturation, more ISRB entries buy more "
                      "performance.",
                observed=(f"ISRB geomean speedup {first[1]:.3f} at "
                          f"{first[0]} entries vs {last[1]:.3f} at {last[0]}"),
                verdict="holds" if last[1] >= first[1] - 0.002 else "diverges"))


#: The three figure families of the paper's results section, keyed by the
#: figure number ``repro paper --figure`` accepts.
FIGURES: dict[str, FigureSpec] = {
    "7": FigureSpec(
        figure="7", slug="figure7", chart="bar",
        title="Speedup over the no-sharing baseline, per tracker scheme",
        x_label="workload", y_label="speedup over baseline (x)",
        description=(
            "Every tracker scheme runs with move elimination and speculative "
            "memory bypassing enabled on the Table-1 machine; each bar is "
            "that scheme's cycle-count speedup over the no-sharing baseline "
            "on one workload, with a geometric-mean group on the right. The "
            "long workloads run under two-speed sampling in full mode."),
        paper_claim=(
            "Physical register sharing turns move elimination and SMB into "
            "consistent wins, and the bounded ISRB matches unbounded "
            "tracking."),
        schemes=("isrb", "refcount_checkpoint", "rda", "mit", "unlimited"),
        smoke_schemes=("isrb", "refcount_checkpoint", "unlimited"),
        workloads=tuple(w for w in DEFAULT_SUITE if w not in LONG_WORKLOADS),
        smoke_workloads=("move_chain", "spill_reload", "branchy"),
        long_slice=True,
    ),
    "8": FigureSpec(
        figure="8", slug="figure8", chart="line",
        title="Sensitivity to physical-register-file size",
        x_label="physical registers per class", y_label="geomean speedup (x)",
        description=(
            "The same machine with the per-class physical register file "
            "resized; each point is the geomean speedup of a scheme over the "
            "no-sharing baseline *at that PRF size*, so the curve shows how "
            "much sharing matters as register pressure rises."),
        paper_claim=(
            "Sharing is most valuable when registers are scarce: the smaller "
            "the PRF, the larger the speedup, letting a shared smaller PRF "
            "stand in for a bigger conventional one."),
        schemes=("isrb", "unlimited"),
        smoke_schemes=("isrb", "unlimited"),
        workloads=("move_chain", "spill_reload", "partial_moves", "stack_args",
                   "deep_recursion", "fp_moves", "fp_recurrence", "hash_update"),
        smoke_workloads=("move_chain", "spill_reload", "fp_moves"),
        prf_sizes=(96, 128, 192, 256),
        smoke_prf_sizes=(128, 256),
    ),
    "9": FigureSpec(
        figure="9", slug="figure9", chart="line",
        title="Sensitivity to tracker capacity (ISRB entries)",
        x_label="tracker entries", y_label="geomean speedup (x)",
        description=(
            "Capacity-limited trackers swept across their entry count on the "
            "Table-1 machine, with the unlimited tracker as the flat upper "
            "reference; each point is the geomean speedup over the "
            "no-sharing baseline."),
        paper_claim=(
            "A 32-entry ISRB is enough: performance saturates well below "
            "unbounded capacity, which is what makes the scheme cheap."),
        schemes=("isrb", "rda", "mit", "unlimited"),
        smoke_schemes=("isrb", "unlimited"),
        workloads=("move_chain", "partial_moves", "spill_reload", "fp_moves",
                   "load_load", "stream_reduce", "hash_update", "list_traverse"),
        smoke_workloads=("move_chain", "partial_moves", "spill_reload"),
        entries_axis=(8, 16, 32, 64),
        smoke_entries_axis=(8, 32),
    ),
}
