"""Aggregation of sweep results into the paper's table shape.

The paper reports speedups of each optimisation/tracker configuration over
the no-sharing baseline, per workload, with a geometric-mean summary row
(Figures 7--9).  :func:`build_report` reproduces that shape from a list of
:class:`~repro.experiments.runner.JobResult` objects and
:class:`SweepReport` exports it as markdown, CSV or JSON.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.pipeline.result import SimulationResult


def failure_summary(error: str | None) -> str:
    """One-line gist of a job failure (the exception line of a traceback)."""
    if not error:
        return "unknown failure"
    lines = [line.strip() for line in error.strip().splitlines() if line.strip()]
    return lines[-1] if lines else "unknown failure"


def geomean(values) -> float:
    """Geometric mean of positive values (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    if any(value <= 0 for value in values):
        raise ValueError("geomean requires strictly positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


@dataclass
class SweepReport:
    """Speedup-over-baseline table plus the raw results behind it.

    ``speedups[workload][variant]`` is the cycle-count ratio
    ``baseline/variant`` (>1 means the variant is faster); ``ipc`` holds the
    absolute IPC of every run including the baseline; ``failures`` records
    jobs that produced no result so tables never silently drop a cell.
    """

    workloads: list[str] = field(default_factory=list)
    variants: list[str] = field(default_factory=list)
    speedups: dict[str, dict[str, float]] = field(default_factory=dict)
    ipc: dict[str, dict[str, float]] = field(default_factory=dict)
    results: list[SimulationResult] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    cache_stats: dict[str, int] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- aggregate rows -------------------------------------------------------------

    def geomean_speedups(self) -> dict[str, float]:
        """Geometric-mean speedup per variant across workloads with data."""
        out: dict[str, float] = {}
        for variant in self.variants:
            cells = [self.speedups[workload][variant]
                     for workload in self.workloads
                     if variant in self.speedups.get(workload, {})]
            if cells:
                out[variant] = geomean(cells)
        return out

    # -- exports --------------------------------------------------------------------

    def to_markdown(self) -> str:
        """Speedup table in GitHub markdown (the paper's figure shape)."""
        header = ["workload"] + self.variants
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        for workload in self.workloads:
            row = [workload]
            for variant in self.variants:
                cell = self.speedups.get(workload, {}).get(variant)
                row.append(f"{cell:.3f}" if cell is not None else "FAIL")
            lines.append("| " + " | ".join(row) + " |")
        means = self.geomean_speedups()
        row = ["**geomean**"]
        for variant in self.variants:
            cell = means.get(variant)
            row.append(f"**{cell:.3f}**" if cell is not None else "-")
        lines.append("| " + " | ".join(row) + " |")
        skip_line = self._cycle_skipping_line()
        if skip_line:
            lines.append("")
            lines.append(skip_line)
        if self.failures:
            # Structured failure footer: one line per failed cell with the
            # job identity and a one-line failure summary (the exception
            # line of the traceback), so the report alone explains which
            # cells are FAIL and why.
            lines.append("")
            lines.append(f"{len(self.failures)} job(s) failed:")
            for failure in self.failures:
                lines.append(f"- `{failure['job_id']}` "
                             f"({failure.get('workload', '?')}, "
                             f"{failure.get('variant', '?')}): "
                             f"{failure_summary(failure.get('error'))}")
        return "\n".join(lines)

    def _cycle_skipping_line(self) -> str:
        """Event-driven simulator summary appended to the markdown table.

        Purely a property of the simulation runs (deterministic, no wall
        times), so it is safe inside the byte-identical artifact: total
        event-free cycles the event-driven loop jumped over and the mean
        fraction of simulated cycles that actually held events.
        """
        skipped = sum(result.stat("skipped_cycles") for result in self.results)
        rates = [result.stat("events_per_cycle") for result in self.results
                 if "events_per_cycle" in result.stats]
        if not skipped or not rates:
            return ""
        return (f"simulator: {skipped:.0f} event-free cycles skipped; "
                f"mean events/cycle {sum(rates) / len(rates):.3f}")

    def to_csv(self) -> str:
        """Speedup table as CSV (one row per workload plus a geomean row)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["workload"] + self.variants)
        for workload in self.workloads:
            writer.writerow([workload] + [
                self.speedups.get(workload, {}).get(variant, "")
                for variant in self.variants])
        means = self.geomean_speedups()
        writer.writerow(["geomean"] + [means.get(v, "") for v in self.variants])
        return buffer.getvalue()

    def to_dict(self) -> dict:
        """Full JSON-serialisable artifact (tables plus every raw result)."""
        return {
            "meta": dict(self.meta),
            "workloads": list(self.workloads),
            "variants": list(self.variants),
            "speedups": {w: dict(v) for w, v in self.speedups.items()},
            "geomean_speedups": self.geomean_speedups(),
            "ipc": {w: dict(v) for w, v in self.ipc.items()},
            "cache_stats": dict(self.cache_stats),
            "failures": list(self.failures),
            "results": [result.to_dict() for result in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, out_dir: str | Path, stem: str = "sweep") -> dict[str, Path]:
        """Write ``<stem>.md`` / ``<stem>.csv`` / ``<stem>.json`` under ``out_dir``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "markdown": out / f"{stem}.md",
            "csv": out / f"{stem}.csv",
            "json": out / f"{stem}.json",
        }
        paths["markdown"].write_text(self.to_markdown() + "\n")
        paths["csv"].write_text(self.to_csv())
        paths["json"].write_text(self.to_json() + "\n")
        return paths

    @classmethod
    def from_dict(cls, data: dict) -> "SweepReport":
        """Rebuild a report from a saved ``<stem>.json`` artifact."""
        return cls(
            workloads=list(data.get("workloads", [])),
            variants=list(data.get("variants", [])),
            speedups={w: dict(v) for w, v in data.get("speedups", {}).items()},
            ipc={w: dict(v) for w, v in data.get("ipc", {}).items()},
            results=[SimulationResult.from_dict(r) for r in data.get("results", [])],
            failures=list(data.get("failures", [])),
            cache_stats=dict(data.get("cache_stats", {})),
            meta=dict(data.get("meta", {})),
        )


def build_report(job_results, cache_stats: dict[str, int] | None = None,
                 meta: dict | None = None) -> SweepReport:
    """Aggregate runner output into a :class:`SweepReport`.

    ``job_results`` is the list produced by
    :func:`repro.experiments.runner.run_jobs`.  Every workload must have a
    successful baseline run for its speedup row to be computed; variants
    whose baseline failed are reported in ``failures`` instead of silently
    producing nonsense ratios.
    """
    report = SweepReport(cache_stats=dict(cache_stats or {}), meta=dict(meta or {}))
    baselines: dict[str, SimulationResult] = {}
    variant_runs: list[tuple[str, str, SimulationResult]] = []

    for job_result in job_results:
        job = job_result.job
        if job.workload not in report.workloads:
            report.workloads.append(job.workload)
        if not job.is_baseline and job.variant not in report.variants:
            report.variants.append(job.variant)
        if not job_result.ok or job_result.result is None:
            report.failures.append({
                "job_id": job.job_id, "workload": job.workload,
                "variant": job.variant, "error": job_result.error or "unknown"})
            continue
        report.results.append(job_result.result)
        if job.is_baseline:
            baselines[job.workload] = job_result.result
        else:
            variant_runs.append((job.workload, job.variant, job_result.result))
        report.ipc.setdefault(job.workload, {})[job.variant] = job_result.result.ipc

    for workload, variant, result in variant_runs:
        baseline = baselines.get(workload)
        if baseline is None:
            report.failures.append({
                "job_id": f"{workload}__{variant}", "workload": workload,
                "variant": variant, "error": "baseline run missing or failed"})
            continue
        try:
            speedup = result.speedup_over(baseline)
        except ValueError as exc:
            # E.g. a hand-built job list whose baseline ran a different
            # instruction count: record it, keep the rest of the report.
            report.failures.append({
                "job_id": f"{workload}__{variant}", "workload": workload,
                "variant": variant, "error": f"not comparable to baseline: {exc}"})
            continue
        report.speedups.setdefault(workload, {})[variant] = speedup
    return report
