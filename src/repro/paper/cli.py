"""The ``repro paper`` pipeline driver.

:func:`run_paper` is the one-call entry point behind ``python -m repro
paper``: expand the requested :class:`~repro.paper.figures.FigureSpec`
grids into sweep slices, run every slice through the existing harness
(worker pool, checkpoint farm for sampled slices) on top of a shared
:class:`~repro.paper.store.ResultsStore`, fold the reports into figure
data, and render ``artifacts/paper/``.

Because every completed cell is in the store, the pipeline is resumable at
cell granularity: a killed run restarts where it stopped, and a re-run
after deleting rendered artifacts re-renders them from the store without
simulating anything (``PaperRunSummary.simulated == 0``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.runner import ProgressCallback, run_sweep
from repro.paper.figures import FIGURES, FigureData
from repro.paper.render import render_figures
from repro.paper.store import ResultsStore

#: Figure keys in presentation order.
ALL_FIGURES: tuple[str, ...] = ("7", "8", "9")


@dataclass
class PaperRunSummary:
    """What one ``repro paper`` invocation did (printed by the CLI)."""

    mode: str
    figures: list[str]
    total_cells: int = 0
    simulated: int = 0
    from_store: int = 0
    failures: int = 0
    out_dir: Path = Path("artifacts/paper")
    store_path: Path = Path("artifacts/paper/store/results.jsonl")
    paths: dict[str, Path] = field(default_factory=dict)
    figure_data: list[FigureData] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"mode      : {self.mode}",
            f"figures   : {', '.join(self.figures)}",
            f"cells     : {self.total_cells} "
            f"({self.simulated} simulated, {self.from_store} from store)",
            f"artifacts : {self.out_dir}",
            f"store     : {self.store_path}",
        ]
        if self.failures:
            lines.append(f"FAILURES  : {self.failures} cell(s) -- see REPORT.md")
        return "\n".join(lines)


def run_paper(figures: tuple[str, ...] | None = None, smoke: bool = False,
              sample_period: int | None = None,
              ipc_tolerance: float | None = None,
              out_dir: str | Path = "artifacts/paper", workers: int = 1,
              seed: int = 1, timeout: float | None = None,
              progress: ProgressCallback | None = None,
              slice_progress=None,
              store_path: str | Path | None = None,
              logger=None) -> PaperRunSummary:
    """Run the figure grids (resumably) and render the paper artifact.

    ``figures`` selects a subset of :data:`ALL_FIGURES`; ``smoke`` runs the
    reduced grids (the CI target: well under two minutes end to end);
    ``sample_period`` switches every slice to two-speed sampled simulation,
    while ``ipc_tolerance`` switches them to error-budget sampling (the
    planner grows each cell's window count until the IPC 95% CI relative
    half-width is within the tolerance).
    ``slice_progress(figure, label, job_count)`` is called before each grid
    slice starts; ``progress`` is the usual per-job callback.

    Results land in ``store_path`` (default ``<out_dir>/store/results.jsonl``)
    as they complete, so interrupting and restarting never repeats finished
    cells -- and deleting rendered figures re-renders them from the store
    alone.

    ``logger`` (a :class:`~repro.telemetry.runlog.RunLogger`) times the
    sweep phases plus the figure ``render`` phase and surfaces per-cell
    failures as warning events; artifacts are identical without it.
    """
    wanted = list(dict.fromkeys(figures or ALL_FIGURES))
    unknown = [key for key in wanted if key not in FIGURES]
    if unknown:
        raise ValueError(f"unknown figure(s) {unknown}; known: "
                         f"{', '.join(ALL_FIGURES)}")
    out = Path(out_dir)
    store_file = Path(store_path) if store_path is not None \
        else out / "store" / "results.jsonl"
    summary = PaperRunSummary(mode="smoke" if smoke else "full",
                              figures=wanted, out_dir=out,
                              store_path=store_file)

    def _counting_progress(completed: int, total: int, job_result) -> None:
        if job_result.from_store:
            summary.from_store += 1
        else:
            summary.simulated += 1
        if progress is not None:
            progress(completed, total, job_result)

    with ResultsStore(store_file) as store:
        for key in wanted:
            spec = FIGURES[key]
            reports = {}
            for grid_slice in spec.slices(smoke=smoke,
                                          sample_period=sample_period,
                                          seed=seed,
                                          ipc_tolerance=ipc_tolerance):
                job_count = grid_slice.spec.job_count()
                summary.total_cells += job_count
                if slice_progress is not None:
                    slice_progress(key, grid_slice.label, job_count)
                report = run_sweep(grid_slice.spec, workers=workers,
                                   cache_dir=None, timeout=timeout,
                                   progress=_counting_progress, store=store,
                                   logger=logger)
                reports[grid_slice.label] = report
                summary.failures += len(report.failures)
            summary.figure_data.append(spec.extract(reports, smoke=smoke))

    render_phase = (logger.phase("render", figures=len(summary.figure_data))
                    if logger is not None else contextlib.nullcontext())
    with render_phase:
        summary.paths = render_figures(summary.figure_data, out,
                                       mode=summary.mode,
                                       cells=summary.total_cells)
    return summary
