"""Zero-dependency SVG charts for the paper-figure pipeline.

Pure-python renderers for the two chart forms the figures need: a grouped
bar chart (speedup per workload per scheme, Figure 7) and a line chart
(sensitivity curves, Figures 8 and 9).  The output is a standalone SVG
document string -- no matplotlib, no numpy, nothing outside the standard
library -- styled to one quiet system: thin marks, a 4px-rounded data end
anchored square at the baseline, 2px surface gaps between touching bars,
2px lines with surface-ringed markers, hairline gridlines, a legend
whenever there are two or more series, and text always in ink colors
(identity is carried by the colored mark beside it, never by coloring the
text).  Every mark carries a native ``<title>`` tooltip.

Speedup charts use the *baseline* (ratio 1.0) as the bar anchor: bars grow
up for speedups and down for slowdowns, which is the honest geometry for a
ratio-over-baseline measure (a zero-anchored bar would compress the entire
story into the top few pixels).
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

#: Categorical series colors (light mode), assigned in fixed slot order --
#: never cycled, never reordered per chart.
PALETTE: tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_SECONDARY = "#52514e"
INK_MUTED = "#898781"
GRIDLINE = "#e1e0d9"
AXIS = "#c3c2b7"
FONT = 'font-family="system-ui, -apple-system, &quot;Segoe UI&quot;, sans-serif"'


def series_color(index: int) -> str:
    """Palette slot for series ``index`` (fixed order; >8 series is a design
    error upstream -- fold or facet before rendering)."""
    return PALETTE[index % len(PALETTE)]


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Clean tick positions covering [lo, hi] (1/2/5 ladder)."""
    if hi <= lo:
        hi = lo + 1.0
    raw_step = (hi - lo) / max(target, 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    step = next(m * magnitude for m in (1, 2, 5, 10) if m * magnitude >= raw_step)
    first = math.floor(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 10))
        value += step
    return ticks


def _fmt(value: float, step: float) -> str:
    """Tick label with just enough decimals for the step size."""
    decimals = max(0, -math.floor(math.log10(step))) if step < 1 else 0
    return f"{value:.{decimals}f}"


def _text(x: float, y: float, content: str, *, size: int = 11,
          color: str = INK_SECONDARY, anchor: str = "middle",
          weight: str = "normal", transform: str = "") -> str:
    extra = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x:.1f}" y="{y:.1f}" {FONT} font-size="{size}" '
            f'font-weight="{weight}" fill="{color}" '
            f'text-anchor="{anchor}"{extra}>{escape(content)}</text>')


def _legend(series_names: list[str], x: float, y: float) -> list[str]:
    """One legend row: colored swatch + name per series, text in ink."""
    parts = []
    offset = x
    for index, name in enumerate(series_names):
        parts.append(f'<rect x="{offset:.1f}" y="{y - 8:.1f}" width="10" '
                     f'height="10" rx="2" fill="{series_color(index)}"/>')
        parts.append(_text(offset + 14, y + 1, name, anchor="start"))
        offset += 14 + 7 * len(name) + 18
    return parts


def _frame(width: int, height: int, title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="{escape(title, {chr(34): "&quot;"})}">',
        f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>',
        _text(16, 24, title, size=14, color=INK, weight="600", anchor="start"),
    ]
    return "\n".join(head + body + ["</svg>"])


def _y_scale(values: list[float], top: float, bottom: float, anchor: float):
    """Y scale and clean ticks covering the data plus the ``anchor`` line."""
    lo = min(values + [anchor])
    hi = max(values + [anchor])
    pad = max((hi - lo) * 0.12, 0.01)
    ticks = _nice_ticks(lo - pad, hi + pad)
    lo, hi = ticks[0], ticks[-1]

    def scale(value: float) -> float:
        return bottom - (value - lo) / (hi - lo) * (bottom - top)

    return scale, ticks


def _grid_and_axis(scale, ticks, left: float, right: float,
                   anchor: float | None = None) -> list[str]:
    parts = []
    step = ticks[1] - ticks[0] if len(ticks) > 1 else 1.0
    for tick in ticks:
        y = scale(tick)
        color = AXIS if anchor is not None and abs(tick - anchor) < 1e-9 \
            else GRIDLINE
        parts.append(f'<line x1="{left:.1f}" y1="{y:.1f}" x2="{right:.1f}" '
                     f'y2="{y:.1f}" stroke="{color}" stroke-width="1"/>')
        parts.append(_text(left - 6, y + 3.5, _fmt(tick, step),
                           color=INK_MUTED, anchor="end", size=10))
    return parts


def bar_chart(title: str, categories: list[str],
              series: list[tuple[str, list[float | None]]],
              *, y_label: str, anchor: float = 1.0) -> str:
    """Grouped bar chart; bars grow from the ``anchor`` value (1.0 = baseline).

    ``series`` is ``[(name, values)]`` with one value (or ``None`` for a
    missing cell) per category.  The last category is treated as the
    summary group (geomean) and gets direct value labels -- selective
    labeling, the rest is carried by the axis and tooltips.
    """
    n_series = max(len(series), 1)
    bar_w = max(5, min(24, int(180 / n_series)))
    group_w = n_series * (bar_w + 2) + 18
    left, top = 56, 58
    bottom_pad = 64
    # Wide enough for the data *and* for the title/legend rows (7.6px/char
    # approximates the 14px title; labels are never allowed to overflow).
    width = max(left + group_w * len(categories) + 20,
                32 + int(7.6 * len(title)),
                56 + sum(32 + 7 * len(name) for name, _ in series))
    height = 380
    bottom = height - bottom_pad
    flat = [v for _, values in series for v in values if v is not None]
    scale, ticks = _y_scale(flat or [anchor], top, bottom, anchor)
    body = _grid_and_axis(scale, ticks, left, width - 12, anchor)
    body.extend(_legend([name for name, _ in series], left, 42))
    body.append(_text(16, 42, y_label, color=INK_MUTED, anchor="start",
                      size=10, transform=""))
    y_anchor = scale(anchor)
    for cat_index, category in enumerate(categories):
        group_x = left + cat_index * group_w + 9
        is_summary = cat_index == len(categories) - 1
        for series_index, (name, values) in enumerate(series):
            value = values[cat_index] if cat_index < len(values) else None
            if value is None:
                continue
            x = group_x + series_index * (bar_w + 2)
            y_val = scale(value)
            h = abs(y_anchor - y_val)
            r = min(4.0, h)
            if h < 0.75:  # value == anchor: a hairline tick, not a bar
                bar = (f'<line x1="{x:.1f}" y1="{y_anchor:.1f}" '
                       f'x2="{x + bar_w:.1f}" y2="{y_anchor:.1f}" '
                       f'stroke="{series_color(series_index)}" stroke-width="1.5"/>')
            elif value >= anchor:
                bar = (f'<path d="M{x:.1f},{y_anchor:.1f} L{x:.1f},{y_val + r:.1f} '
                       f'Q{x:.1f},{y_val:.1f} {x + r:.1f},{y_val:.1f} '
                       f'L{x + bar_w - r:.1f},{y_val:.1f} '
                       f'Q{x + bar_w:.1f},{y_val:.1f} {x + bar_w:.1f},{y_val + r:.1f} '
                       f'L{x + bar_w:.1f},{y_anchor:.1f} Z" '
                       f'fill="{series_color(series_index)}">')
            else:
                bar = (f'<path d="M{x:.1f},{y_anchor:.1f} L{x:.1f},{y_val - r:.1f} '
                       f'Q{x:.1f},{y_val:.1f} {x + r:.1f},{y_val:.1f} '
                       f'L{x + bar_w - r:.1f},{y_val:.1f} '
                       f'Q{x + bar_w:.1f},{y_val:.1f} {x + bar_w:.1f},{y_val - r:.1f} '
                       f'L{x + bar_w:.1f},{y_anchor:.1f} Z" '
                       f'fill="{series_color(series_index)}">')
            tooltip = f"<title>{escape(f'{name} / {category}: {value:.3f}x')}</title>"
            if bar.endswith(">") and not bar.endswith("/>"):
                body.append(bar + tooltip + "</path>")
            else:
                body.append(bar)
            if is_summary:
                body.append(_text(x + bar_w / 2, min(y_val, y_anchor) - 5,
                                  f"{value:.2f}", size=9, color=INK))
        label_x = group_x + (group_w - 18) / 2
        body.append(_text(label_x, bottom + 14, category, size=10,
                          color=INK_MUTED if not is_summary else INK,
                          anchor="end",
                          transform=f"rotate(-35 {label_x:.1f} {bottom + 14:.1f})"))
    return _frame(width, height, title, body)


def line_chart(title: str, x_values: list[int],
               series: list[tuple[str, list[float | None]]],
               *, x_label: str, y_label: str, anchor: float = 1.0) -> str:
    """Line chart over an ordered axis (PRF size, tracker entries).

    Points are equally spaced (the axes here are doubling ladders, where
    equal spacing reads better than a linear squash); 2px lines, >=8px
    markers with a 2px surface ring, direct end labels when they do not
    collide, legend always.
    """
    left, top, right_pad = 56, 58, 96
    width = max(640, 32 + int(7.6 * len(title)),
                56 + sum(32 + 7 * len(name) for name, _ in series))
    height = 360
    bottom = height - 48
    right = width - right_pad
    flat = [v for _, values in series for v in values if v is not None]
    scale, ticks = _y_scale(flat or [anchor], top, bottom, anchor)
    body = _grid_and_axis(scale, ticks, left, right + 18, anchor)
    body.extend(_legend([name for name, _ in series], left, 42))

    def x_pos(index: int) -> float:
        if len(x_values) == 1:
            return (left + right) / 2
        return left + index / (len(x_values) - 1) * (right - left)

    for index, x_value in enumerate(x_values):
        body.append(_text(x_pos(index), bottom + 18, str(x_value), size=10,
                          color=INK_MUTED))
    body.append(_text((left + right) / 2, height - 8, x_label, size=10,
                      color=INK_MUTED))
    body.append(_text(16, 42, y_label, color=INK_MUTED, anchor="start", size=10))

    end_labels: list[tuple[float, int, str]] = []
    for series_index, (name, values) in enumerate(series):
        color = series_color(series_index)
        points = [(x_pos(i), scale(v), x_values[i], v)
                  for i, v in enumerate(values) if v is not None]
        if not points:
            continue
        if len(points) > 1:
            path = " ".join(f"{'M' if i == 0 else 'L'}{x:.1f},{y:.1f}"
                            for i, (x, y, _, _) in enumerate(points))
            body.append(f'<path d="{path}" fill="none" stroke="{color}" '
                        'stroke-width="2" stroke-linecap="round" '
                        'stroke-linejoin="round"/>')
        for x, y, xv, v in points:
            body.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4.5" fill="{color}" '
                f'stroke="{SURFACE}" stroke-width="2">'
                f"<title>{escape(f'{name} @ {xv}: {v:.3f}x')}</title></circle>")
        end_labels.append((points[-1][1], series_index, name))

    # Direct end labels, skipped when they would collide (the legend and
    # tooltips still carry identity -- never stack detached labels).
    end_labels.sort()
    last_y = -1e9
    for y, series_index, name in end_labels:
        if y - last_y < 12:
            continue
        last_y = y
        body.append(_text(right + 24, y + 3.5, name, anchor="start", size=10,
                          color=INK_SECONDARY))
        body.append(f'<circle cx="{right + 18:.1f}" cy="{y:.1f}" r="3.5" '
                    f'fill="{series_color(series_index)}"/>')
    return _frame(width, height, title, body)


#: Pipeline-segment names and palette slots for the timeline chart, in
#: lifecycle order.  Each segment spans two stage cycle marks from a
#: :meth:`repro.telemetry.trace.PipelineTracer.timeline` row.
TIMELINE_SEGMENTS: tuple[tuple[str, str, str], ...] = (
    ("frontend", "fetch", "rename"),
    ("queue", "rename", "issue"),
    ("execute", "issue", "writeback"),
    ("retire", "writeback", "commit"),
)


def timeline_chart(title: str, rows: list[dict], *, max_rows: int = 64) -> str:
    """Pipeline-timeline (Gantt) SVG for traced instruction lifecycles.

    ``rows`` is :meth:`~repro.telemetry.trace.PipelineTracer.timeline`
    output: one row per (seq, attempt) lifecycle with the cycle each stage
    was reached.  Each occupied segment -- frontend (fetch to rename),
    queue (rename to issue), execute (issue to writeback), retire
    (writeback to commit) -- renders as a colored span on the row; a
    squashed lifecycle ends in a red cap at its squash cycle.  Only the
    first ``max_rows`` rows are drawn (the caller windows the trace).
    """
    rows = [row for row in rows if row.get("fetch") is not None][:max_rows]
    if not rows:
        return _frame(420, 120, title,
                      [_text(16, 64, "no traced instructions", size=12,
                             color=INK_MUTED, anchor="start")])

    def _end_cycle(row: dict) -> int:
        marks = [row.get(stage) for stage in
                 ("fetch", "rename", "issue", "writeback", "commit")]
        marks.append(row.get("squash_cycle"))
        return max(mark for mark in marks if mark is not None)

    first_cycle = min(row["fetch"] for row in rows)
    last_cycle = max(_end_cycle(row) for row in rows)
    if last_cycle <= first_cycle:
        last_cycle = first_cycle + 1

    row_height, row_gap = 12, 4
    left, right_pad, top, bottom_pad = 132, 24, 44, 48
    width = 960
    right = width - right_pad
    height = top + len(rows) * (row_height + row_gap) + bottom_pad

    span = last_cycle - first_cycle

    def x_pos(cycle: float) -> float:
        return left + (cycle - first_cycle) / span * (right - left)

    body: list[str] = []
    # Vertical cycle gridlines and axis labels.
    ticks = _nice_ticks(first_cycle, last_cycle)
    step = ticks[1] - ticks[0] if len(ticks) > 1 else 1.0
    plot_bottom = top + len(rows) * (row_height + row_gap)
    for tick in ticks:
        if tick < first_cycle or tick > last_cycle:
            continue
        x = x_pos(tick)
        body.append(f'<line x1="{x:.1f}" y1="{top - 6:.1f}" x2="{x:.1f}" '
                    f'y2="{plot_bottom:.1f}" stroke="{GRIDLINE}" '
                    'stroke-width="1"/>')
        body.append(_text(x, plot_bottom + 14, _fmt(tick, step),
                          color=INK_MUTED, size=10))
    body.append(_text((left + right) / 2, plot_bottom + 30, "cycle",
                      color=INK_SECONDARY, size=11))

    segment_names = [name for name, _, _ in TIMELINE_SEGMENTS]
    for index, row in enumerate(rows):
        y = top + index * (row_height + row_gap)
        mid = y + row_height / 2
        label = f"{row.get('op', '')}#{row['seq']}"
        if row.get("attempt"):
            label += f".{row['attempt']}"
        body.append(_text(left - 8, mid + 3.5, label, anchor="end", size=10,
                          color=INK_SECONDARY))
        end_of_life = row.get("squash_cycle")
        for slot, (name, begin_stage, end_stage) in enumerate(TIMELINE_SEGMENTS):
            begin = row.get(begin_stage)
            if begin is None:
                continue
            end = row.get(end_stage)
            if end is None:
                end = end_of_life if end_of_life is not None else begin
            x0, x1 = x_pos(begin), x_pos(max(end, begin))
            tip = f"{label} {name}: cycle {begin}-{end}"
            body.append(
                f'<rect x="{x0:.1f}" y="{y:.1f}" '
                f'width="{max(x1 - x0, 2.0):.1f}" height="{row_height}" '
                f'rx="2" fill="{series_color(slot)}">'
                f"<title>{escape(tip)}</title></rect>")
        if row.get("squashed"):
            x = x_pos(end_of_life if end_of_life is not None else row["fetch"])
            tip = f"{label} squashed at cycle {end_of_life}"
            body.append(
                f'<rect x="{x - 1.5:.1f}" y="{y - 1:.1f}" width="3" '
                f'height="{row_height + 2}" fill="{PALETTE[7]}">'
                f"<title>{escape(tip)}</title></rect>")

    body.extend(_legend(segment_names, left, 34))
    return _frame(width, height, title, body)
