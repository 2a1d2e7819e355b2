"""Opt-in per-instruction pipeline event tracing.

:class:`PipelineTracer` records the lifecycle of every micro-op inside a
bounded sequence window -- fetch, rename, dispatch, issue, writeback,
commit and squash -- with the renaming outcome (destination / overwritten
/ source physical registers, move elimination, memory bypassing) and the
register-sharing scheme annotated on each event.  The core calls the
``on_*`` hooks behind ``if tracer is not None`` guards, so the tracing-off
path costs one local ``None`` test per stage (see DESIGN.md's
zero-overhead invariant) and results are bit-identical either way: the
tracer only ever *reads* pipeline state.

Three export formats, all derived from the same event list:

* :meth:`PipelineTracer.to_jsonl` -- one JSON event per line behind a
  schema-versioned header (:data:`TRACE_SCHEMA_VERSION`), for ad-hoc
  ``jq``/pandas analysis;
* :meth:`PipelineTracer.to_chrome_trace` -- Chrome trace-event JSON
  (``{"traceEvents": [...]}``) loadable in Perfetto / ``chrome://tracing``,
  one complete ("X") slice per occupied pipeline segment with the
  annotations in ``args``;
* :meth:`PipelineTracer.to_kanata` -- the Kanata text format understood by
  the Konata pipeline viewer (stage lanes F/D/X/P per instruction).

:meth:`PipelineTracer.timeline` feeds the SVG renderer
(:func:`repro.paper.charts.timeline_chart`) behind ``repro trace``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.telemetry.metrics import MetricsRegistry

#: Bumped whenever the JSONL event layout changes.
TRACE_SCHEMA_VERSION = 1

#: Every stage name an event may carry, in pipeline order.
STAGES = ("fetch", "rename", "dispatch", "issue", "execute", "writeback",
          "commit", "squash")

#: Fields present on every event.
EVENT_REQUIRED_FIELDS = ("seq", "attempt", "stage", "cycle")

#: Threads of the Chrome trace export; instruction ``n`` lands on lane
#: ``n % CHROME_LANES``.
CHROME_LANES = 16


@dataclass(frozen=True)
class TraceConfig:
    """Which micro-ops to trace (a bounded sequence window).

    Lives on :attr:`repro.pipeline.config.CoreConfig.trace`; ``None``
    there (the default) means no tracer is constructed at all.  ``start``
    and ``limit`` bound the traced window by *sequence number* (trace
    order), which is stable across schemes -- the same window can be
    compared under different trackers.  ``max_events`` is a hard cap on
    recorded events (re-fetches after squashes can revisit the window), so
    a pathological squash storm cannot exhaust memory.
    """

    start: int = 0
    limit: int = 256
    max_events: int = 100_000

    def __post_init__(self) -> None:
        if self.start < 0 or self.limit < 1 or self.max_events < 1:
            raise ValueError("trace window must have start >= 0, "
                             "limit >= 1 and max_events >= 1")

    @property
    def end(self) -> int:
        """One past the last traced sequence number."""
        return self.start + self.limit


class PipelineTracer:
    """Event recorder for one :meth:`~repro.pipeline.core.Core.run`.

    One instance per run, created by the core when
    ``config.trace is not None``; the core guarantees the hooks are only
    reached for micro-ops, never for wall-clock state, so the recording is
    deterministic.
    """

    def __init__(self, config: TraceConfig, workload: str = "",
                 scheme: str = "", config_label: str = "") -> None:
        self.config = config
        self.workload = workload
        self.scheme = scheme
        self.config_label = config_label
        self.events: list[dict] = []
        self.truncated = False
        self._start = config.start
        self._end = config.end
        self._max_events = config.max_events
        #: Squash generation per traced seq: a re-fetched micro-op starts a
        #: new lifecycle attempt instead of corrupting the squashed one.
        self._attempts: dict[int, int] = {}

    # -- recording hooks (called from the core's stage loops) -----------------------

    def _emit(self, seq: int, stage: str, cycle: int, **fields) -> None:
        if len(self.events) >= self._max_events:
            self.truncated = True
            return
        event = {"seq": seq, "attempt": self._attempts.get(seq, 0),
                 "stage": stage, "cycle": cycle}
        event.update(fields)
        self.events.append(event)

    def on_fetch(self, entry, cycle: int) -> None:
        seq = entry.seq
        if not (self._start <= seq < self._end):
            return
        op = entry.op
        self._emit(seq, "fetch", cycle, pc=op.pc, op=op.opcode.value)

    def on_rename(self, entry, cycle: int) -> None:
        seq = entry.seq
        if not (self._start <= seq < self._end):
            return
        self._emit(seq, "rename", cycle,
                   dest_preg=entry.dest_preg, old_preg=entry.old_preg,
                   src_pregs=list(entry.src_pregs),
                   allocated=entry.allocated, eliminated=entry.eliminated,
                   bypassed=entry.bypassed, scheme=self.scheme)
        # Rename and dispatch are one pipeline stage in this model; the
        # dispatch event carries the scheduling outcome (an eliminated move
        # or NOP completes at rename and never enters the issue queue).
        self._emit(seq, "dispatch", cycle,
                   needs_execution=entry.needs_execution,
                   waiting_sources=entry.wait_count)

    def on_issue(self, entry, cycle: int) -> None:
        seq = entry.seq
        if not (self._start <= seq < self._end):
            return
        self._emit(seq, "issue", cycle)
        self._emit(seq, "execute", cycle,
                   latency=entry.complete_cycle - cycle)

    def on_writeback(self, entry, cycle: int) -> None:
        seq = entry.seq
        if not (self._start <= seq < self._end):
            return
        self._emit(seq, "writeback", cycle, dest_preg=entry.dest_preg)

    def on_commit(self, entry, cycle: int) -> None:
        seq = entry.seq
        if not (self._start <= seq < self._end):
            return
        self._emit(seq, "commit", cycle,
                   eliminated=entry.eliminated, bypassed=entry.bypassed)

    def on_squash(self, entries, cycle: int, reason: str) -> None:
        """Record a squash for every in-window entry and open a new attempt."""
        for entry in entries:
            seq = entry.seq
            if not (self._start <= seq < self._end):
                continue
            self._emit(seq, "squash", cycle, reason=reason)
            self._attempts[seq] = self._attempts.get(seq, 0) + 1

    # -- derived views --------------------------------------------------------------

    def timeline(self) -> list[dict]:
        """Per-lifecycle rows: stage cycle marks for every (seq, attempt).

        Each row carries ``seq``, ``attempt``, ``pc``, ``op``, the cycle of
        every stage it reached (``None`` for stages it never reached --
        e.g. an eliminated move never issues) and ``squashed``.  Rows are
        ordered by first event (fetch order).
        """
        rows: dict[tuple[int, int], dict] = {}
        for event in self.events:
            key = (event["seq"], event["attempt"])
            row = rows.get(key)
            if row is None:
                row = rows[key] = {
                    "seq": event["seq"], "attempt": event["attempt"],
                    "pc": None, "op": "", "fetch": None, "rename": None,
                    "issue": None, "writeback": None, "commit": None,
                    "squashed": False, "eliminated": False, "bypassed": False,
                }
            stage = event["stage"]
            if stage == "fetch":
                row["pc"] = event.get("pc")
                row["op"] = event.get("op", "")
                row["fetch"] = event["cycle"]
            elif stage == "rename":
                row["rename"] = event["cycle"]
                row["eliminated"] = event.get("eliminated", False)
                row["bypassed"] = event.get("bypassed", False)
            elif stage == "issue":
                row["issue"] = event["cycle"]
            elif stage == "writeback":
                row["writeback"] = event["cycle"]
            elif stage == "commit":
                row["commit"] = event["cycle"]
            elif stage == "squash":
                row["squashed"] = True
                row["squash_cycle"] = event["cycle"]
        return list(rows.values())

    def summary(self) -> MetricsRegistry:
        """Registry of traced-window aggregates (deterministic, no wall times)."""
        registry = MetricsRegistry()
        registry.inc("traced_events", len(self.events),
                     help="events recorded inside the trace window")
        rows = self.timeline()
        registry.inc("traced_instructions", len(rows),
                     help="distinct (seq, attempt) lifecycles traced")
        for row in rows:
            if row["squashed"]:
                registry.inc("traced_squashes")
            if row["commit"] is not None and row["fetch"] is not None:
                registry.observe("traced_fetch_to_commit_cycles",
                                 row["commit"] - row["fetch"],
                                 help="per-instruction fetch-to-commit latency")
        return registry

    # -- exports --------------------------------------------------------------------

    def header(self) -> dict:
        """The JSONL header record (schema version + run identity)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "workload": self.workload,
            "scheme": self.scheme,
            "config": self.config_label,
            "window": {"start": self.config.start, "limit": self.config.limit},
            "events": len(self.events),
            "truncated": self.truncated,
        }

    def to_jsonl(self) -> str:
        """Header line + one JSON object per event."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(json.dumps(event, sort_keys=True) for event in self.events)
        return "\n".join(lines) + "\n"

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON (Perfetto / ``chrome://tracing``).

        Each lifecycle contributes one complete ("X") slice per occupied
        pipeline segment -- frontend (fetch->rename), queue
        (rename->issue), execute (issue->writeback), retire
        (writeback->commit) -- on one of :data:`CHROME_LANES` threads so
        concurrent instructions render side by side.  ``ts``/``dur`` are in
        simulated cycles (the viewer's "microseconds" are cycles here).
        Squashes appear as instant ("i") events.
        """
        trace_events: list[dict] = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": f"{self.workload} [{self.scheme or 'core'}]"}},
        ]
        for lane in range(CHROME_LANES):
            trace_events.append({"ph": "M", "pid": 1, "tid": lane,
                                 "name": "thread_name",
                                 "args": {"name": f"lane {lane}"}})
        segments = (("frontend", "fetch", "rename"),
                    ("queue", "rename", "issue"),
                    ("execute", "issue", "writeback"),
                    ("retire", "writeback", "commit"))
        for index, row in enumerate(self.timeline()):
            tid = index % CHROME_LANES
            label = f"{row['op']}#{row['seq']}"
            args = {"seq": row["seq"], "attempt": row["attempt"],
                    "pc": row["pc"], "eliminated": row["eliminated"],
                    "bypassed": row["bypassed"], "scheme": self.scheme}
            end_of_life = row.get("squash_cycle")
            for name, begin_stage, end_stage in segments:
                begin = row.get(begin_stage)
                if begin is None:
                    continue
                end = row.get(end_stage)
                if end is None:
                    end = end_of_life if end_of_life is not None else begin
                trace_events.append({
                    "name": f"{name} {label}", "cat": name, "ph": "X",
                    "pid": 1, "tid": tid, "ts": begin,
                    "dur": max(end - begin, 0), "args": args,
                })
            if row["squashed"]:
                trace_events.append({
                    "name": f"squash {label}", "cat": "squash", "ph": "i",
                    "pid": 1, "tid": tid, "s": "t",
                    "ts": end_of_life if end_of_life is not None else 0,
                    "args": args,
                })
        return {"traceEvents": trace_events,
                "displayTimeUnit": "ns",
                "otherData": self.header()}

    def to_kanata(self) -> str:
        """The Kanata pipeline-viewer text format (Konata loads it).

        Stage lanes: ``F`` frontend (fetch->rename), ``D`` dispatch/queue
        (rename->issue), ``X`` execute (issue->writeback), ``P``
        post-writeback (writeback->commit).  Committed lifecycles retire
        with type 0, squashed ones with type 1.
        """
        rows = self.timeline()
        if not rows:
            return "Kanata\t0004\nC=\t0\n"
        # (cycle, order, text) command stream; order keeps same-cycle
        # commands in a stable begin-before-end-before-retire sequence.
        commands: list[tuple[int, int, str]] = []
        retire_id = 0
        for uid, row in enumerate(rows):
            fetch = row["fetch"]
            if fetch is None:
                continue
            label = f"{row['op']} pc={row['pc']:#x}" if row["pc"] is not None \
                else row["op"]
            commands.append((fetch, 0, f"I\t{uid}\t{row['seq']}\t0"))
            commands.append((fetch, 1, f"L\t{uid}\t0\t{label}"))
            commands.append((fetch, 2, f"S\t{uid}\t0\tF"))
            boundaries = (("F", "D", row["rename"]),
                          ("D", "X", row["issue"]),
                          ("X", "P", row["writeback"]))
            open_stage = "F"
            for prev, nxt, cycle in boundaries:
                if cycle is None:
                    continue
                commands.append((cycle, 3, f"E\t{uid}\t0\t{prev}"))
                commands.append((cycle, 4, f"S\t{uid}\t0\t{nxt}"))
                open_stage = nxt
            if row["commit"] is not None:
                retire_id += 1
                commands.append((row["commit"], 5, f"E\t{uid}\t0\t{open_stage}"))
                commands.append((row["commit"], 6, f"R\t{uid}\t{retire_id}\t0"))
            elif row["squashed"]:
                cycle = row.get("squash_cycle", fetch)
                retire_id += 1
                commands.append((cycle, 5, f"E\t{uid}\t0\t{open_stage}"))
                commands.append((cycle, 6, f"R\t{uid}\t{retire_id}\t1"))
        commands.sort(key=lambda item: (item[0], item[1]))
        first_cycle = commands[0][0]
        lines = ["Kanata\t0004", f"C=\t{first_cycle}"]
        current = first_cycle
        for cycle, _, text in commands:
            if cycle != current:
                lines.append(f"C\t{cycle - current}")
                current = cycle
            lines.append(text)
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return (f"PipelineTracer(window=[{self._start}, {self._end}), "
                f"events={len(self.events)})")
