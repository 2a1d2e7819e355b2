"""Unified metrics registry: one schema for every statistic the repo emits.

Before this module, each layer kept its own ad-hoc stat dictionary -- the
core's ``counters`` dict, the sampling aggregator's suffix-driven merge
rules, the sweep runner's cache accounting -- and every consumer had to
know which keys are additive event counts, which are occupancy peaks and
which are ratios that must never be summed.  :class:`MetricsRegistry`
makes that contract explicit: every metric carries a *kind* (counter,
gauge or histogram) and a *merge* policy (sum, max, last, mean), and the
registry knows how to combine two registries accordingly.

The merge policies reproduce the sampling aggregator's rules exactly
(bit-identically -- float accumulation order is preserved), so
:func:`repro.pipeline.sampling._aggregate_stats` is now a thin wrapper
over :meth:`MetricsRegistry.merge`.  :func:`classify_stat` is the single
home of the suffix conventions those rules rely on.

Exports are schema-versioned (:data:`METRICS_SCHEMA_VERSION`):
:meth:`MetricsRegistry.to_dict` round-trips through
:meth:`MetricsRegistry.from_dict`, and :meth:`MetricsRegistry.as_stats`
degrades to the flat ``dict[str, float]`` the report artifacts already
store, so nothing downstream changes shape.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: Bumped whenever the exported metric record layout changes.
METRICS_SCHEMA_VERSION = 1

#: Valid metric kinds.
KINDS = ("counter", "gauge", "histogram")

#: Valid merge policies and what they mean when combining two registries:
#: ``sum`` adds (event counters), ``max`` keeps the larger (occupancy
#: peaks), ``last`` keeps the newer (configuration constants), ``mean``
#: averages every observed sample (rates and fractions).
MERGES = ("sum", "max", "last", "mean")

#: Stat-key suffix conventions shared with the sampling aggregator: keys
#: matching these are per-window measurements that must not be summed.
MEAN_SUFFIXES = ("_rate", "_fraction", "_mean_distance")
CONSTANT_SUFFIXES = ("storage_bits", "checkpoint_bits", "_code")

#: Why an adaptive (error-budget) sampled run stopped opening windows,
#: encoded as the ``sampling_stop_reason_code`` stat: a fixed geometry never
#: iterates, ``tolerance`` means the CI half-width target was met,
#: ``ceiling`` means the window budget ran out first, and ``halted`` means
#: the program ended before the budget did.
SAMPLING_STOP_REASONS: dict[str, int] = {
    "fixed": 0, "tolerance": 1, "ceiling": 2, "halted": 3,
}


def sampling_stop_reason(code: float) -> str:
    """The stop-reason name behind a ``sampling_stop_reason_code`` stat."""
    for name, value in SAMPLING_STOP_REASONS.items():
        if value == int(code):
            return name
    return "unknown"

#: Default histogram bucket upper bounds (cycles); the last bucket is
#: implicit +inf.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def classify_stat(key: str) -> tuple[str, str]:
    """``(kind, merge)`` for one flat stat key, by the repo's conventions.

    * ``*peak_occupancy*`` -- a high-water mark: gauge, merged by ``max``;
    * ``*storage_bits`` / ``*checkpoint_bits`` -- a configuration
      constant: gauge, merged by ``last``;
    * ``*_rate`` / ``*_fraction`` / ``*_mean_distance`` -- a derived
      per-window measurement: gauge, merged by ``mean``;
    * everything else -- an additive event counter, merged by ``sum``.
    """
    if "peak_occupancy" in key:
        return "gauge", "max"
    if key.endswith(CONSTANT_SUFFIXES):
        return "gauge", "last"
    if key.endswith(MEAN_SUFFIXES):
        return "gauge", "mean"
    return "counter", "sum"


def _label_key(name: str, labels: dict | None) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass
class Metric:
    """One named metric: its declaration plus its current value(s).

    ``samples`` is only populated for ``merge == "mean"`` metrics (the
    mean is re-derived over every observed sample, exactly as the
    sampling aggregator always did) and for histograms (bucket counts).
    """

    name: str
    kind: str = "counter"
    merge: str = "sum"
    value: float = 0
    labels: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)
    buckets: tuple = ()
    bucket_counts: list = field(default_factory=list)
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}; one of {KINDS}")
        if self.merge not in MERGES:
            raise ValueError(f"unknown merge policy {self.merge!r}; one of {MERGES}")
        if self.kind == "histogram" and not self.bucket_counts:
            self.buckets = tuple(self.buckets or DEFAULT_BUCKETS)
            self.bucket_counts = [0] * (len(self.buckets) + 1)

    # -- views ----------------------------------------------------------------------

    @property
    def current(self) -> float:
        """The scalar value of this metric (mean metrics derive it)."""
        if self.merge == "mean" and self.samples:
            return sum(self.samples) / len(self.samples)
        return self.value

    def observe(self, value: float) -> None:
        """Record one histogram sample into its bucket (and the sum/count)."""
        if self.kind != "histogram":
            raise ValueError(f"{self.name} is a {self.kind}, not a histogram")
        self.value += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                break
        else:
            self.bucket_counts[-1] += 1

    @property
    def count(self) -> int:
        """Histogram sample count (0 for scalar metrics)."""
        return sum(self.bucket_counts) if self.kind == "histogram" else 0

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "kind": self.kind, "merge": self.merge,
                      "value": self.value}
        if self.labels:
            data["labels"] = dict(self.labels)
        if self.merge == "mean":
            data["samples"] = list(self.samples)
        if self.kind == "histogram":
            data["buckets"] = list(self.buckets)
            data["bucket_counts"] = list(self.bucket_counts)
        if self.help:
            data["help"] = self.help
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Metric":
        return cls(
            name=data["name"],
            kind=data.get("kind", "counter"),
            merge=data.get("merge", "sum"),
            value=data.get("value", 0),
            labels=dict(data.get("labels", {})),
            samples=list(data.get("samples", [])),
            buckets=tuple(data.get("buckets", ())),
            bucket_counts=list(data.get("bucket_counts", [])),
            help=data.get("help", ""),
        )


class MetricsRegistry:
    """A named collection of metrics with declared merge semantics.

    Insertion-ordered (so :meth:`as_stats` reproduces the key order of the
    dictionaries it absorbs) and deterministic: no wall-clock state, no
    host identity -- two registries built from the same inputs are equal,
    which is what lets registry exports live inside byte-identical report
    artifacts.

    Thread-safe to update and export: the service's sweep threads and its
    connection threads share one registry, so :meth:`inc`, :meth:`set`,
    :meth:`observe` (and the :meth:`_declare` they run) and :meth:`to_dict`
    hold a lock.  Updates come once per run or request, never per
    simulated micro-op, so the lock costs the simulator nothing.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- declaration / update -------------------------------------------------------

    def _declare(self, name: str, kind: str, merge: str, labels: dict | None,
                 help: str, buckets: tuple = ()) -> Metric:
        """The metric under ``name``/``labels``, created on first use.

        Called with :attr:`_lock` held (check-then-insert on the table).
        """
        key = _label_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Metric(name=name, kind=kind, merge=merge,
                            labels=dict(labels or {}), help=help, buckets=buckets)
            self._metrics[key] = metric
        elif metric.kind != kind or metric.merge != merge:
            raise ValueError(
                f"metric {key!r} re-declared as {kind}/{merge} "
                f"(was {metric.kind}/{metric.merge})")
        return metric

    def inc(self, name: str, amount: float = 1, labels: dict | None = None,
            help: str = "") -> None:
        """Add ``amount`` to a counter (declared on first use)."""
        with self._lock:
            self._declare(name, "counter", "sum", labels, help).value += amount

    def set(self, name: str, value: float, merge: str = "last",
            labels: dict | None = None, help: str = "") -> None:
        """Set a gauge; ``merge`` declares how cross-window combination works."""
        with self._lock:
            metric = self._declare(name, "gauge", merge, labels, help)
            if merge == "mean":
                metric.samples.append(value)
            else:
                metric.value = value

    def observe(self, name: str, value: float, labels: dict | None = None,
                buckets: tuple = (), help: str = "") -> None:
        """Record one sample into a histogram (declared on first use)."""
        with self._lock:
            self._declare(name, "histogram", "sum", labels, help,
                          buckets=buckets).observe(value)

    def put(self, key: str, value: float) -> None:
        """Absorb one flat stat under the conventions of :func:`classify_stat`."""
        kind, merge = classify_stat(key)
        if kind == "counter":
            self.inc(key, value)
        else:
            self.set(key, value, merge=merge)

    # -- access ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def get(self, key: str) -> Metric | None:
        """The :class:`Metric` under flat key ``key`` (``None`` if absent)."""
        return self._metrics.get(key)

    def value(self, key: str, default: float = 0) -> float:
        """Scalar value of one metric (mean metrics derive it)."""
        metric = self._metrics.get(key)
        return default if metric is None else metric.current

    def metrics(self) -> list[Metric]:
        """All metrics, in insertion order."""
        return list(self._metrics.values())

    # -- merge ----------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry under each metric's policy.

        Float accumulation order is "self first, then other" per metric,
        matching a left-to-right fold over windows -- the sampling
        aggregator depends on that for bit-identical totals.  Returns
        ``self`` for chaining.
        """
        for key, theirs in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                self._metrics[key] = Metric.from_dict(theirs.to_dict())
                continue
            if mine.kind != theirs.kind or mine.merge != theirs.merge:
                raise ValueError(
                    f"cannot merge metric {key!r}: {theirs.kind}/{theirs.merge} "
                    f"into {mine.kind}/{mine.merge}")
            if mine.kind == "histogram":
                if mine.buckets != theirs.buckets:
                    raise ValueError(f"histogram {key!r} bucket bounds differ")
                mine.value += theirs.value
                for index, count in enumerate(theirs.bucket_counts):
                    mine.bucket_counts[index] += count
            elif mine.merge == "sum":
                mine.value = mine.value + theirs.value
            elif mine.merge == "max":
                mine.value = max(mine.value, theirs.value)
            elif mine.merge == "last":
                mine.value = theirs.value
            else:  # mean
                mine.samples.extend(theirs.samples)
        return self

    # -- import / export ------------------------------------------------------------

    @classmethod
    def from_stats(cls, stats: dict, skip: tuple = ()) -> "MetricsRegistry":
        """Absorb a flat stat dictionary, classifying each key by convention."""
        registry = cls()
        for key, value in stats.items():
            if key in skip:
                continue
            registry.put(key, value)
        return registry

    def as_stats(self) -> dict:
        """Flatten to the ``dict[str, number]`` shape the artifacts store.

        Histograms are excluded (a flat dict cannot carry buckets; use
        :meth:`to_dict` for the full export).
        """
        return {key: metric.current for key, metric in self._metrics.items()
                if metric.kind != "histogram"}

    def to_dict(self) -> dict:
        """Schema-versioned export of every metric, in insertion order."""
        with self._lock:
            metrics = [metric.to_dict() for metric in self._metrics.values()]
        return {"schema": METRICS_SCHEMA_VERSION, "metrics": metrics}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        schema = data.get("schema")
        if schema != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported metrics schema {schema!r} "
                f"(this build reads {METRICS_SCHEMA_VERSION})")
        registry = cls()
        for record in data.get("metrics", []):
            metric = Metric.from_dict(record)
            registry._metrics[_label_key(metric.name, metric.labels)] = metric
        return registry

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metric(s))"
