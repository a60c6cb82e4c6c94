"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the quantitative half of the observability
layer: the engine bumps counters (cache hits, experiments completed, units
processed), sets gauges (wall seconds, jobs), and observes histograms
(per-experiment seconds) as it runs.  The registry dumps to schema-tagged
JSON (``--metrics-out``), renders as text tables (``repro stats``), and two
dumps diff into a regression report (cache-hit-rate drops, wall-time
growth) — the same discipline the benchmarked tools are held to, applied
to the benchmark itself.

Everything is thread-safe: gauges and histograms serialize under one
registry lock, while counter bumps are lock-free (per-thread cells, summed
at read time) and ``registry.inc("engine.cache.hit")`` skips the
instrument lock once the counter exists — cheap enough for per-unit hot
paths.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsDiff",
    "diff_dumps",
    "METRICS_SCHEMA",
    "DEFAULT_SECONDS_BUCKETS",
]

METRICS_SCHEMA = "repro/metrics@1"

#: Fixed upper bounds (seconds) for timing histograms; a final +inf bucket
#: is implicit.  Fixed buckets keep dumps diffable across runs.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """A monotonically increasing count.

    Bumps are lock-free: each thread owns a private one-element list cell
    (registered under the lock on first touch, bumped without it — the
    cell is only ever written by its owning thread, so ``cell[0] +=
    amount`` can never race).  Reads sum the cells, so :attr:`value` is
    exact whenever no increment is mid-flight and never undercounts a
    completed one.
    """

    __slots__ = ("name", "_lock", "_local", "_cells")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._local = threading.local()
        self._cells: list[list[int]] = []

    def _cell(self) -> list[int]:
        cell = [0]
        with self._lock:
            self._cells.append(cell)
        self._local.cell = cell
        return cell

    @property
    def value(self) -> int:
        """The current total across every thread's cell."""
        with self._lock:
            return sum(cell[0] for cell in self._cells)

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0); counters are monotonic."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._cell()
        cell[0] += amount


class Gauge:
    """A value that can move both ways (wall seconds, jobs, sizes)."""

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        """The last value set."""
        with self._lock:
            return self._value

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = float(value)


class Histogram:
    """Fixed-bucket histogram with count and sum (Prometheus-style)."""

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        if tuple(sorted(buckets)) != tuple(buckets) or not buckets:
            raise ConfigurationError(
                f"histogram {name!r} buckets must be non-empty and ascending"
            )
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = lock
        # One slot per finite bucket plus the +inf overflow slot.
        self._counts = [0] * (len(self.buckets) + 1)
        self._total = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one sample into its bucket."""
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total += float(value)

    @property
    def count(self) -> int:
        """How many samples were observed."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Sum of all observed samples."""
        with self._lock:
            return self._total

    @property
    def counts(self) -> list[int]:
        """Per-bucket counts; the last slot is the +inf overflow."""
        with self._lock:
            return list(self._counts)


class MetricsRegistry:
    """Named counters, gauges, and histograms with a JSON round-trip."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instrument_lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        with self._instrument_lock:
            if name not in self._counters:
                self._counters[name] = Counter(name, self._lock)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        with self._instrument_lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name, self._lock)
            return self._gauges[name]

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS
    ) -> Histogram:
        """The histogram named ``name``, created on first use."""
        with self._instrument_lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, self._lock, buckets)
            return self._histograms[name]

    # -- hot-path conveniences ----------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name``, creating it on first use.

        The lookup skips the instrument lock once the counter exists:
        ``_counters`` is only ever mutated while holding the lock, so a
        bare ``dict.get`` either sees the finished counter or misses and
        takes the locked creation path.
        """
        counter = self._counters.get(name)
        if counter is None:
            counter = self.counter(name)
        counter.inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``, creating it on first use."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record a sample into histogram ``name``, creating it on first use."""
        self.histogram(name).observe(value)

    # -- reading back -------------------------------------------------------
    def counter_values(self, prefix: str = "") -> dict[str, int]:
        """Counter totals, name-sorted, optionally filtered by prefix."""
        with self._instrument_lock:
            names = sorted(n for n in self._counters if n.startswith(prefix))
        return {name: self._counters[name].value for name in names}

    def gauge_values(self, prefix: str = "") -> dict[str, float]:
        """Gauge values, name-sorted, optionally filtered by prefix."""
        with self._instrument_lock:
            names = sorted(n for n in self._gauges if n.startswith(prefix))
        return {name: self._gauges[name].value for name in names}

    def to_dict(self) -> dict[str, Any]:
        """Serialize every instrument under the metrics schema tag."""
        with self._instrument_lock:
            histogram_names = sorted(self._histograms)
            histograms = {name: self._histograms[name] for name in histogram_names}
        return {
            "schema": METRICS_SCHEMA,
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "histograms": {
                name: {
                    "buckets": list(h.buckets),
                    "counts": h.counts,
                    "count": h.count,
                    "total": h.total,
                }
                for name, h in histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a dump, failing loudly on schema drift.

        A payload that is not a JSON object, or a histogram that lacks a
        key, raises :class:`~repro.errors.ConfigurationError` too.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a metrics dump is a JSON object, not {type(payload).__name__}"
            )
        found = payload.get("schema")
        if found != METRICS_SCHEMA:
            raise ConfigurationError(
                f"expected schema {METRICS_SCHEMA!r}, found {found!r}"
            )
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry.counter(name).inc(int(value))
        for name, value in payload.get("gauges", {}).items():
            registry.gauge(name).set(value)
        for name, entry in payload.get("histograms", {}).items():
            try:
                buckets, counts = tuple(entry["buckets"]), list(entry["counts"])
                count, total = int(entry["count"]), float(entry["total"])
            except KeyError as error:
                raise ConfigurationError(
                    f"histogram {name!r} has no {error.args[0]!r} field"
                ) from error
            histogram = registry.histogram(name, buckets)
            with histogram._lock:
                histogram._counts = counts
                histogram._count = count
                histogram._total = total
        return registry

    def merge_dict(self, payload: dict[str, Any]) -> None:
        """Fold another registry's dump into this one, in place.

        Counters add, gauges take the incoming value, histograms add
        bucket-by-bucket (bucket layouts must match).  This is how the
        process executor folds each worker task's metrics into the parent
        run's registry, so ``--metrics-out`` sees one merged picture no
        matter which executor ran the experiments.
        """
        found = payload.get("schema")
        if found != METRICS_SCHEMA:
            raise ConfigurationError(
                f"expected schema {METRICS_SCHEMA!r}, found {found!r}"
            )
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in payload.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, entry in payload.get("histograms", {}).items():
            buckets = tuple(float(b) for b in entry["buckets"])
            histogram = self.histogram(name, buckets)
            if histogram.buckets != buckets:
                raise ConfigurationError(
                    f"histogram {name!r} bucket mismatch: "
                    f"{histogram.buckets} != {buckets}"
                )
            with histogram._lock:
                for index, count in enumerate(entry["counts"]):
                    histogram._counts[index] += int(count)
                histogram._count += int(entry["count"])
                histogram._total += float(entry["total"])

    def render(self, prefix: str = "") -> str:
        """Human-readable tables, the body of ``repro stats``."""
        from repro.reporting.tables import format_table

        sections = []
        counters = self.counter_values(prefix)
        if counters:
            sections.append(
                format_table(
                    headers=["counter", "value"],
                    rows=[[name, value] for name, value in counters.items()],
                    title="Counters",
                )
            )
        gauges = self.gauge_values(prefix)
        if gauges:
            sections.append(
                format_table(
                    headers=["gauge", "value"],
                    rows=[[name, value] for name, value in gauges.items()],
                    title="Gauges",
                )
            )
        with self._instrument_lock:
            histogram_names = sorted(
                n for n in self._histograms if n.startswith(prefix)
            )
            histograms = {n: self._histograms[n] for n in histogram_names}
        if histograms:
            sections.append(
                format_table(
                    headers=["histogram", "count", "total", "mean"],
                    rows=[
                        [
                            name,
                            h.count,
                            round(h.total, 4),
                            round(h.total / h.count, 4) if h.count else float("nan"),
                        ]
                        for name, h in histograms.items()
                    ],
                    title="Histograms",
                )
            )
        if not sections:
            return "(no metrics recorded)"
        return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Diffing two dumps (the regression-tracking example builds on this)
# ---------------------------------------------------------------------------
def _cache_hit_rate(counters: dict[str, int]) -> float | None:
    hits = counters.get("engine.cache.hit", 0) + counters.get(
        "engine.cache.disk_hit", 0
    )
    total = hits + counters.get("engine.cache.miss", 0)
    return hits / total if total else None


@dataclass(frozen=True)
class MetricsDiff:
    """Comparison of two metrics dumps from the same kind of run."""

    counter_deltas: dict[str, tuple[int, int]]
    """``{name: (before, after)}`` for counters whose value changed."""
    hit_rate_before: float | None
    hit_rate_after: float | None
    wall_before: float | None
    wall_after: float | None
    regressions: tuple[str, ...]
    """Human-readable findings; empty means no regression flagged."""

    def render(self) -> str:
        """A before/after counter table plus any flagged regressions."""
        from repro.reporting.tables import format_table

        rows = [
            [name, before, after, after - before]
            for name, (before, after) in sorted(self.counter_deltas.items())
        ]
        parts = []
        if rows:
            parts.append(
                format_table(
                    headers=["counter", "before", "after", "delta"],
                    rows=rows,
                    title="Changed counters",
                )
            )
        else:
            parts.append("No counter changed between the two runs.")
        if self.regressions:
            parts.append(
                "REGRESSIONS FLAGGED:\n"
                + "\n".join(f"  - {finding}" for finding in self.regressions)
            )
        else:
            parts.append("No cache-hit-rate or wall-time regression flagged.")
        return "\n\n".join(parts)


def diff_dumps(
    before: dict[str, Any],
    after: dict[str, Any],
    hit_rate_drop: float = 0.01,
    wall_growth: float = 0.10,
) -> MetricsDiff:
    """Diff two ``--metrics-out`` dumps and flag regressions.

    A regression is a cache hit rate that dropped by more than
    ``hit_rate_drop`` (absolute) or a wall-time gauge that grew by more than
    ``wall_growth`` (relative) between ``before`` and ``after``.
    """
    for payload in (before, after):
        found = payload.get("schema")
        if found != METRICS_SCHEMA:
            raise ConfigurationError(
                f"expected schema {METRICS_SCHEMA!r}, found {found!r}"
            )
    counters_before = before.get("counters", {})
    counters_after = after.get("counters", {})
    deltas = {
        name: (counters_before.get(name, 0), counters_after.get(name, 0))
        for name in sorted(set(counters_before) | set(counters_after))
        if counters_before.get(name, 0) != counters_after.get(name, 0)
    }
    rate_before = _cache_hit_rate(counters_before)
    rate_after = _cache_hit_rate(counters_after)
    wall_before = before.get("gauges", {}).get("engine.wall_seconds")
    wall_after = after.get("gauges", {}).get("engine.wall_seconds")

    regressions = []
    if (
        rate_before is not None
        and rate_after is not None
        and rate_before - rate_after > hit_rate_drop
    ):
        regressions.append(
            f"cache hit rate dropped {rate_before:.1%} -> {rate_after:.1%}"
        )
    if (
        wall_before is not None
        and wall_after is not None
        and wall_before > 0
        and (wall_after - wall_before) / wall_before > wall_growth
    ):
        regressions.append(
            f"wall time grew {wall_before:.2f}s -> {wall_after:.2f}s "
            f"(+{(wall_after - wall_before) / wall_before:.0%}, "
            f"threshold {wall_growth:.0%})"
        )
    return MetricsDiff(
        counter_deltas=deltas,
        hit_rate_before=rate_before,
        hit_rate_after=rate_after,
        wall_before=wall_before,
        wall_after=wall_after,
        regressions=tuple(regressions),
    )
