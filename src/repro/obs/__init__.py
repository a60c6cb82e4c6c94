"""Observability for the experiment engine: spans, metrics, profiles.

The suite asks vulnerability detection tools to expose what they did well
enough to be measured; this package holds the suite to the same standard.
Three zero-dependency pieces, bundled by :class:`Observability`:

- :class:`~repro.obs.tracer.Tracer` — nested, thread-safe spans with wall
  time, thread id and parent attribution, exported as Chrome-trace-format
  JSON (``--trace``, viewable in Perfetto) and summarized per name;
- :class:`~repro.obs.metrics.MetricsRegistry` — process-local counters,
  gauges and fixed-bucket histograms (``--metrics-out``, ``repro stats``),
  with a dump differ for run-to-run regression flagging;
- :class:`~repro.obs.profiling.Profiler` — opt-in cProfile wrapping per
  experiment (``--profile``), writing ``.pstats`` plus a hotspot table.

The engine threads one :class:`Observability` through the
:class:`~repro.bench.engine.artifacts.ArtifactStore`, the scheduler and
every :class:`~repro.bench.engine.context.RunContext`, so experiments
reach it as ``ctx.span(...)`` / ``ctx.metrics``.  Defaults are cheap:
metrics counters are always live (they are a handful of dict updates per
artifact), while tracing and profiling stay off until a run opts in.

See ``docs/observability.md`` for the span taxonomy and counter reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._lazy import lazy_exports
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsDiff,
    MetricsRegistry,
    diff_dumps,
)
from repro.obs.tracer import (
    TRACE_SCHEMA,
    SpanRecord,
    Tracer,
    spans_from_chrome_trace,
)

# Profiling pulls in cProfile and pstats, which only ``--profile`` uses.
_profiling, __getattr__, __dir__ = lazy_exports(
    __name__, {"repro.obs.profiling": ("Profiler", "ProfileReport", "HotspotRow")}
)

__all__ = [
    "Observability",
    "Tracer",
    "SpanRecord",
    "spans_from_chrome_trace",
    "TRACE_SCHEMA",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsDiff",
    "diff_dumps",
    "METRICS_SCHEMA",
    "DEFAULT_SECONDS_BUCKETS",
    *_profiling,
]


@dataclass
class Observability:
    """The bundle the engine threads through a run.

    The default construction is what every standalone ``run()`` call gets:
    live counters, disabled tracer, no profiler — cheap enough to leave on
    unconditionally.
    """

    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    profiler: Profiler | None = None

    @classmethod
    def enabled(cls, profiler: Profiler | None = None) -> "Observability":
        """An instance with tracing on (what ``--trace`` constructs)."""
        return cls(tracer=Tracer(enabled=True), profiler=profiler)
