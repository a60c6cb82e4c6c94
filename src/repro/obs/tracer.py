"""Structured tracing: nested, thread-safe spans with Chrome-trace export.

A :class:`Tracer` records *spans* — named intervals with wall time, thread
id and parent attribution — as the engine works.  Spans nest per thread
(the parent is whatever span is open on the same thread), so spans closed
on several threads still form one clean tree per thread.  The recorded
timeline exports as `Chrome trace format`_ JSON, loadable by
``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_, and
aggregates into a per-name summary small enough to embed in a run
manifest.

Tracing is opt-in: a tracer constructed with ``enabled=False`` turns
``span()`` into a shared no-op context manager, so the instrumentation
threaded through the engine costs nearly nothing when nobody asked for a
timeline.

Closing a span builds its :class:`SpanRecord` (args coerced to JSON-safe
values and sorted) and appends it to one list under a short lock hold, so
reads copy that list and nothing is deferred to them.  See
``docs/observability.md`` ("The fast path") for what a span costs.

.. _Chrome trace format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "SpanRecord",
    "Tracer",
    "TRACE_SCHEMA",
    "spans_from_chrome_trace",
]

TRACE_SCHEMA = "repro/trace@1"


def _json_safe(value: Any) -> Any:
    """Span args must survive JSON round-trips; coerce the rest to str."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: a named interval on one thread."""

    name: str
    """Dotted span name (see the taxonomy in ``docs/observability.md``)."""
    start: float
    """Seconds since the tracer's epoch."""
    duration: float
    """Wall-clock seconds the span stayed open."""
    thread_id: int
    """``threading.get_ident()`` of the opening thread."""
    span_id: int
    """Tracer-unique id, in open order."""
    parent_id: int | None
    """Enclosing span on the same thread, if any."""
    args: tuple[tuple[str, Any], ...] = ()
    """Sorted ``(key, value)`` annotations passed to :meth:`Tracer.span`."""


class _NoopSpan:
    """The shared context manager a disabled tracer hands out.

    Stateless and therefore reentrant: one module-level instance serves
    every ``span()`` call on every disabled tracer, so the disabled path
    allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: the context manager :meth:`Tracer.span` returns.

    A plain ``__slots__`` class instead of ``@contextmanager``, which
    would add a generator to every span.
    """

    __slots__ = ("_tracer", "_name", "_args", "_span_id", "_parent_id", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> int:
        tracer = self._tracer
        local = tracer._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        self._parent_id = stack[-1] if stack else None
        span_id = next(tracer._ids)
        self._span_id = span_id
        stack.append(span_id)
        self._start_ns = time.perf_counter_ns()
        return span_id

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        tracer = self._tracer
        tracer._local.stack.pop()
        args = self._args
        record = SpanRecord(
            name=self._name,
            start=(self._start_ns - tracer._epoch_ns) * 1e-9,
            duration=(end_ns - self._start_ns) * 1e-9,
            thread_id=threading.get_ident(),
            span_id=self._span_id,
            parent_id=self._parent_id,
            args=(
                tuple(sorted((k, _json_safe(v)) for k, v in args.items()))
                if args
                else ()
            ),
        )
        with tracer._lock:
            tracer._records.append(record)
        return False


class Tracer:
    """Thread-safe span recorder with Chrome-trace-format export."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch_ns = time.perf_counter_ns()
        self.epoch_unix = time.time()
        """Wall-clock time of the tracer's epoch; lets two tracers' span
        timelines be aligned (see :meth:`ingest`)."""
        self._ids = itertools.count()
        self._records: list[SpanRecord] = []
        """Closed spans, in close order."""

    # -- recording ----------------------------------------------------------
    def span(self, name: str, **args: Any):
        """Open a span named ``name`` until the ``with`` block exits.

        The context manager yields the span id (``None`` when tracing is
        disabled).  The span is recorded on close, so exceptions still
        leave a complete timeline.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, args)

    def ingest(
        self, records: Iterable[SpanRecord], offset_seconds: float = 0.0
    ) -> None:
        """Stitch spans recorded by another tracer onto this timeline.

        ``offset_seconds`` shifts the incoming starts onto this tracer's
        epoch — pass the difference of the two tracers' ``epoch_unix``
        anchors.  Span ids are remapped so merged records never collide
        with locally recorded ones; parent links *within* the batch are
        preserved.  This is how the process executor folds worker-side
        span trees into the parent run's single exported trace.
        """
        if not self.enabled:
            return
        batch = list(records)
        with self._lock:
            mapping = {record.span_id: next(self._ids) for record in batch}
            self._records.extend(
                SpanRecord(
                    name=record.name,
                    start=record.start + offset_seconds,
                    duration=record.duration,
                    thread_id=record.thread_id,
                    span_id=mapping[record.span_id],
                    parent_id=mapping.get(record.parent_id),
                    args=record.args,
                )
                for record in batch
            )

    # -- reading back -------------------------------------------------------
    @property
    def spans(self) -> list[SpanRecord]:
        """Every closed span so far, in close order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name totals: ``{name: {"count": n, "seconds": total}}``.

        Names sort lexicographically so the summary is byte-stable across
        serial and parallel runs (modulo the timing values themselves).
        """
        totals: dict[str, dict[str, float]] = {}
        for record in self.spans:
            entry = totals.setdefault(record.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += record.duration
        return {name: totals[name] for name in sorted(totals)}

    def to_chrome_trace(self) -> dict[str, Any]:
        """The timeline as Chrome trace format (complete ``"X"`` events).

        Timestamps and durations are microseconds, per the format; the
        tracer's schema tag rides in ``otherData`` for round-trip checks.
        """
        events = []
        for record in sorted(self.spans, key=lambda r: (r.start, r.span_id)):
            args: dict[str, Any] = dict(record.args)
            args["span_id"] = record.span_id
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
            events.append(
                {
                    "name": record.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": record.start * 1e6,
                    "dur": record.duration * 1e6,
                    "pid": 1,
                    "tid": record.thread_id,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema": TRACE_SCHEMA},
        }


def spans_from_chrome_trace(payload: dict[str, Any]) -> list[SpanRecord]:
    """Rebuild :class:`SpanRecord` objects from an exported trace.

    Validates the embedded schema tag and fails loudly on drift, mirroring
    the persistence convention in :mod:`repro.persist`.
    """
    found = payload.get("otherData", {}).get("schema")
    if found != TRACE_SCHEMA:
        raise ConfigurationError(
            f"expected schema {TRACE_SCHEMA!r}, found {found!r}"
        )
    records = []
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id")
        parent_id = args.pop("parent_id", None)
        records.append(
            SpanRecord(
                name=event["name"],
                start=event["ts"] / 1e6,
                duration=event["dur"] / 1e6,
                thread_id=event["tid"],
                span_id=span_id,
                parent_id=parent_id,
                args=tuple(sorted(args.items())),
            )
        )
    return records
