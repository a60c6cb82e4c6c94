"""Tests for the tracer's record lane: order, timestamps, args, threads.

Closing a span builds its :class:`~repro.obs.SpanRecord` and appends it
to one list under the tracer's lock.  These tests pin what a trace
reader relies on: spans come back in close order however reads
interleave with recording, starts are relative to the tracer's epoch,
args are JSON-safe and sorted, nesting is per thread, ingested batches
land after the spans already closed, and concurrent closes lose nothing.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

from repro.obs import Tracer


def run_workload(tracer: Tracer, rounds: int = 10) -> None:
    """A deterministic nested-span workload."""
    for index in range(rounds):
        with tracer.span("outer", round=index):
            # A non-JSON-safe arg with a deterministic str().
            with tracer.span("inner", round=index, detail=[index, "x"]):
                pass
            with tracer.span("leaf"):
                pass


class TestCloseOrder:
    def test_len_counts_closed_records(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("work"):
                pass
        assert len(tracer) == 5
        assert len(tracer.spans) == 5
        assert len(tracer) == 5  # reading consumes nothing

    def test_close_order_survives_interleaved_reads(self):
        tracer = Tracer()
        for index in range(4):
            with tracer.span("a", index=index):
                pass
        assert len(tracer.spans) == 4  # a read between closes
        for index in range(4, 9):
            with tracer.span("a", index=index):
                pass
        indices = [dict(r.args)["index"] for r in tracer.spans]
        assert indices == list(range(9))


class TestLazyConversion:
    def test_starts_monotonic_across_wraparound(self):
        tracer = Tracer()
        for _ in range(20):
            with tracer.span("tick"):
                pass
        starts = [record.start for record in tracer.spans]
        assert starts == sorted(starts)
        assert all(start >= 0 for start in starts)

    def test_args_coerced_at_close(self):
        # Coerced and sorted when the span closes: the record is final.
        tracer = Tracer()
        with tracer.span("x", weird=object(), b=2, a="one"):
            pass
        (record,) = tracer.spans
        keys = [k for k, _ in record.args]
        assert keys == sorted(keys)
        json.dumps(dict(record.args))

    def test_nesting_resolved_at_close(self):
        tracer = Tracer()
        run_workload(tracer, rounds=4)
        by_id = {record.span_id: record for record in tracer.spans}
        assert len(by_id) == 12
        for record in by_id.values():
            if record.name == "outer":
                assert record.parent_id is None
            else:
                assert by_id[record.parent_id].name == "outer"

    def test_ingest_drains_before_appending(self):
        remote = Tracer()
        with remote.span("remote.work"):
            pass
        local = Tracer()
        with local.span("local.work"):
            pass
        local.ingest(remote.spans)
        names = [record.name for record in local.spans]
        # The span closed locally stays ahead of the ingested batch.
        assert names == ["local.work", "remote.work"]


class TestConcurrentCloses:
    def test_concurrent_closes_never_drop_spans(self):
        tracer = Tracer()

        def work(worker: int) -> None:
            for index in range(50):
                with tracer.span("w", worker=worker, index=index):
                    pass

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(4)))

        spans = tracer.spans
        assert len(spans) == 200
        seen = {
            (dict(r.args)["worker"], dict(r.args)["index"]) for r in spans
        }
        assert len(seen) == 200
