"""The layer ledger: self time per pipeline layer, from probe spans.

Under ``--trace 1`` the benchmark wraps the program's layer entry points
with probes before the workload runs, so one instrument measures all
three workloads the same way.  Each probe records a span around the call;
a span's *self* time is its duration minus the time of the probed spans it
encloses on the same thread, so the layers never double count (an ensemble
tool's ``analyze`` calling its members' ``analyze`` is still only
``analyze`` time) and the rows of the ledger add up to the probed time.

Layers and the calls they cover:

================  ========================================================
``decode``        ``repro.workload.columnar.decode_columns`` (columns)
``materialize``   ``repro.workload.columnar.materialize_workload``
``analyze``       ``analyze`` of every detection-tool class
``score``         ``repro.bench.campaign.score_report``
``persist``       ``repro.persist.save_cache_entry`` (artifact and result
                  files) and ``ShardJournal.append_cells`` (WAL records)
``dispatch``      ``repro.serve.app.ServeApp.dispatch`` (routing, job
                  records and the JSON answer of one HTTP request)
``result_cache``  ``repro.serve.cache.ResultCache.get`` (hot tier, else
                  the envelope-checked result file)
================  ========================================================

Everything else an operation spends — engine scheduling, folding, the
experiments' own metric math, HTTP framing and the socket — is the
ledger's explicit ``other`` row (operation time minus the layers on its
path; see ``perfbench/run.py``).  A probe whose target no longer exists
is skipped, so a layer the program stops calling reads zero rather than
breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections.abc import Callable
from typing import Any

LAYERS = (
    "decode", "materialize", "analyze", "score", "persist", "dispatch",
    "result_cache",
)

#: ``(layer, module, attribute)`` for probed module-level functions.  The
#: probe replaces the function in every ``repro`` module that bound it by
#: name, so ``from x import f`` call sites are covered too.
_FUNCTIONS = (
    ("decode", "repro.workload.columnar", "decode_columns"),
    ("materialize", "repro.workload.columnar", "materialize_workload"),
    ("score", "repro.bench.campaign", "score_report"),
    ("persist", "repro.persist", "save_cache_entry"),
)

#: ``(layer, module, class, method)`` for probed methods.
_METHODS = (
    ("persist", "repro.bench.engine.wal", "ShardJournal", "append_cells"),
    ("dispatch", "repro.serve.app", "ServeApp", "dispatch"),
    ("result_cache", "repro.serve.cache", "ResultCache", "get"),
)

#: Imported before probing, so every module that binds a probed function
#: by name already holds it when the probes go in.
_PRELOAD = ("repro.bench.engine", "repro.serve.app", "repro.serve.service")


class Ledger:
    """Per-layer self seconds, accumulated while recording.

    Thread-safe: each thread keeps its own span stack, and the totals are
    updated under a lock, so probes firing on the service's worker threads
    and on the benchmark's own thread land in one ledger.
    """

    def __init__(self) -> None:
        self.recording = False
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self._lock = threading.Lock()
        self._local = threading.local()

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span attributed to ``layer``."""
        if not self.recording:
            return fn(*args, **kwargs)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.seconds[layer] += elapsed - nested

    def snapshot(self) -> dict[str, float]:
        """A consistent copy of the per-layer self seconds."""
        with self._lock:
            return dict(self.seconds)


def _probe(ledger: Ledger, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        return ledger.call(layer, fn, args, kwargs)

    return probe


def _tool_classes() -> list[type]:
    """Every detection-tool class that defines its own ``analyze``."""
    importlib.import_module("repro.tools")
    base = importlib.import_module("repro.tools.base").VulnerabilityDetectionTool
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not base and "analyze" in cls.__dict__:
            found.append(cls)
    return found


def install(ledger: Ledger) -> Callable[[], None]:
    """Put probes on every layer entry point; returns the undo callable."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for layer, module_name, attr in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            continue
        probe = _probe(ledger, layer, original)
        for name, module in list(sys.modules.items()):
            if (
                name.split(".")[0] == "repro"
                and getattr(module, attr, None) is original
            ):
                patch(module, attr, probe)
    for layer, module_name, class_name, attr in _METHODS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        if cls is not None and attr in cls.__dict__:
            patch(cls, attr, _probe(ledger, layer, cls.__dict__[attr]))
    for cls in _tool_classes():
        patch(cls, "analyze", _probe(ledger, "analyze", cls.__dict__["analyze"]))

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo
