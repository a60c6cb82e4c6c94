"""One supervised task loop under both engine rails.

:func:`~repro.bench.engine.scheduler.run_experiments` and
:func:`~repro.bench.engine.shards.run_sharded_campaign` describe their
work as keyed tasks — experiments with in-set dependency edges, shards
with none — and run them through a :class:`TaskRun` subclass that
supplies only what differs per kind: the task body and its process-side
call, the success and failure records, the counter prefix and the fault
ids.  The loop itself — retries, keep-going with cascade skips,
drain-and-raise, worker-crash supervision (pool rebuild, solo re-probes,
quarantine), the per-attempt deadline behind ``timeout``, and graceful
drain — lives here, once.

There are two executors, and :func:`check_policy` derives which one a
run gets.  ``"thread"`` runs every task inline on the calling thread,
one at a time; ``"process"`` runs them in a cached process pool, whose
workers keep one persistent artifact store per ``(seed, cache_dir)``
that every task kind shares (:func:`in_worker`).  Running tasks side by
side (``jobs > 1``) or bounding them (``timeout``) takes processes: they
use every core, and a hung one can be stopped.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from typing import Any

from repro.bench.engine.artifacts import ArtifactStore
from repro.bench.engine.faults import PARENT_FAULT_ID, FaultPlan, FaultSpec
from repro.bench.engine.manifest import FailureRecord
from repro.bench.engine.supervise import ShutdownSignal
from repro.bench.engine.transport import cached_process_pool, evict_process_pool
from repro.errors import (
    ConfigurationError,
    EngineError,
    ExperimentFailedError,
    ExperimentTimeoutError,
    WorkerCrashError,
)
from repro.obs import Observability, SpanRecord, Tracer

__all__ = [
    "EXECUTORS",
    "QUARANTINE_AFTER",
    "MAX_POOL_REBUILDS",
    "TaskRun",
    "WorkerOutcome",
    "check_policy",
    "in_worker",
    "worker_cached",
]

#: Valid ``executor=`` values (and ``--executor`` choices) of both rails.
EXECUTORS = ("thread", "process")

#: A task that kills this many workers is quarantined as poisonous.
QUARANTINE_AFTER = 3

#: A run aborts after this many process-pool rebuilds.
MAX_POOL_REBUILDS = 5


def check_policy(
    *,
    retries: int = 0,
    timeout: float | None = None,
    jobs: int = 1,
    executor: str | None = None,
    faults: FaultPlan | None = None,
) -> str:
    """Reject an invalid run policy before any work starts; return the
    executor that runs it.

    An unset ``executor`` resolves to ``"process"`` when ``jobs > 1`` or
    a ``timeout`` is set, and to ``"thread"`` (inline) otherwise; an
    explicit ``"thread"`` with either setting is rejected.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if executor is not None and executor not in EXECUTORS:
        raise ConfigurationError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    needs_processes = jobs > 1 or timeout is not None
    if executor is None:
        executor = "process" if needs_processes else "thread"
    elif executor == "thread" and needs_processes:
        wants = f"jobs={jobs}" if jobs > 1 else f"timeout={timeout}"
        raise ConfigurationError(
            f"{wants} requires executor='process' (or an unset executor): "
            "executor='thread' runs tasks inline, one at a time"
        )
    if faults is not None and executor != "process":
        for spec in faults.faults:
            if spec.kill_attempts and spec.experiment_id != PARENT_FAULT_ID:
                raise ConfigurationError(
                    "kill faults require executor='process': a task run "
                    "inline would take the parent process with it"
                )
    return executor


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------
#: Worker-process state shared by every task kind: one persistent store
#: per ``(seed, cache_dir)`` — a worker is reused across tasks and, since
#: pools are cached, across whole runs, so a later task finds what an
#: earlier one computed.
_WORKER_STORES: dict[tuple[int, str | None], ArtifactStore] = {}

#: Bound on each per-worker cache; runs cycle through few distinct keys,
#: so a tiny FIFO keeps reuse while bounding a long session.
_WORKER_CACHE_SIZE = 4


def worker_cached(cache: dict, key: Hashable, build: Callable[[], Any]) -> Any:
    """``cache[key]``, built on first use; the oldest entries age out."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
        while len(cache) > _WORKER_CACHE_SIZE:
            cache.pop(next(iter(cache)))
    return value


@dataclass(frozen=True)
class WorkerOutcome:
    """Everything one process-executor task sends back to the parent."""

    value: Any
    """The task kind's own result (what its local body would return)."""
    metrics_dump: dict[str, Any]
    """This task's :meth:`~repro.obs.MetricsRegistry.to_dict` dump."""
    spans: tuple[SpanRecord, ...]
    """This task's closed spans (empty unless tracing was requested)."""
    trace_epoch_unix: float
    """Wall-clock anchor of the worker tracer's epoch, for stitching."""


def in_worker(
    body: Callable[..., Any],
    seed: int,
    cache_dir: str | None,
    trace: bool,
    *args: Any,
) -> WorkerOutcome:
    """Process-side call of every task: ``body(store, *args)``.

    ``store`` is this worker's persistent store for ``(seed, cache_dir)``,
    rebound to a fresh observability bundle so the returned dump and spans
    hold only this task's work and the parent merges them without double
    counting.
    """
    store = worker_cached(
        _WORKER_STORES,
        (seed, cache_dir),
        lambda: ArtifactStore(cache_dir=cache_dir),
    )
    obs = Observability(tracer=Tracer(enabled=trace))
    store.obs = obs
    value = body(store, *args)
    return WorkerOutcome(
        value=value,
        metrics_dump=obs.metrics.to_dict(),
        spans=tuple(obs.tracer.spans),
        trace_epoch_unix=obs.tracer.epoch_unix,
    )


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------
class _Inline:
    """Runs each task on the calling thread as it is submitted: spans nest
    under the caller's and ``KeyboardInterrupt`` propagates, while other
    exceptions land in the future as a pool would deliver them."""

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return future


@dataclass
class _InFlight:
    """Parent-side bookkeeping for one submitted task attempt."""

    key: Hashable
    attempt: int
    submitted_ns: int
    """Submission stamp, from which the attempt's deadline counts."""


class TaskRun:
    """One execution of a set of keyed tasks under the engine's policy.

    Subclasses supply the per-kind pieces (the methods below that raise
    ``NotImplementedError``) and call :meth:`execute`.  Tasks leave
    :attr:`queue` in order once their in-set dependencies completed; up to
    :attr:`window` are in flight; each finished attempt is accepted,
    retried, recorded as failed (cascade-skipping its dependents), or
    raised; a broken process pool is supervised and an attempt that runs
    past ``timeout`` reaped.
    """

    #: How messages name a task: ``f"{noun} {key}"``.
    noun = "task"
    #: Prefix of the kind's lifecycle counters (``<prefix>.scheduled`` …).
    prefix = "engine.tasks"
    #: Histogram observing each completed task's wall seconds.
    seconds_histogram = "engine.task.seconds"
    #: Without a timeout, up to ``jobs × window_per_job`` tasks are in
    #: flight (see :attr:`window`).
    window_per_job = 1

    def __init__(
        self,
        keys: Sequence[Hashable],
        store: ArtifactStore,
        seed: int,
        pool_key: tuple[Any, ...],
        *,
        jobs: int,
        executor: str,
        keep_going: bool,
        retries: int,
        timeout: float | None,
        faults: FaultPlan | None,
        deps: dict[Hashable, tuple[Hashable, ...]] | None = None,
        shutdown: ShutdownSignal | None = None,
    ) -> None:
        self.store = store
        self.obs = store.obs
        self.seed = seed
        self.pool_key = pool_key
        self.jobs = jobs
        self.executor = executor
        self.keep_going = keep_going
        self.retries = retries
        self.timeout = timeout
        self.faults = faults
        self.deps = deps or {}
        """In-set dependencies per key, in declared order."""
        self.shutdown = shutdown if shutdown is not None else ShutdownSignal()
        self.queue: list[Hashable] = list(keys)
        """Tasks not yet submitted, in dependency order."""
        self.probe_queue: list[tuple[Hashable, int]] = []
        self.crash_counts: dict[Hashable, int] = {}
        self.records: dict[Hashable, Any] = {}
        self.succeeded: set[Hashable] = set()
        self.failed: dict[Hashable, str] = {}
        """Terminal non-completed status per key, for cascade skips."""
        self.active: dict[Future, _InFlight] = {}
        self.rebuilds = 0
        self.abandoned = 0
        cache_dir = store.cache_dir
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.trace = self.obs.tracer.enabled
        self.pool: Any = None

    # -- what a task kind supplies -------------------------------------------
    def fault_ids(self, key: Hashable) -> tuple[str, ...]:
        """The fault-plan ids addressing task ``key``, canonical first."""
        raise NotImplementedError

    def fault_for(self, key: Hashable) -> FaultSpec | None:
        """The injected fault targeting task ``key``, if any."""
        if self.faults is None:
            return None
        for fault_id in self.fault_ids(key):
            fault = self.faults.for_experiment(fault_id)
            if fault is not None:
                return fault
        return None

    def run_local(
        self, key: Hashable, attempt: int, fault: FaultSpec | None
    ) -> Any:
        """Run one attempt inline on the calling thread: by default the
        process-side body, against the run's own store."""
        body, *args = self.worker_call(key, attempt, fault)
        return body(self.store, *args)

    def worker_call(
        self, key: Hashable, attempt: int, fault: FaultSpec | None
    ) -> tuple[Any, ...]:
        """``(body, *args)`` for :func:`in_worker`: one attempt's
        process-side call."""
        raise NotImplementedError

    def accept(self, key: Hashable, attempt: int, value: Any) -> Any:
        """Fold one successful attempt's value into the run; returns the
        task's record (which carries ``status`` and ``wall_seconds``)."""
        raise NotImplementedError

    def unfinished_record(
        self,
        key: Hashable,
        status: str,
        failure: FailureRecord | None = None,
        skip_reason: str | None = None,
    ) -> Any:
        """The record of a task that ended ``failed``, ``timeout`` or
        ``quarantined`` (with ``failure``), or ``skipped`` (with
        ``skip_reason``)."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------
    @property
    def window(self) -> int:
        """How many tasks may be in flight right now.

        Inline runs keep one.  Under a timeout the window is the worker
        count, shrunk by wedged workers (which are replaced once all are
        wedged): every submitted task then starts at once on an idle
        worker, which is what lets the deadline count from submission.
        Without one, ``jobs × window_per_job`` keeps workers fed while
        the parent folds.
        """
        if self.executor == "thread":
            return 1
        if self.timeout is None:
            return self.jobs * self.window_per_job
        return max(1, self.jobs - self.abandoned)

    def execute(self) -> dict[Hashable, Any]:
        """Run every queued task; returns their records by key."""
        if not self.queue:
            return self.records
        self.setup()
        try:
            self._submit_ready()
            while self.active:
                self._tick()
                self._submit_ready()
        finally:
            self.teardown()
        return self.records

    def setup(self) -> None:
        """Start the executor."""
        if self.executor == "thread":
            self.pool = _Inline()
            return
        self.pool = cached_process_pool(self.pool_key, max_workers=self.jobs)

    def teardown(self) -> None:
        """Retire a process pool left mid-task."""
        if self.executor == "process" and (self.active or self.abandoned):
            # Aborting with tasks still in flight (or wedged workers): a
            # cached pool would hand the next run a worker mid-task, so
            # retire this one.
            evict_process_pool(self.pool_key)

    # -- submission ----------------------------------------------------------
    def _submit_ready(self) -> None:
        if self.shutdown.requested:
            return  # draining: nothing new goes out
        wedged = self.abandoned >= self.jobs and not self.active
        if wedged and (self.queue or self.probe_queue):
            # Every worker is wedged in an abandoned task, so a task
            # queued behind them would be reaped unstarted: retire them
            # and start fresh workers instead.
            self.teardown()
            self.abandoned = 0
            self.setup()
        if self.probe_queue:
            # Probes fly solo: a pool break with exactly one task in
            # flight is attributable to it — which is what keeps an
            # innocent task that merely shared a window with a poison
            # one out of quarantine.
            if not self.active:
                key, attempt = self.probe_queue.pop(0)
                self.obs.metrics.inc(f"{self.prefix}.redispatched")
                self._submit(key, attempt)
            return
        while len(self.active) < self.window:
            key = self._next_ready()
            if key is None:
                return
            self.obs.metrics.inc(f"{self.prefix}.scheduled")
            self._submit(key, 1)

    def _next_ready(self) -> Hashable | None:
        for position, key in enumerate(self.queue):
            if all(dep in self.succeeded for dep in self.deps.get(key, ())):
                return self.queue.pop(position)
        return None

    def _submit(self, key: Hashable, attempt: int) -> None:
        fault = self.fault_for(key)
        if self.executor == "thread":
            future = self.pool.submit(self.run_local, key, attempt, fault)
        else:
            body, *args = self.worker_call(key, attempt, fault)
            try:
                future = self.pool.submit(
                    in_worker, body, self.seed, self.cache_dir, self.trace,
                    *args,
                )
            except (BrokenExecutor, RuntimeError) as error:
                # submit itself found a dead (or already shut down) pool:
                # surface it through the supervision path via a
                # pre-failed future instead of crashing the parent.
                future = Future()
                future.set_exception(
                    error
                    if isinstance(error, BrokenExecutor)
                    else BrokenExecutor(str(error))
                )
        self.active[future] = _InFlight(
            key=key, attempt=attempt, submitted_ns=time.monotonic_ns()
        )

    # -- the main loop -------------------------------------------------------
    def _tick(self) -> None:
        """Wait for progress, then accept, supervise, or reap as needed."""
        tick = 0.25 if self.timeout is not None else None
        done, _ = wait(
            set(self.active), timeout=tick, return_when=FIRST_COMPLETED
        )
        if self.executor == "process" and any(
            isinstance(future.exception(), BrokenExecutor) for future in done
        ):
            self._supervise_pool_break()
            return
        for future in done:
            self._handle_done(future)
        if self.timeout is not None:
            self._reap_hung()

    def _handle_done(self, future: Future) -> None:
        flight = self.active.pop(future)
        error = future.exception()
        if error is None:
            self._succeed(flight, future.result())
            return
        self._handle_failure(flight, error)

    def _succeed(self, flight: _InFlight, outcome: Any) -> None:
        value = outcome
        if self.executor == "process":
            value = outcome.value
            self.obs.metrics.merge_dict(outcome.metrics_dump)
            if self.trace and outcome.spans:
                self.obs.tracer.ingest(
                    outcome.spans,
                    offset_seconds=(
                        outcome.trace_epoch_unix - self.obs.tracer.epoch_unix
                    ),
                )
        record = self.accept(flight.key, flight.attempt, value)
        self.obs.metrics.inc(f"{self.prefix}.completed")
        self.obs.metrics.observe(self.seconds_histogram, record.wall_seconds)
        self.records[flight.key] = record
        self.succeeded.add(flight.key)

    def _handle_failure(self, flight: _InFlight, error: BaseException) -> None:
        key, attempt = flight.key, flight.attempt
        retryable = isinstance(error, Exception)
        if (
            retryable
            and attempt <= self.retries
            and not self.shutdown.requested
        ):
            self.obs.metrics.inc(f"{self.prefix}.retried")
            self._submit(key, attempt + 1)
            return
        self.obs.metrics.inc(f"{self.prefix}.failed")
        if (
            not retryable or not self.keep_going
        ) and not self.shutdown.requested:
            self._drain_and_raise(self._fatal(key, error, attempt))
        self._fail(key, FailureRecord.from_exception(error, attempts=attempt))

    def _fatal(
        self, key: Hashable, error: BaseException, attempts: int
    ) -> ExperimentFailedError:
        fatal = ExperimentFailedError(
            f"{self.noun} {key} failed after {attempts} attempt(s): "
            f"{type(error).__name__}: {error}",
            experiment_id=self.fault_ids(key)[0],
            attempts=attempts,
        )
        fatal.__cause__ = error
        return fatal

    def _fail(
        self, key: Hashable, failure: FailureRecord, status: str = "failed"
    ) -> None:
        record = self.unfinished_record(key, status, failure=failure)
        self.records[key] = record
        self.failed[key] = record.status
        if self.deps:
            self._cascade_skip()

    def _cascade_skip(self) -> None:
        """Skip every queued task with an in-set dependency that did not
        complete.  The queue is in dependency order, so one pass reaches
        dependents of dependents too."""
        for key in list(self.queue):
            dep = next(
                (dep for dep in self.deps.get(key, ()) if dep in self.failed),
                None,
            )
            if dep is None:
                continue
            self.queue.remove(key)
            self.records[key] = self.unfinished_record(
                key, "skipped", skip_reason=f"dependency {dep} {self.failed[dep]}"
            )
            self.failed[key] = "skipped"
            self.obs.metrics.inc(f"{self.prefix}.skipped")

    def _drain_and_raise(self, fatal: Exception) -> None:
        still_running = [
            future for future in self.active if not future.cancel()
        ]
        if still_running:
            _, not_done = wait(still_running, timeout=self.timeout)
            self.abandoned += len(not_done)
        raise fatal

    # -- supervision ---------------------------------------------------------
    def _supervise_pool_break(self) -> None:
        """A worker died and broke the pool: accept the survivors, attribute
        the crash, quarantine repeat offenders, rebuild, re-dispatch."""
        self.obs.metrics.inc("engine.workers.crashed")
        # A broken executor terminates every worker and fails the rest of
        # the window fast; retiring the cached pool also settles anything
        # still queued inside it.
        evict_process_pool(self.pool_key)
        wait(list(self.active), timeout=5.0)
        crashed: list[_InFlight] = []
        ordinary: list[Future] = []
        for future in list(self.active):
            if not future.done():
                # Should not happen after the pool shut down; abandon the
                # flight rather than block on it.
                flight = self.active.pop(future)
                self.abandoned += 1
                crashed.append(flight)
                continue
            error = future.exception()
            if isinstance(error, BrokenExecutor):
                crashed.append(self.active.pop(future))
            else:
                ordinary.append(future)
        # Accept completed siblings first: their results (and journal
        # records) survive even if quarantine aborts the run below.
        completed = [f for f in ordinary if f.exception() is None]
        failed = [f for f in ordinary if f.exception() is not None]
        for future in completed:
            self._handle_done(future)
        self._attribute_crashes(crashed)
        if not self.shutdown.requested and (
            self.queue or self.probe_queue or failed
        ):
            self._rebuild_pool()
        for future in failed:
            self._handle_done(future)

    def _attribute_crashes(self, crashed: list[_InFlight]) -> None:
        """Decide each crashed flight's fate: probe, quarantine, or (under
        a drain) record as failed.

        Attribution is deliberately conservative: the kill count only
        advances when the break had exactly one task in flight, so a
        full-window break blames nobody and every crashed task earns a
        solo probe instead.
        """
        attributable = len(crashed) == 1
        for flight in crashed:
            key = flight.key
            if attributable:
                self.crash_counts[key] = self.crash_counts.get(key, 0) + 1
            if self.crash_counts.get(key, 0) >= QUARANTINE_AFTER:
                self._quarantine(flight)
                continue
            if self.shutdown.requested:
                error = WorkerCrashError(
                    f"{self.noun} {key} was in flight when its worker pool "
                    f"broke during a drain"
                )
                self._fail(
                    key, FailureRecord.from_exception(error, flight.attempt)
                )
                continue
            # Re-probe at the next attempt number so transient kill
            # faults (kill=K) stop firing once K attempts have died.
            self.probe_queue.append((key, flight.attempt + 1))

    def _quarantine(self, flight: _InFlight) -> None:
        key = flight.key
        self.obs.metrics.inc(f"{self.prefix}.quarantined")
        error = WorkerCrashError(
            f"{self.noun} {key} killed {self.crash_counts.get(key, 0)} "
            f"worker(s); quarantined"
        )
        if not self.keep_going and not self.shutdown.requested:
            self._drain_and_raise(self._fatal(key, error, flight.attempt))
        self._fail(
            key,
            FailureRecord.from_exception(error, attempts=flight.attempt),
            status="quarantined",
        )

    def _rebuild_pool(self) -> None:
        if self.rebuilds >= MAX_POOL_REBUILDS:
            raise EngineError(
                f"worker pool broke {self.rebuilds + 1} times; giving up "
                f"(at most {MAX_POOL_REBUILDS} rebuilds per run)"
            )
        self.rebuilds += 1
        # Evicting the broken pool terminated every worker, wedged ones
        # included: the fresh pool starts with its full window.
        self.abandoned = 0
        backoff = min(2.0, 0.05 * 2 ** (self.rebuilds - 1))
        with self.obs.tracer.span(
            "engine.pool_rebuild", rebuild=self.rebuilds, backoff=backoff
        ):
            time.sleep(backoff)
            self.pool = cached_process_pool(
                self.pool_key, max_workers=self.jobs
            )
        self.obs.metrics.inc("engine.pool.rebuilds")

    # -- the deadline --------------------------------------------------------
    def _reap_hung(self) -> None:
        """Time out attempts still running ``timeout`` seconds after their
        submission (see :attr:`window` for why submission is the start)."""
        budget_ns = int(self.timeout * 1e9)
        now = time.monotonic_ns()
        for future, flight in list(self.active.items()):
            if now - flight.submitted_ns <= budget_ns:
                continue
            del self.active[future]
            if not future.cancel():
                # Running past its budget: abandon it; teardown retires
                # the pool, terminating the worker.
                self.abandoned += 1
            self.obs.metrics.inc(f"{self.prefix}.timeout")
            error = ExperimentTimeoutError(
                f"{self.noun} {flight.key} ran past its {self.timeout}s "
                f"budget on attempt {flight.attempt}",
                experiment_id=self.fault_ids(flight.key)[0],
                timeout=self.timeout,
            )
            if not self.keep_going and not self.shutdown.requested:
                self._drain_and_raise(error)
            self._fail(
                flight.key,
                FailureRecord.from_exception(error, attempts=flight.attempt),
                status="timeout",
            )
