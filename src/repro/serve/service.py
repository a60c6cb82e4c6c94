"""The campaign service core: queue in, ``run_sharded_campaign`` out.

This is the headless heart of ``repro serve`` — everything the HTTP layer
does maps onto a thread-safe method here, so the scheduler is fully
testable without a socket.  A dispatcher thread pops jobs in deficit-
round-robin order (:class:`~repro.serve.queue.JobQueue`) whenever an
execution slot is free and hands them to a small worker pool; each job is
one unchanged :func:`~repro.bench.engine.shards.run_sharded_campaign`
call, always under its own write-ahead journal.

Crash recovery (architecture invariant 9) is a composition, not new
machinery: on :meth:`CampaignService.start` the queue reloads every
persisted job record, unfinished jobs re-enqueue, and every dispatch
passes the job's full spec plus its journal path as ``wal_path`` — the
engine continues a journal that survived (the replay path whose totals
are bit-identical to an uninterrupted run, invariant 8) and creates one
where none did, or where it tore before its header finished; either way
the finished totals are the same bytes.

Graceful shutdown mirrors the CLI: :meth:`CampaignService.stop` requests
a drain through each running job's
:class:`~repro.bench.engine.supervise.ShutdownSignal`, the in-flight
shards fold and journal, and the job record stays ``running`` on disk so
the next start resumes it.
"""

from __future__ import annotations

import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.bench.engine.runner import check_policy
from repro.bench.engine.shards import run_sharded_campaign
from repro.bench.engine.supervise import ShutdownSignal
from repro.errors import ReproError, ServeError
from repro.obs import Observability
from repro.persist import streaming_totals_to_dict
from repro.serve.cache import DEFAULT_CACHE_CAPACITY, ResultCache
from repro.serve.fairness import DEFAULT_QUANTUM
from repro.serve.queue import JobQueue, JobRecord, JobSpec

__all__ = [
    "ServiceConfig",
    "CampaignService",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service instance needs to know at construction."""

    state_dir: Path
    """Root of the durable state: job records, journals, results."""
    workers: int = 1
    """Concurrent campaigns (each one further parallelized by ``jobs``)."""
    jobs: int = 1
    """Shard parallelism inside one campaign."""
    executor: str | None = None
    """Campaign executor: ``thread`` (inline) or ``process`` (cached
    pools); unset, ``process`` when ``jobs > 1`` and ``thread`` otherwise."""
    quantum: int = DEFAULT_QUANTUM
    """DRR per-turn deficit top-up, in workload units."""
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    """Hot result-cache entries held in memory."""
    weights: dict[str, float] = field(default_factory=dict)
    """Per-tenant scheduling weights (unlisted tenants weigh 1.0)."""


class CampaignService:
    """Fair-queued campaign execution behind a thread-safe facade."""

    def __init__(
        self, config: ServiceConfig, obs: Observability | None = None
    ) -> None:
        self.config = config
        self.executor = check_policy(jobs=config.jobs, executor=config.executor)
        """The resolved campaign executor (raises before any job runs)."""
        self.obs = obs if obs is not None else Observability()
        self.queue = JobQueue(
            config.state_dir,
            quantum=config.quantum,
            weights=dict(config.weights),
            obs=self.obs,
        )
        self.results = ResultCache(
            Path(config.state_dir) / "results",
            capacity=config.cache_capacity,
            obs=self.obs,
        )
        self.cache_dir = Path(config.state_dir) / "cache"
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: threading.Thread | None = None
        self._stopping = threading.Event()
        self._wake = threading.Event()
        self._slots = threading.Semaphore(config.workers)
        self._lock = threading.Lock()
        self._running: dict[str, _RunningJob] = {}

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> list[JobRecord]:
        """Recover persisted state and start dispatching.

        Returns the re-enqueued (recovered) records, so callers can log
        what a restart picked back up.
        """
        recovered = self.queue.recover()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="serve-job",
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        return recovered

    def stop(self, timeout: float = 60.0) -> None:
        """Drain gracefully: running campaigns fold in-flight shards and
        journal them, then the pool shuts down.  Interrupted jobs keep
        their ``running`` record and resume on the next :meth:`start`."""
        self._stopping.set()
        self._wake.set()
        with self._lock:
            running = list(self._running.values())
        for job in running:
            job.shutdown.request("service stop")
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    # -- submissions and queries -------------------------------------------
    def submit(self, payload: dict[str, Any]) -> JobRecord:
        """Validate and enqueue one campaign submission (HTTP body dict)."""
        spec = JobSpec.from_payload(payload)
        tenant = str(payload.get("tenant", "default"))
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError) as error:
            raise ServeError(f"malformed priority: {error}") from error
        record = self.queue.submit(spec, tenant=tenant, priority=priority)
        self._wake.set()
        return record

    def job_status(self, job_id: str) -> dict[str, Any]:
        """One job's record plus live shard progress."""
        record = self.queue.get(job_id)
        status = record.to_dict()
        status.pop("schema", None)
        planned = record.spec.planned_shards
        status["shards"] = {
            "planned": planned,
            "completed": self._progress(record),
        }
        return status

    def _progress(self, record: JobRecord) -> int:
        if record.state == "completed":
            return record.spec.planned_shards
        with self._lock:
            running = self._running.get(record.job_id)
        if running is None:
            return 0
        # Journal replay counts as progress: a resumed job starts from
        # the shards it carried, not from zero.
        metrics = running.obs.metrics
        completed = (
            metrics.counter("engine.shards.carried").value
            + metrics.counter("engine.shards.completed").value
        )
        return min(completed, record.spec.planned_shards)

    def result(self, job_id: str) -> dict[str, Any]:
        """A finished job's totals payload, from the result cache."""
        record = self.queue.get(job_id)
        if record.state == "failed":
            raise ServeError(
                f"job {job_id} failed: {record.error}", status=409
            )
        if record.state != "completed":
            raise ServeError(
                f"job {job_id} is {record.state}; result not ready",
                status=409,
            )
        payload = self.results.get(job_id)
        if payload is None:
            raise ServeError(
                f"job {job_id} result is missing from the store", status=404
            )
        return payload

    def stats(self) -> dict[str, Any]:
        """The service metrics registry, for ``/v1/stats``."""
        return self.obs.metrics.to_dict()

    # -- execution ----------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            if not self._slots.acquire(timeout=0.1):
                continue
            record = None if self._stopping.is_set() else self.queue.pop_next()
            if record is None:
                self._slots.release()
                self._wake.wait(timeout=0.1)
                self._wake.clear()
                continue
            assert self._pool is not None
            self._pool.submit(self._run_job, record)

    def _run_job(self, record: JobRecord) -> None:
        job = _RunningJob(record=record)
        with self._lock:
            self._running[record.job_id] = job
        try:
            self._execute(job)
        except ReproError as error:
            self.queue.finish(record.job_id, error=str(error))
        except Exception:  # noqa: BLE001 — a job must never kill the service
            self.queue.finish(
                record.job_id, error=traceback.format_exc(limit=3)
            )
        finally:
            with self._lock:
                self._running.pop(record.job_id, None)
            self._slots.release()
            self._wake.set()

    def _execute(self, job: _RunningJob) -> None:
        record = job.record
        spec = record.spec
        wal = self.queue.wal_path(record.job_id)
        with self.obs.tracer.span(
            "serve.job", job=record.job_id, tenant=record.tenant
        ):
            run = run_sharded_campaign(
                scale=spec.scale,
                shard_size=spec.shard_size,
                seed=spec.seed,
                ecosystem=spec.ecosystem,
                tool_families=spec.tool_families,
                jobs=self.config.jobs,
                executor=self.executor,
                keep_going=True,
                cache_dir=str(self.cache_dir),
                obs=job.obs,
                wal_path=str(wal),
                shutdown=job.shutdown,
            )
        if "resume" in run.manifest.extra:
            self.obs.metrics.inc("serve.jobs.resumed")
        self.obs.metrics.merge_dict(job.obs.metrics.to_dict())
        if run.interrupted or job.shutdown.requested:
            # Drained, not done: leave the record running and the journal
            # in place; the next start() re-enqueues and resumes it.
            return
        if not run.ok or run.totals is None:
            counts = run.manifest.status_counts()
            bad = {k: v for k, v in counts.items() if k != "completed" and v}
            raise ServeError(f"campaign did not complete: {bad}", status=500)
        payload = {
            "job_id": record.job_id,
            "tenant": record.tenant,
            "totals": streaming_totals_to_dict(run.totals),
            "manifest": {
                "seed": run.manifest.seed,
                "scale": run.manifest.scale,
                "shard_size": run.manifest.shard_size,
                "ecosystem": run.manifest.ecosystem,
                "shards": run.manifest.n_shards,
                "statuses": run.manifest.status_counts(),
            },
        }
        self.results.put(record.job_id, payload)
        self.queue.finish(record.job_id)
        self.obs.metrics.observe(
            "serve.job.seconds", run.manifest.wall_seconds
        )
        wal.unlink(missing_ok=True)


@dataclass
class _RunningJob:
    """Live bookkeeping for one dispatched job."""

    record: JobRecord
    obs: Observability = field(default_factory=Observability)
    shutdown: ShutdownSignal = field(default_factory=ShutdownSignal)
