"""The persistent job queue behind the campaign service.

Every job is one schema-tagged JSON file (``repro/serve-job@1``) under the
service state dir, atomically rewritten via :func:`repro.persist.save_json`
on every state transition — so a crash at any instant leaves each record
either in its previous state or its next one, never torn.  The queue
itself is therefore reconstructible from disk alone: :meth:`JobQueue.
recover` rescans the records, re-enqueues everything that had not finished
(``queued`` *and* ``running`` — a running job's progress lives in its
write-ahead journal, not the record), and resumes the submission sequence.

Job lifecycle::

    queued ──► running ──► completed
                  │  ▲         └─ terminal (result cached on disk)
                  │  └ recover (journal replay)
                  └──► failed — terminal (error recorded)

Scheduling order is delegated to
:class:`~repro.serve.fairness.DeficitRoundRobin`; this module adds the
persistence, the record bookkeeping, and thread safety (one lock around
queue mutations — campaign execution happens far from it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, PersistError, ServeError
from repro.obs import Observability
from repro.persist import SERVE_JOB_SCHEMA, load_json, save_json
from repro.serve.fairness import DEFAULT_QUANTUM, DeficitRoundRobin, QueuedJob
from repro.tools.families import get_family
from repro.workload.ecosystems import DEFAULT_ECOSYSTEM, get_ecosystem
from repro.workload.sharded import DEFAULT_SHARD_SIZE

__all__ = [
    "JOB_STATES",
    "JobSpec",
    "JobRecord",
    "JobQueue",
]

#: Valid values of :attr:`JobRecord.state`, in lifecycle order.
JOB_STATES = ("queued", "running", "completed", "failed")

#: Submissions above this scale are rejected at the door: the service is
#: long-running and a single 10⁹-unit campaign would monopolize a worker
#: for days regardless of scheduling fairness.
MAX_JOB_SCALE = 50_000_000


@dataclass(frozen=True)
class JobSpec:
    """What a tenant asks the service to run: one sharded campaign."""

    scale: int
    shard_size: int = DEFAULT_SHARD_SIZE
    seed: int = 2015
    ecosystem: str = DEFAULT_ECOSYSTEM
    tool_families: tuple[str, ...] | None = None

    def validate(self) -> None:
        """Reject malformed specs at submission time, not dispatch time."""
        if not 1 <= self.scale <= MAX_JOB_SCALE:
            raise ServeError(
                f"scale must be in [1, {MAX_JOB_SCALE}], got {self.scale}"
            )
        if self.shard_size < 1:
            raise ServeError(
                f"shard_size must be >= 1, got {self.shard_size}"
            )
        try:
            get_ecosystem(self.ecosystem)
            for key in self.tool_families or ():
                get_family(key)
        except ConfigurationError as error:
            raise ServeError(str(error)) from error

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobSpec":
        """Build (and validate) a spec from an untrusted request body."""
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        known = {"scale", "shard_size", "seed", "ecosystem", "tool_families"}
        unknown = set(payload) - known - {"tenant", "priority"}
        if unknown:
            raise ServeError(f"unknown spec fields: {sorted(unknown)}")
        if "scale" not in payload:
            raise ServeError("spec needs a 'scale' (workload units)")
        try:
            spec = cls(
                scale=int(payload["scale"]),
                shard_size=int(payload.get("shard_size", DEFAULT_SHARD_SIZE)),
                seed=int(payload.get("seed", 2015)),
                ecosystem=str(payload.get("ecosystem", DEFAULT_ECOSYSTEM)),
                tool_families=(
                    tuple(str(k) for k in payload["tool_families"])
                    if payload.get("tool_families") is not None
                    else None
                ),
            )
        except (TypeError, ValueError) as error:
            raise ServeError(f"malformed spec: {error}") from error
        spec.validate()
        return spec

    @property
    def planned_shards(self) -> int:
        """Shards the plan geometry implies."""
        return (self.scale + self.shard_size - 1) // self.shard_size

    def to_dict(self) -> dict[str, Any]:
        """Serialize for the job record."""
        return {
            "scale": self.scale,
            "shard_size": self.shard_size,
            "seed": self.seed,
            "ecosystem": self.ecosystem,
            "tool_families": (
                list(self.tool_families)
                if self.tool_families is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from a persisted record."""
        return cls(
            scale=payload["scale"],
            shard_size=payload["shard_size"],
            seed=payload["seed"],
            ecosystem=payload["ecosystem"],
            tool_families=(
                tuple(payload["tool_families"])
                if payload.get("tool_families") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class JobRecord:
    """One job's full persisted state (immutable; transitions replace it)."""

    job_id: str
    seq: int
    tenant: str
    priority: int
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0
    """How many times the job was dispatched (recoveries re-dispatch)."""
    error: str | None = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ConfigurationError(
                f"invalid job state {self.state!r}; expected one of "
                f"{JOB_STATES}"
            )

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in ("completed", "failed")

    def to_dict(self) -> dict[str, Any]:
        """Serialize with the serve-job schema tag."""
        return {
            "schema": SERVE_JOB_SCHEMA,
            "job_id": self.job_id,
            "seq": self.seq,
            "tenant": self.tenant,
            "priority": self.priority,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        """Rebuild a record, failing loudly on schema drift."""
        found = payload.get("schema")
        if found != SERVE_JOB_SCHEMA:
            raise ConfigurationError(
                f"expected schema {SERVE_JOB_SCHEMA!r}, found {found!r}"
            )
        return cls(
            job_id=payload["job_id"],
            seq=payload["seq"],
            tenant=payload["tenant"],
            priority=payload["priority"],
            spec=JobSpec.from_dict(payload["spec"]),
            state=payload["state"],
            submitted_at=payload["submitted_at"],
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            attempts=payload.get("attempts", 0),
            error=payload.get("error"),
        )


class JobQueue:
    """Persistent, fairness-scheduled job queue (thread-safe).

    ``state_dir`` gains two subdirectories: ``jobs/`` (one JSON record per
    job) and ``wal/`` (one shard journal per running job, owned by the
    service's executor).  All public methods take the queue lock; none of
    them do campaign work.
    """

    def __init__(
        self,
        state_dir: str | Path,
        quantum: int = DEFAULT_QUANTUM,
        weights: dict[str, float] | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.wal_dir = self.state_dir / "wal"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.obs = obs if obs is not None else Observability()
        self._lock = threading.Lock()
        self._drr = DeficitRoundRobin(quantum=quantum, weights=weights)
        self._records: dict[str, JobRecord] = {}
        self._next_seq = 0

    # -- persistence --------------------------------------------------------
    def _path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def wal_path(self, job_id: str) -> Path:
        """Where the job's shard journal lives while it runs."""
        return self.wal_dir / f"{job_id}.wal"

    def _persist(self, record: JobRecord) -> None:
        save_json(record.to_dict(), self._path(record.job_id))

    def _gauge_depth(self) -> None:
        self.obs.metrics.set_gauge("serve.queue.depth", float(len(self._drr)))

    # -- submission and dispatch -------------------------------------------
    def submit(
        self, spec: JobSpec, tenant: str = "default", priority: int = 0
    ) -> JobRecord:
        """Persist and enqueue one job; returns its immutable record."""
        spec.validate()
        if not tenant:
            raise ServeError("tenant id must be non-empty")
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            record = JobRecord(
                job_id=f"j{seq:06d}",
                seq=seq,
                tenant=tenant,
                priority=int(priority),
                spec=spec,
                state="queued",
                submitted_at=time.time(),
            )
            self._persist(record)
            self._records[record.job_id] = record
            self._drr.push(
                QueuedJob(
                    job_id=record.job_id,
                    tenant=tenant,
                    cost=spec.scale,
                    priority=record.priority,
                    seq=seq,
                )
            )
            self.obs.metrics.inc("serve.jobs.submitted")
            self._gauge_depth()
            return record

    def pop_next(self) -> JobRecord | None:
        """Dispatch the next job per DRR: marks it ``running`` durably."""
        with self._lock:
            queued = self._drr.pop()
            if queued is None:
                return None
            record = self._records[queued.job_id]
            record = replace(
                record,
                state="running",
                started_at=time.time(),
                attempts=record.attempts + 1,
            )
            self._persist(record)
            self._records[record.job_id] = record
            self._gauge_depth()
            return record

    def finish(self, job_id: str, error: str | None = None) -> JobRecord:
        """Mark a running job terminal (``completed`` or ``failed``)."""
        with self._lock:
            record = self._records[job_id]
            record = replace(
                record,
                state="failed" if error is not None else "completed",
                finished_at=time.time(),
                error=error,
            )
            self._persist(record)
            self._records[job_id] = record
            self.obs.metrics.inc(
                "serve.jobs.failed" if error else "serve.jobs.completed"
            )
            return record

    # -- queries ------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        """One job's record; unknown ids raise a 404-mapped ServeError."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServeError(f"no such job: {job_id}", status=404)
        return record

    def jobs(self, tenant: str | None = None) -> list[JobRecord]:
        """All records (optionally one tenant's), in submission order."""
        with self._lock:
            records = sorted(self._records.values(), key=lambda r: r.seq)
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return records

    def snapshot(self) -> dict[str, Any]:
        """Scheduler and state-count view for the ``/v1/queue`` endpoint."""
        with self._lock:
            states = {state: 0 for state in JOB_STATES}
            completed_units: dict[str, int] = {}
            for record in self._records.values():
                states[record.state] += 1
                if record.state == "completed":
                    completed_units[record.tenant] = (
                        completed_units.get(record.tenant, 0)
                        + record.spec.scale
                    )
            return {
                "pending": len(self._drr),
                "quantum": self._drr.quantum,
                "states": states,
                "tenants": self._drr.snapshot(),
                "completed_units": dict(sorted(completed_units.items())),
            }

    # -- crash recovery -----------------------------------------------------
    def recover(self) -> list[JobRecord]:
        """Reload records from disk; re-enqueue everything unfinished.

        Returns the re-enqueued records (``queued`` and interrupted
        ``running`` jobs) in submission order.  A ``running`` record is
        reset to ``queued``; whether its next dispatch continues a
        journal or starts fresh is decided by what its journal path holds
        (:func:`~repro.bench.engine.wal.open_journal`).  Unreadable
        records are skipped with a counter bump rather than blocking
        startup — the atomic-write discipline makes them unexpected.
        """
        requeued: list[JobRecord] = []
        with self._lock:
            for path in sorted(self.jobs_dir.glob("*.json")):
                try:
                    record = JobRecord.from_dict(load_json(path))
                except (PersistError, ConfigurationError, KeyError):
                    self.obs.metrics.inc("serve.jobs.unreadable")
                    continue
                self._records[record.job_id] = record
                self._next_seq = max(self._next_seq, record.seq + 1)
            for record in sorted(
                self._records.values(), key=lambda r: r.seq
            ):
                if record.finished:
                    continue
                if record.state == "running":
                    record = replace(record, state="queued")
                    self._persist(record)
                    self._records[record.job_id] = record
                self._drr.push(
                    QueuedJob(
                        job_id=record.job_id,
                        tenant=record.tenant,
                        cost=record.spec.scale,
                        priority=record.priority,
                        seq=record.seq,
                    )
                )
                self.obs.metrics.inc("serve.jobs.recovered")
                requeued.append(record)
            self._gauge_depth()
        return requeued
