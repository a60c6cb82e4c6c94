"""Run manifests: the observability record of one engine run.

Every engine run emits a manifest — per-experiment wall time, the artifact
requests each experiment made (with hit/miss status), effective seeds, and
store-wide totals — as schema-tagged JSON.  Operators diff manifests across
commits to track the performance trajectory, and tests assert cache
semantics ("the campaign was computed exactly once") on them instead of
instrumenting internals.

Since the fault-tolerance layer, the manifest is also the run's *failure
ledger*: every record carries a ``status`` (``completed`` | ``failed`` |
``skipped`` | ``timeout``), the attempt count, a structured
:class:`FailureRecord` for failures/timeouts, and a ``skip_reason`` for
cascade-skipped dependents.  ``repro run --resume <manifest.json>`` feeds a
manifest back into the scheduler to re-execute only the non-completed
experiments.
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any

from repro.bench.engine.artifacts import ArtifactEvent
from repro.errors import ConfigurationError

__all__ = [
    "ExperimentRunRecord",
    "FailureRecord",
    "RunManifest",
    "MANIFEST_SCHEMA",
    "STATUSES",
]

MANIFEST_SCHEMA = "repro/run-manifest@2"

#: Valid values of :attr:`ExperimentRunRecord.status`.
STATUSES = ("completed", "failed", "skipped", "timeout")

#: How many trailing traceback lines a :class:`FailureRecord` keeps.
_TRACEBACK_TAIL = 12


@dataclass(frozen=True)
class FailureRecord:
    """Structured capture of one experiment's terminal failure."""

    error_type: str
    """Exception class name (e.g. ``InjectedFault``, ``ToolError``)."""
    message: str
    traceback: str
    """Trailing lines of the formatted traceback (empty for timeouts)."""
    attempts: int
    """How many attempts were made before giving up."""

    @classmethod
    def from_exception(
        cls, error: BaseException, attempts: int
    ) -> "FailureRecord":
        """Summarize ``error`` (keeps the last few traceback lines)."""
        lines = traceback_module.format_exception(
            type(error), error, error.__traceback__
        )
        tail = "".join(lines[-_TRACEBACK_TAIL:]).rstrip()
        return cls(
            error_type=type(error).__name__,
            message=str(error),
            traceback=tail,
            attempts=attempts,
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialize for the manifest."""
        return {
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FailureRecord":
        """Rebuild a failure record from its manifest entry."""
        return cls(
            error_type=payload["error_type"],
            message=payload["message"],
            traceback=payload.get("traceback", ""),
            attempts=payload.get("attempts", 1),
        )


@dataclass(frozen=True)
class ExperimentRunRecord:
    """One experiment's entry in the run manifest."""

    experiment_id: str
    title: str
    seed: int | None
    """Effective seed (``None`` for seedless experiments)."""
    wall_seconds: float
    artifacts: tuple[ArtifactEvent, ...] = ()
    """Artifact requests attributed to this experiment, in order."""
    status: str = "completed"
    """``completed`` | ``failed`` | ``skipped`` | ``timeout``."""
    attempts: int = 1
    """Execution attempts made (0 for cascade-skipped experiments)."""
    failure: FailureRecord | None = None
    """The terminal failure, for ``failed``/``timeout`` records."""
    skip_reason: str | None = None
    """Why a ``skipped`` record never ran (e.g. ``dependency R3 failed``)."""

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ConfigurationError(
                f"invalid record status {self.status!r}; expected one of "
                f"{STATUSES}"
            )

    @property
    def completed(self) -> bool:
        """Whether this experiment finished and delivered its report."""
        return self.status == "completed"

    @property
    def cache_counts(self) -> dict[str, int]:
        """Hit/miss totals over this experiment's artifact requests."""
        totals = {"hit": 0, "disk-hit": 0, "miss": 0, "uncached": 0, "corrupt": 0}
        for event in self.artifacts:
            totals[event.status] = totals.get(event.status, 0) + 1
        return totals

    def to_dict(self) -> dict[str, Any]:
        """Serialize for the manifest (failure record inline, if any)."""
        payload: dict[str, Any] = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "status": self.status,
            "attempts": self.attempts,
            "artifacts": [
                {
                    "key": event.key,
                    "status": event.status,
                    "seconds": event.seconds,
                }
                for event in self.artifacts
            ],
            "cache": self.cache_counts,
        }
        if self.failure is not None:
            payload["failure"] = self.failure.to_dict()
        if self.skip_reason is not None:
            payload["skip_reason"] = self.skip_reason
        return payload


@dataclass(frozen=True)
class RunManifest:
    """The full record of one engine run."""

    seed: int
    jobs: int
    wall_seconds: float
    records: tuple[ExperimentRunRecord, ...]
    cache_dir: str | None = None
    extra: dict[str, Any] = field(default_factory=dict)
    """Free-form additions; the scheduler stores the tracer's span summary
    under ``extra["observability"]`` when tracing is enabled, and resume
    bookkeeping under ``extra["resume"]``."""

    @property
    def observability(self) -> dict[str, Any] | None:
        """The span summary recorded for this run, if it was traced."""
        return self.extra.get("observability")

    @property
    def experiment_ids(self) -> list[str]:
        """The run's experiment ids, in record order."""
        return [record.experiment_id for record in self.records]

    @property
    def ok(self) -> bool:
        """Whether every experiment in this run completed."""
        return all(record.completed for record in self.records)

    @property
    def statuses(self) -> dict[str, str]:
        """Per-experiment status, keyed by id."""
        return {record.experiment_id: record.status for record in self.records}

    @property
    def incomplete_ids(self) -> list[str]:
        """Experiments a ``--resume`` run must re-execute."""
        return [r.experiment_id for r in self.records if not r.completed]

    def status_counts(self) -> dict[str, int]:
        """How many records ended in each status."""
        totals = {status: 0 for status in STATUSES}
        for record in self.records:
            totals[record.status] += 1
        return totals

    def record_for(self, experiment_id: str) -> ExperimentRunRecord:
        """One experiment's record, by id."""
        for record in self.records:
            if record.experiment_id == experiment_id:
                return record
        raise ConfigurationError(
            f"manifest has no record for {experiment_id!r}; "
            f"present: {self.experiment_ids}"
        )

    def cache_counts(self, key_prefix: str = "") -> dict[str, int]:
        """Hit/miss totals across every experiment, optionally filtered to
        artifact keys starting with ``key_prefix`` (e.g. ``"campaign:"``)."""
        totals = {"hit": 0, "disk-hit": 0, "miss": 0, "uncached": 0, "corrupt": 0}
        for record in self.records:
            for event in record.artifacts:
                if event.key.startswith(key_prefix):
                    totals[event.status] = totals.get(event.status, 0) + 1
        return totals

    def summary_line(self) -> str:
        """A one-line human summary for logs and perf tracking."""
        totals = self.cache_counts()
        line = (
            f"{len(self.records)} experiments in {self.wall_seconds:.1f}s "
            f"(jobs={self.jobs}, seed={self.seed}; artifact cache: "
            f"{totals['hit']} hits, {totals['disk-hit']} disk hits, "
            f"{totals['miss']} misses)"
        )
        status_totals = self.status_counts()
        problems = [
            f"{count} {status}"
            for status, count in status_totals.items()
            if status != "completed" and count
        ]
        if problems:
            line += f" [{', '.join(problems)}]"
        return line

    def to_dict(self) -> dict[str, Any]:
        """Serialize with the manifest schema tag."""
        return {
            "schema": MANIFEST_SCHEMA,
            "seed": self.seed,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache_dir": self.cache_dir,
            "experiments": [record.to_dict() for record in self.records],
            "totals": self.cache_counts(),
            "statuses": self.status_counts(),
            **({"extra": self.extra} if self.extra else {}),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest, failing loudly on schema drift.

        A payload that is not a JSON object, or lacks a key, raises
        :class:`~repro.errors.ConfigurationError` too.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a run manifest is a JSON object, not {type(payload).__name__}"
            )
        found = payload.get("schema")
        if found != MANIFEST_SCHEMA:
            raise ConfigurationError(
                f"expected schema {MANIFEST_SCHEMA!r}, found {found!r}"
            )
        try:
            records = tuple(
                ExperimentRunRecord(
                    experiment_id=entry["experiment_id"],
                    title=entry["title"],
                    seed=entry["seed"],
                    wall_seconds=entry["wall_seconds"],
                    artifacts=tuple(
                        ArtifactEvent(
                            key=event["key"],
                            status=event["status"],
                            requester=entry["experiment_id"],
                            seconds=event["seconds"],
                        )
                        for event in entry["artifacts"]
                    ),
                    status=entry["status"],
                    attempts=entry["attempts"],
                    failure=(
                        FailureRecord.from_dict(entry["failure"])
                        if entry.get("failure") is not None
                        else None
                    ),
                    skip_reason=entry.get("skip_reason"),
                )
                for entry in payload["experiments"]
            )
            return cls(
                seed=payload["seed"],
                jobs=payload["jobs"],
                wall_seconds=payload["wall_seconds"],
                records=records,
                cache_dir=payload.get("cache_dir"),
                extra=payload.get("extra", {}),
            )
        except KeyError as error:
            raise ConfigurationError(
                f"run manifest has no {error.args[0]!r} field"
            ) from error
