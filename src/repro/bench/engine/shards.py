"""Shard campaign runner: million-unit campaigns as engine sub-tasks.

:func:`run_sharded_campaign` drives a :class:`~repro.workload.sharded.
ShardPlan` through the engine's machinery the way the scheduler drives
experiments: each shard is an independent sub-task that decodes its
columnar record (:meth:`~repro.workload.sharded.ShardPlan.columns`),
scores every tool's per-site flag mask over it, and returns a
:class:`~repro.bench.streaming.ShardCells`; the parent folds cells into a
:class:`~repro.bench.streaming.CampaignAccumulator` as they arrive and
discards the shard, so peak memory is bounded by ``jobs`` shards, never by
the corpus.  No workload, report or detection object is built on this
path; :func:`~repro.bench.streaming.materialized_totals` keeps the object
path as the parity oracle.

Shards run through the engine's one task loop
(:class:`~repro.bench.engine.runner.TaskRun`, the same loop experiments
use), so engine semantics carry over wholesale:

- **executors** — shards run inline on the calling thread
  (``executor="thread"``) or in worker processes (``executor="process"``,
  the resolved default when ``jobs > 1`` or a ``timeout`` is set) that
  keep persistent artifact stores and return each shard's cells inside
  their pickled outcome; process pools are cached across campaigns
  (:mod:`repro.bench.engine.transport`), so follow-up runs find warm
  workers, and up to ``jobs × 4`` shards are in flight so workers stay
  fed while the parent folds;
- **caching** — each shard's cells are memoized in the artifact store
  under ``kind="shard-cells"`` and persisted to ``cache_dir`` as
  ``repro/shard-cells@1`` entries, so a warm re-run folds cached cells
  without generating or analyzing anything;
- **fault tolerance** — ``retries`` re-attempts a failed shard (the shard
  seed is a pure function of its index, so a recovered run is
  bit-identical to a clean one), and ``keep_going`` records the failure
  and finishes every other shard;
- **fault injection** — a :class:`~repro.bench.engine.faults.FaultPlan`
  targets shards by :func:`shard_fault_id` (``S000003`` for shard 3), so
  ``--inject-fault s3:fail=1`` exercises the retry path deterministically;
- **observability** — every shard runs under ``shard.generate`` /
  ``shard.evaluate`` spans, with one ``shard.tool`` span per tool inside
  the latter, and feeds the ``engine.shards.*`` counters, so a
  million-unit run is traceable in Perfetto like any experiment run;
- **crash safety** — a dead worker (``BrokenExecutor``) no longer aborts
  the campaign: the runner rebuilds the process pool (bounded rebuilds
  with exponential backoff) and re-dispatches the in-flight shards,
  probing them one at a time so the shard that actually killed the
  worker is attributable; a shard that kills three workers
  (:data:`~repro.bench.engine.runner.QUARANTINE_AFTER`) is recorded
  with status ``quarantined`` and the campaign continues under
  ``keep_going``.  ``wal_path`` appends every folded shard to an
  fsync'd write-ahead journal (:mod:`repro.bench.engine.wal`), and is
  the one resume input: a path that already holds the campaign's
  journal is continued — replay it, re-run only the missing shards,
  bit-identical totals — so a failed, drained or SIGKILL'd run finishes
  by running again over the same journal.  The manifest is a record
  that nothing reads back.  A :class:`~repro.bench.engine.supervise.
  ShutdownSignal` drains in-flight shards on SIGTERM/SIGINT and still
  writes the partial manifest, and ``timeout`` gives each shard attempt
  a deadline, counted from its submission, past which the shard is
  recorded ``timeout`` and its worker terminated.

Totals are exact for any executor, fold order, retry count, crash
history, or resume history — see :mod:`repro.bench.streaming` for the
contract and ``docs/benchmarking.md`` ("Crash recovery") for the
operational story.
"""

from __future__ import annotations

import os
import signal as signal_module
import time
from dataclasses import dataclass, field
from typing import Any

from repro.bench.engine.artifacts import ArtifactCodec, ArtifactKey, ArtifactStore
from repro.bench.engine.faults import PARENT_FAULT_ID, FaultPlan, FaultSpec
from repro.bench.engine.manifest import FailureRecord
from repro.bench.engine.runner import TaskRun, check_policy, worker_cached
from repro.bench.engine.supervise import ShutdownSignal
from repro.bench.engine.wal import (
    JournalHeader,
    JournalReplay,
    ShardJournal,
    open_journal,
)
from repro.bench.result import DEFAULT_SEED
from repro.bench.streaming import (
    CampaignAccumulator,
    ShardCells,
    StreamingCampaignResult,
    evaluate_shard,
)
from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.tools.families import get_family, suite_for_ecosystem
from repro.workload.ecosystems import DEFAULT_ECOSYSTEM, get_ecosystem
from repro.workload.sharded import DEFAULT_SHARD_SIZE, ShardPlan, plan_shards

__all__ = [
    "SHARD_MANIFEST_SCHEMA",
    "SHARD_STATUSES",
    "ShardRunRecord",
    "ShardRunManifest",
    "ShardedCampaignRun",
    "shard_fault_id",
    "run_sharded_campaign",
]

SHARD_MANIFEST_SCHEMA = "repro/shard-run@2"

#: Valid values of :attr:`ShardRunRecord.status` (shards have no
#: dependencies, so there is no ``skipped``).  ``quarantined`` marks a
#: shard that kept killing its workers; ``timeout`` a shard whose attempt
#: ran past its deadline.
SHARD_STATUSES = ("completed", "failed", "quarantined", "timeout")


def shard_fault_id(index: int) -> str:
    """The fault-plan id targeting shard ``index`` (``S000003`` for 3).

    Matches what ``parse_fault`` produces for ``--inject-fault s3`` /
    ``--inject-fault S000003`` after its uppercasing, so the CLI's fault
    syntax addresses shards without new parsing rules.
    """
    return f"S{index:06d}"


def _shard_cells_codec() -> ArtifactCodec:
    from repro.persist import shard_cells_from_dict, shard_cells_to_dict

    return ArtifactCodec(
        to_dict=shard_cells_to_dict, from_dict=shard_cells_from_dict
    )


def _shard_key(
    plan: ShardPlan, index: int, families: tuple[str, ...]
) -> ArtifactKey:
    """The artifact-store key of shard ``index``'s cells.

    Keyed by ecosystem and tool families as well as the plan geometry, so
    same-seed campaigns over different ecosystems (or suite subsets) never
    collide in a shared cache.
    """
    return ArtifactKey(
        kind="shard-cells",
        name=f"s{index:06d}",
        params=(
            ("scale", plan.scale),
            ("seed", plan.seed),
            ("shard_size", plan.shard_size),
            ("ecosystem", plan.ecosystem),
            ("families", ",".join(families)),
        ),
    )


@dataclass(frozen=True)
class ShardRunRecord:
    """One shard's entry in the shard-run manifest."""

    index: int
    seed: int
    """The shard's own generation seed (derived, recorded for audit)."""
    n_units: int
    status: str = "completed"
    """``completed`` | ``failed`` | ``quarantined`` | ``timeout``."""
    attempts: int = 1
    wall_seconds: float = 0.0
    cells: ShardCells | None = None
    """The shard's confusion cells (``None`` for failed shards); stored in
    the manifest so executor-parity checks can compare shards."""
    failure: FailureRecord | None = None

    def __post_init__(self) -> None:
        if self.status not in SHARD_STATUSES:
            raise ConfigurationError(
                f"invalid shard status {self.status!r}; expected one of "
                f"{SHARD_STATUSES}"
            )
        if self.status == "completed" and self.cells is None:
            raise ConfigurationError(
                f"completed shard {self.index} record carries no cells"
            )

    @property
    def completed(self) -> bool:
        """Whether this shard delivered its cells."""
        return self.status == "completed"

    def to_dict(self) -> dict[str, Any]:
        """Serialize for the manifest (cells inline as shard-cells@1)."""
        from repro.persist import shard_cells_to_dict

        payload: dict[str, Any] = {
            "index": self.index,
            "seed": self.seed,
            "n_units": self.n_units,
            "status": self.status,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
        }
        if self.cells is not None:
            payload["cells"] = shard_cells_to_dict(self.cells)
        if self.failure is not None:
            payload["failure"] = self.failure.to_dict()
        return payload


@dataclass(frozen=True)
class ShardRunManifest:
    """The full record of one sharded campaign run.

    A record nothing reads back: a run resumes from its journal
    (``wal_path``), which holds every shard this manifest would.
    """

    seed: int
    scale: int
    shard_size: int
    jobs: int
    executor: str
    wall_seconds: float
    records: tuple[ShardRunRecord, ...]
    cache_dir: str | None = None
    ecosystem: str = DEFAULT_ECOSYSTEM
    """Ecosystem the corpus was generated under."""
    tool_families: tuple[str, ...] | None = None
    """Resolved tool-family keys the suite was built from."""
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def planned_shards(self) -> int:
        """Shards the recorded plan geometry implies (``ceil(scale /
        shard_size)``) — the denominator ``ok`` is judged against."""
        return (self.scale + self.shard_size - 1) // self.shard_size

    @property
    def ok(self) -> bool:
        """Whether every *planned* shard is present and completed.

        A manifest written by an interrupted (drained) run carries fewer
        records than the plan; it must not read as ok just because every
        shard it did run completed."""
        return len(self.records) == self.planned_shards and all(
            record.completed for record in self.records
        )

    @property
    def n_shards(self) -> int:
        """Shards this run actually recorded (``<= planned_shards``)."""
        return len(self.records)

    def record_for(self, index: int) -> ShardRunRecord:
        """One shard's record, by index."""
        for record in self.records:
            if record.index == index:
                return record
        raise ConfigurationError(
            f"manifest has no record for shard {index}; "
            f"covers {len(self.records)} shards"
        )

    def status_counts(self) -> dict[str, int]:
        """How many shards ended in each status."""
        totals = {status: 0 for status in SHARD_STATUSES}
        for record in self.records:
            totals[record.status] += 1
        return totals

    def summary_line(self) -> str:
        """A one-line human summary for logs and perf tracking."""
        units = sum(r.n_units for r in self.records if r.completed)
        line = (
            f"{units} units in {len(self.records)} shards "
            f"(shard_size={self.shard_size}) in {self.wall_seconds:.1f}s "
            f"(jobs={self.jobs}, executor={self.executor}, seed={self.seed}, "
            f"ecosystem={self.ecosystem})"
        )
        counts = self.status_counts()
        for status in ("failed", "quarantined", "timeout"):
            if counts[status]:
                line += f" [{counts[status]} {status}]"
        return line

    def to_dict(self) -> dict[str, Any]:
        """Serialize with the shard-run schema tag."""
        return {
            "schema": SHARD_MANIFEST_SCHEMA,
            "seed": self.seed,
            "scale": self.scale,
            "shard_size": self.shard_size,
            "jobs": self.jobs,
            "executor": self.executor,
            "wall_seconds": self.wall_seconds,
            "cache_dir": self.cache_dir,
            "ecosystem": self.ecosystem,
            **(
                {"tool_families": list(self.tool_families)}
                if self.tool_families is not None
                else {}
            ),
            "shards": [record.to_dict() for record in self.records],
            "statuses": self.status_counts(),
            **({"extra": self.extra} if self.extra else {}),
        }


@dataclass(frozen=True)
class ShardedCampaignRun:
    """Totals + manifest of one sharded campaign invocation."""

    totals: StreamingCampaignResult | None
    """Corpus-wide campaign totals (``None`` when no shard completed)."""
    manifest: ShardRunManifest

    @property
    def ok(self) -> bool:
        """Whether every shard completed."""
        return self.manifest.ok

    @property
    def interrupted(self) -> bool:
        """Whether a shutdown request drained this run before it finished
        (the manifest is partial; continuing the journal picks up the
        rest)."""
        return "interrupted" in self.manifest.extra


# ---------------------------------------------------------------------------
# Shard execution (shared by the inline and process paths)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardOutcome:
    """One evaluated shard, as its task body returns it."""

    index: int
    n_units: int
    wall_seconds: float
    cells: ShardCells


def _evaluate_one(
    plan: ShardPlan,
    index: int,
    attempt: int,
    store: ArtifactStore,
    tools: list,
    families: tuple[str, ...],
    fault: FaultSpec | None,
) -> _ShardOutcome:
    """Run one attempt of one shard against ``store``; return its outcome.

    The shard is decoded to its columnar record and scored from the
    tools' flag masks (:func:`~repro.bench.streaming.evaluate_shard`); no
    workload object is built.  The cells are memoized under the shard's
    artifact key, so a warm store (or a populated ``cache_dir``) satisfies
    the shard without generating it; the fault hook fires *before* the
    cache lookup, so injected failures exercise the retry path even on
    warm runs.
    """
    obs = store.obs
    spec = plan.spec(index)
    started = time.perf_counter()
    if fault is not None:
        fault.apply(attempt)

    def compute() -> ShardCells:
        with obs.tracer.span(
            "shard.generate", shard=index, units=spec.n_units, seed=spec.seed
        ):
            columns = plan.columns(index)
        obs.metrics.inc("engine.shards.units", columns.n_units)
        obs.metrics.inc("engine.shards.sites", columns.n_sites)
        with obs.tracer.span(
            "shard.evaluate", shard=index, tools=len(tools)
        ):
            return evaluate_shard(tools, columns, index, obs.tracer)

    cells = store.get_or_compute(
        _shard_key(plan, index, families),
        compute,
        codec=_shard_cells_codec(),
        requester=f"shard:{index}",
    )
    return _ShardOutcome(
        index=index,
        n_units=spec.n_units,
        wall_seconds=time.perf_counter() - started,
        cells=cells,
    )


@dataclass(frozen=True)
class _WorkerContext:
    """The ~100-byte per-task context a shard submission ships.

    Replaces the old pool-initializer pinning: the plan is a pure function
    of ``(scale, shard_size, seed, ecosystem)``, so workers rebuild (and
    cache) it from these fields instead of unpickling the full plan — which
    is what lets one cached pool serve *different* campaigns across
    :func:`run_sharded_campaign` calls.
    """

    scale: int
    shard_size: int
    seed: int
    ecosystem: str
    families: tuple[str, ...]


#: Worker-process caches keyed by fields of the task's
#: :class:`_WorkerContext`, so one long-lived worker serves many
#: campaigns: reconstructed shard plans and built tool suites (the
#: artifact store is the runner's, shared with experiments).
_WORKER_PLANS: dict[tuple[int, int, int, str], ShardPlan] = {}
_WORKER_SUITES: dict[tuple[str, int, tuple[str, ...]], list] = {}


def _evaluate_in_worker(
    store: ArtifactStore,
    ctx: _WorkerContext,
    index: int,
    attempt: int,
    fault: FaultSpec | None,
) -> _ShardOutcome:
    """Process-side body: evaluate one shard against the worker's store."""
    plan = worker_cached(
        _WORKER_PLANS,
        (ctx.scale, ctx.shard_size, ctx.seed, ctx.ecosystem),
        lambda: plan_shards(
            scale=ctx.scale,
            shard_size=ctx.shard_size,
            seed=ctx.seed,
            ecosystem=ctx.ecosystem,
        ),
    )
    tools = worker_cached(
        _WORKER_SUITES,
        (ctx.ecosystem, ctx.seed, ctx.families),
        lambda: suite_for_ecosystem(
            ctx.ecosystem, seed=ctx.seed, families=ctx.families
        ),
    )
    return _evaluate_one(
        plan, index, attempt, store, tools, ctx.families, fault
    )


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
class _FoldSink:
    """Where completed cells go: accumulator, optional journal, chaos.

    Folding and journalling are one step so the write-ahead journal can
    never drift from the totals; the parent-side chaos faults
    (``PARENT:kill=K`` / ``PARENT:stop=N``) hook here because "after N
    folded shards" is the only deterministic parent-side clock.
    """

    def __init__(
        self,
        accumulator: CampaignAccumulator,
        journal: ShardJournal | None,
        obs: Observability,
        shutdown: ShutdownSignal,
        parent_fault: FaultSpec | None = None,
    ) -> None:
        self.accumulator = accumulator
        self.journal = journal
        self.obs = obs
        self.shutdown = shutdown
        self.parent_fault = parent_fault
        self.folds = 0

    def fold(self, cells: ShardCells) -> None:
        """Fold one freshly computed shard (journalled, chaos-eligible)."""
        self.accumulator.fold(cells)
        if self.journal is not None:
            self.journal.append_cells(cells.to_array())
            self.obs.metrics.inc("engine.wal.records")
        self.folds += 1
        self._apply_parent_fault()

    def _apply_parent_fault(self) -> None:
        fault = self.parent_fault
        if fault is None:
            return
        if fault.kill_attempts and self.folds >= fault.kill_attempts:
            # A simulated parent crash: SIGKILL flushes nothing — which is
            # the point; the journal already holds every folded shard.
            os.kill(os.getpid(), signal_module.SIGKILL)
        if fault.stop_after and self.folds >= fault.stop_after:
            self.shutdown.request("injected parent stop")


def run_sharded_campaign(
    scale: int | None = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    executor: str | None = None,
    keep_going: bool = False,
    retries: int = 0,
    cache_dir: str | None = None,
    obs: Observability | None = None,
    faults: FaultPlan | None = None,
    ecosystem: str = DEFAULT_ECOSYSTEM,
    tool_families: tuple[str, ...] | None = None,
    timeout: float | None = None,
    wal_path: str | None = None,
    shutdown: ShutdownSignal | None = None,
) -> ShardedCampaignRun:
    """Run an ecosystem's tool suite over a sharded ``scale``-unit corpus.

    ``ecosystem`` selects the registered
    :class:`~repro.workload.ecosystems.EcosystemProfile` that shapes every
    shard's workload and (by default) the tool suite; ``tool_families``
    restricts the suite to a subset of registered families.  The default
    ecosystem runs the historical reference suite over the historical
    corpus, bit-identically to runs predating these parameters.

    Shards execute inline (``executor="thread"``) or in worker processes
    (``executor="process"``); left unset, the executor is ``process``
    when ``jobs > 1`` or a ``timeout`` is set and ``thread`` otherwise,
    and the manifest records the resolved value.  The engine's error
    policy applies (``retries`` re-attempts at the same derived shard seed;
    ``keep_going`` records terminal failures and continues; without it the
    first terminal failure aborts with
    :class:`~repro.errors.ExperimentFailedError` after draining in-flight
    shards).  Completed cells fold into a
    :class:`~repro.bench.streaming.CampaignAccumulator` as they arrive —
    the corpus never exists in memory, and the totals are bit-identical to
    the in-memory path regardless of ``jobs``/``executor``/fold order.

    ``wal_path`` journals every folded shard (fsync'd) and is the only
    resume input (:func:`~repro.bench.engine.wal.open_journal`): a path
    with no journal gets a fresh one, and a path holding a journal is
    continued — its shards fold verbatim and only the missing ones run.
    With ``scale=None`` the journal's own plan is used; with an explicit
    plan, it must equal the journal's (:class:`~repro.errors.
    ConfigurationError` otherwise, the file untouched).  Any other file
    at ``wal_path`` is refused (:class:`~repro.errors.PersistError`).

    Crash safety (see ``docs/benchmarking.md``, "Crash recovery"): a dead
    worker triggers supervision — the pool is rebuilt (at most
    :data:`~repro.bench.engine.runner.MAX_POOL_REBUILDS` times) and
    crashed shards are re-probed one at a time, quarantining any shard
    attributed :data:`~repro.bench.engine.runner.QUARANTINE_AFTER` worker
    kills.  ``shutdown`` is a cooperative drain request (the CLI arms it
    on SIGTERM/SIGINT): when requested, nothing new is submitted,
    in-flight shards finish, and the partial manifest is still returned
    (``extra["interrupted"]`` lists the unfinished shards).  ``timeout``
    gives each shard attempt that many seconds from its submission; one
    still running then is recorded ``timeout`` and its worker terminated.
    """
    executor = check_policy(
        retries=retries, timeout=timeout, jobs=jobs, executor=executor,
        faults=faults,
    )
    if shutdown is None:
        shutdown = ShutdownSignal()

    journal: ShardJournal | None = None
    replay: JournalReplay | None = None
    if scale is None:
        if wal_path is None:
            raise ConfigurationError(
                "scale is required unless continuing a journal (wal_path)"
            )
        journal, replay = open_journal(wal_path)
        header = replay.header
        scale, shard_size, seed = header.scale, header.shard_size, header.seed
        ecosystem, tool_families = header.ecosystem, header.tool_families
    profile = get_ecosystem(ecosystem)
    families = (
        tuple(tool_families)
        if tool_families is not None
        else profile.tool_families
    )
    for family_key in families:
        get_family(family_key)  # fail fast, listing registered names
    plan = plan_shards(
        scale=scale, shard_size=shard_size, seed=seed, ecosystem=ecosystem
    )
    store = ArtifactStore(cache_dir=cache_dir, obs=obs)
    obs = store.obs

    parent_fault = (
        faults.for_experiment(PARENT_FAULT_ID) if faults is not None else None
    )

    accumulator = CampaignAccumulator(
        [
            tool.name
            for tool in suite_for_ecosystem(
                profile, seed=seed, families=families
            )
        ],
        ecosystem=ecosystem,
    )
    if journal is None and wal_path is not None:
        journal, replay = open_journal(
            wal_path,
            JournalHeader(
                seed=seed,
                scale=scale,
                shard_size=shard_size,
                ecosystem=ecosystem,
                tool_names=accumulator.tool_names,
                tool_families=families,
            ),
        )
    if replay is not None and (
        tuple(replay.header.tool_names) != accumulator.tool_names
    ):
        journal.close()
        raise ConfigurationError(
            f"journal {wal_path} was written for tools "
            f"{list(replay.header.tool_names)}; this campaign scores "
            f"{list(accumulator.tool_names)}"
        )
    sink = _FoldSink(accumulator, journal, obs, shutdown, parent_fault)
    carried: dict[int, ShardRunRecord] = {}
    if replay is not None:
        for array in replay.arrays:
            cells = ShardCells.from_array(
                array, replay.header.tool_names, ecosystem=ecosystem
            )
            if cells.shard_index in accumulator:
                continue  # replay dedupes, but stay idempotent regardless
            accumulator.fold(cells)  # already on disk: not journaled again
            carried[cells.shard_index] = ShardRunRecord(
                index=cells.shard_index,
                seed=plan.spec(cells.shard_index).seed,
                n_units=cells.n_units,
                status="completed",
                cells=cells,
            )
        obs.metrics.inc("engine.shards.carried", len(carried))
    pending = [
        index for index in range(plan.n_shards) if index not in carried
    ]

    run_started = time.perf_counter()
    try:
        with obs.tracer.span(
            "engine.shard_run",
            seed=seed,
            scale=scale,
            shard_size=shard_size,
            shards=len(pending),
            jobs=jobs,
            executor=executor,
            ecosystem=ecosystem,
        ):
            records = _ShardRun(
                plan,
                pending,
                store,
                sink,
                families,
                jobs=jobs,
                executor=executor,
                keep_going=keep_going,
                retries=retries,
                timeout=timeout,
                faults=faults,
                shutdown=shutdown,
            ).execute()
    finally:
        if journal is not None:
            journal.close()
    wall = time.perf_counter() - run_started
    obs.metrics.inc("engine.shard_runs")

    manifest_records = tuple(
        carried[index] if index in carried else records[index]
        for index in sorted({*carried, *records})
    )
    extra: dict[str, Any] = {}
    if journal is not None:
        extra["wal"] = str(journal.path)
    if obs.tracer.enabled:
        extra["observability"] = {"spans": obs.tracer.summary()}
    if replay is not None:
        extra["resume"] = {"carried": sorted(carried), "source": "wal"}
    if shutdown.requested:
        extra["interrupted"] = {
            "reason": shutdown.reason,
            "unfinished": [
                index
                for index in range(plan.n_shards)
                if index not in carried and index not in records
            ],
        }
    manifest = ShardRunManifest(
        seed=seed,
        scale=scale,
        shard_size=shard_size,
        jobs=jobs,
        executor=executor,
        wall_seconds=wall,
        records=manifest_records,
        cache_dir=str(store.cache_dir) if store.cache_dir is not None else None,
        ecosystem=ecosystem,
        tool_families=families,
        extra=extra,
    )
    totals = accumulator.result() if accumulator.folded else None
    return ShardedCampaignRun(totals=totals, manifest=manifest)


class _ShardRun(TaskRun):
    """Shards on the engine's task loop: keyed by index, no dependencies;
    completed cells fold into the sink as they arrive."""

    noun = "shard"
    prefix = "engine.shards"
    seconds_histogram = "engine.shard.seconds"
    window_per_job = 4

    def __init__(
        self,
        plan: ShardPlan,
        pending: list[int],
        store: ArtifactStore,
        sink: _FoldSink,
        families: tuple[str, ...],
        **policy,
    ) -> None:
        cache_dir = str(store.cache_dir) if store.cache_dir is not None else None
        super().__init__(
            pending,
            store,
            plan.seed,
            ("shards", plan.seed, cache_dir, plan.ecosystem),
            **policy,
        )
        self.plan = plan
        self.sink = sink
        self.families = families
        self.tools = (
            suite_for_ecosystem(
                plan.ecosystem, seed=plan.seed, families=families
            )
            if self.executor == "thread"
            else None
        )
        self.ctx = _WorkerContext(
            scale=plan.scale,
            shard_size=plan.shard_size,
            seed=plan.seed,
            ecosystem=plan.ecosystem,
            families=families,
        )

    def fault_ids(self, index: int) -> tuple[str, ...]:
        # Padded (S000003) and bare (S3) ids both address shard 3.
        return (shard_fault_id(index), f"S{index}")

    def run_local(self, index, attempt, fault):
        return _evaluate_one(
            self.plan, index, attempt, self.store, self.tools,
            self.families, fault,
        )

    def worker_call(self, index, attempt, fault):
        return (_evaluate_in_worker, self.ctx, index, attempt, fault)

    def accept(self, index, attempt, outcome):
        if self.executor == "process":
            self.store.put(
                _shard_key(self.plan, index, self.families), outcome.cells
            )
        self.sink.fold(outcome.cells)
        return ShardRunRecord(
            index=index,
            seed=self.plan.spec(index).seed,
            n_units=outcome.n_units,
            status="completed",
            attempts=attempt,
            wall_seconds=outcome.wall_seconds,
            cells=outcome.cells,
        )

    def unfinished_record(self, index, status, failure=None, skip_reason=None):
        spec = self.plan.spec(index)
        return ShardRunRecord(
            index=index,
            seed=spec.seed,
            n_units=spec.n_units,
            status=status,
            attempts=failure.attempts,
            failure=failure,
        )
