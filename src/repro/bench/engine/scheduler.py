"""Dependency-aware, fault-tolerant experiment scheduler.

Orders the requested experiments topologically over their declared
``depends_on`` edges and runs them through the engine's one task loop
(:class:`~repro.bench.engine.runner.TaskRun`).  Two executors are
available: ``thread`` runs :func:`_execute` inline on the calling
thread, one experiment at a time, against the run's own artifact store;
``process`` runs it in worker processes, against each worker's own
store, up to ``jobs`` at a time.  Left unset, the executor is
``process`` when ``jobs > 1`` or a ``timeout`` is set and ``thread``
otherwise (:func:`~repro.bench.engine.runner.check_policy`).  Every
stochastic component downstream derives its streams from explicit seeds
(see :mod:`repro._rng`), so a parallel run produces byte-identical
rendered reports to a serial run at the same seed; only the wall clock
changes.

Fault tolerance: real campaigns are long and failure-prone, so a failing
experiment no longer aborts the suite by default semantics alone —

- ``retries=N`` re-runs a failed experiment up to N extra times *with the
  same explicit seed*, so a transient-failure rerun is bit-identical to a
  clean run;
- ``keep_going=True`` captures a terminal failure as a structured
  :class:`~repro.bench.engine.manifest.FailureRecord` in the manifest,
  cascade-**skips** its in-set dependents (with a recorded reason), and
  lets every independent experiment run to completion;
- ``timeout=SECONDS`` gives each attempt a deadline: an attempt still
  running ``timeout`` seconds after its submission is recorded with
  status ``timeout`` and abandoned, and the run retires its worker pool,
  terminating the hung worker;
- on the process executor a dead worker is supervised: the pool is
  rebuilt and the crashed experiments re-dispatched one at a time, and
  an experiment that keeps killing its workers is recorded ``failed``
  with a :class:`~repro.errors.WorkerCrashError`;
- without ``keep_going``, the first terminal failure aborts the run: not-
  yet-started tasks are cancelled, in-flight ones drained, and a
  :class:`~repro.errors.ExperimentFailedError` (or
  :class:`~repro.errors.ExperimentTimeoutError`) is raised with the
  original exception as ``__cause__``.

``resume_from=`` re-executes only a prior manifest's non-completed
experiments (against the warm artifact store / disk cache) and carries the
completed records over, so a crash-interrupted campaign finishes without
redoing finished work.

Observability: the whole run executes under an ``engine.run`` span, each
experiment under an ``experiment.<id>`` span (retry attempts additionally
under ``experiment.retry``), and the scheduler feeds the
``engine.experiments.*`` counters — ``scheduled`` / ``completed`` /
``failed`` / ``retried`` / ``skipped`` / ``timeout``, plus
``redispatched`` / ``quarantined`` under worker supervision — and the
``engine.experiment.seconds`` histogram; when tracing is on, the span
summary lands in the manifest's ``extra["observability"]``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

from repro.bench.engine.artifacts import ArtifactStore
from repro.bench.engine.context import RunContext
from repro.bench.engine.faults import FaultPlan, FaultSpec
from repro.bench.engine.manifest import ExperimentRunRecord, RunManifest
from repro.bench.engine.runner import EXECUTORS, TaskRun, check_policy
from repro.bench.engine.spec import ExperimentSpec, get_spec
from repro.bench.result import DEFAULT_SEED, ExperimentResult
from repro.errors import ConfigurationError
from repro.obs import Observability

__all__ = [
    "EngineRun",
    "EXECUTORS",
    "run_experiments",
    "topological_order",
]


@dataclass(frozen=True)
class EngineRun:
    """Results + manifest of one engine invocation."""

    results: dict[str, ExperimentResult]
    """Results of experiments that *completed*, keyed by id, in requested
    order (failed/skipped/timed-out experiments have no result)."""
    manifest: RunManifest
    store: ArtifactStore
    """The artifact store used (reusable for warm follow-up runs)."""

    @property
    def ok(self) -> bool:
        """Whether every experiment completed."""
        return self.manifest.ok


def topological_order(ids: Sequence[str]) -> list[ExperimentSpec]:
    """The requested experiments, dependencies-first.

    Edges to experiments outside the requested set are ignored — the
    artifact store satisfies those on demand.  Ties break on canonical
    experiment order, so for the full suite this degenerates to R1..R20.
    """
    specs = {spec.experiment_id: spec for spec in (get_spec(i) for i in ids)}
    remaining_deps = {
        key: {dep for dep in spec.depends_on if dep in specs}
        for key, spec in specs.items()
    }
    ordered: list[ExperimentSpec] = []
    while remaining_deps:
        ready = [key for key, deps in remaining_deps.items() if not deps]
        if not ready:
            raise ConfigurationError(
                f"dependency cycle among experiments: {sorted(remaining_deps)}"
            )
        # Pop one node at a time, lowest index first, so the serial order for
        # the full suite is exactly R1..R20 (not dependency-layer order).
        key = min(ready, key=lambda key: specs[key].index)
        ordered.append(specs[key])
        del remaining_deps[key]
        for deps in remaining_deps.values():
            deps.discard(key)
    return ordered


def _execute(
    store: ArtifactStore,
    seed: int,
    experiment_id: str,
    attempt: int = 1,
    fault: FaultSpec | None = None,
) -> tuple[ExperimentRunRecord, ExperimentResult]:
    """Run one attempt of one experiment; return its record and result.

    The task body of both executors: it runs against the run's store
    inline on the calling thread, and against the worker's own
    store in a worker process — which is why the experiment is addressed
    by id (specs carry the driver callable) and re-resolved through the
    registry.  Lifecycle counters are the *runner's* job — a record
    returned here only counts once the runner accepts it, so an abandoned
    (timed-out) attempt that eventually finishes cannot skew the totals.
    """
    spec = get_spec(experiment_id)
    context = RunContext(seed=seed, store=store)
    obs = context.obs
    child = context.for_experiment(spec.experiment_id)
    already = len(context.store.events_for(spec.experiment_id))
    params = {} if spec.seedless else {"seed": context.seed}
    retry_span = (
        obs.tracer.span(
            "experiment.retry", experiment=spec.experiment_id, attempt=attempt
        )
        if attempt > 1
        else nullcontext()
    )
    started = time.perf_counter()
    with retry_span:
        with obs.tracer.span(
            f"experiment.{spec.experiment_id}",
            title=spec.title,
            seed=None if spec.seedless else context.seed,
        ):
            if fault is not None:
                fault.apply(attempt)
            if obs.profiler is not None:
                with obs.profiler.profile(spec.experiment_id):
                    result = child.experiment(spec.experiment_id, **params)
            else:
                result = child.experiment(spec.experiment_id, **params)
    elapsed = time.perf_counter() - started
    events = context.store.events_for(spec.experiment_id)[already:]
    record = ExperimentRunRecord(
        experiment_id=spec.experiment_id,
        title=spec.title,
        seed=None if spec.seedless else context.seed,
        wall_seconds=elapsed,
        artifacts=tuple(events),
        attempts=attempt,
    )
    return record, result


class _ExperimentRun(TaskRun):
    """Experiments on the engine's task loop: keyed by id, with in-set
    dependency edges; workers' results are seeded into the parent store."""

    noun = "experiment"
    prefix = "engine.experiments"
    seconds_histogram = "engine.experiment.seconds"

    def __init__(
        self, ordered: Sequence[ExperimentSpec], context: RunContext, **policy
    ) -> None:
        self.specs = {spec.experiment_id: spec for spec in ordered}
        self.context = context
        self.results: dict[str, ExperimentResult] = {}
        store = context.store
        cache_dir = str(store.cache_dir) if store.cache_dir is not None else None
        super().__init__(
            list(self.specs),
            store,
            context.seed,
            ("experiments", context.seed, cache_dir),
            deps={
                key: tuple(dep for dep in spec.depends_on if dep in self.specs)
                for key, spec in self.specs.items()
            },
            **policy,
        )

    def fault_ids(self, key: str) -> tuple[str, ...]:
        return (key,)

    def worker_call(self, key, attempt, fault):
        return (_execute, self.seed, key, attempt, fault)

    def accept(self, key, attempt, value):
        record, result = value
        self.results[key] = result
        if self.executor == "process":
            # Computed in a worker's store; seed the parent's so a warm
            # follow-up run on it finds the result.
            spec = self.specs[key]
            params = {} if spec.seedless else {"seed": self.seed}
            store_key = self.context._experiment_key(spec, params)
            if store_key is not None:
                self.store.put(store_key, result)
        return record

    def unfinished_record(self, key, status, failure=None, skip_reason=None):
        spec = self.specs[key]
        return ExperimentRunRecord(
            experiment_id=key,
            title=spec.title,
            seed=None if spec.seedless else self.seed,
            wall_seconds=0.0,
            artifacts=(),
            # run-manifest@2 has no "quarantined" status: an experiment
            # that kept killing its workers is failed, its WorkerCrashError
            # on file.
            status="failed" if status == "quarantined" else status,
            attempts=failure.attempts if failure is not None else 0,
            failure=failure,
            skip_reason=skip_reason,
        )


def run_experiments(
    ids: Sequence[str] = (),
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    store: ArtifactStore | None = None,
    cache_dir: str | None = None,
    obs: Observability | None = None,
    executor: str | None = None,
    keep_going: bool = False,
    retries: int = 0,
    timeout: float | None = None,
    faults: FaultPlan | None = None,
    resume_from: RunManifest | None = None,
) -> EngineRun:
    """Run ``ids`` through the engine; returns results plus a manifest.

    ``executor="thread"`` runs the experiments inline, one at a time;
    ``executor="process"`` runs up to ``jobs`` independent experiments at
    once in a supervised :class:`~concurrent.futures.ProcessPoolExecutor`
    (even at ``jobs=1``; a dead worker's experiments are re-dispatched on
    a rebuilt pool).  Left unset, the executor is ``process`` when
    ``jobs > 1`` or a ``timeout`` is set and ``thread`` otherwise; an
    explicit ``thread`` with either raises
    :class:`~repro.errors.ConfigurationError`.  Determinism is
    unaffected: every experiment receives the same explicit seed either
    way (retries included), and each store computes a shared artifact
    once.

    ``keep_going`` / ``retries`` / ``timeout`` form the error policy (see
    the module docstring).  ``faults`` installs a
    deterministic :class:`~repro.bench.engine.faults.FaultPlan`, used by
    the test suite and the CI smoke to exercise the failure paths.

    ``resume_from`` takes a prior run's manifest: only its non-completed
    experiments are (re-)executed — at the *manifest's* seed, so the
    combined results are bit-identical to a single clean run — and its
    completed records are carried into the new manifest unchanged (their
    results are not re-collected).  ``ids`` is ignored when resuming.

    ``obs`` carries the run's tracer/metrics/profiler bundle; when a
    ``store`` is reused across runs, passing ``obs`` rebinds the store's
    bundle so a warm run can still be traced on its own timeline.  The
    process executor merges each worker's metrics and spans back into this
    bundle; profiling is thread-executor-only, because cProfile sessions
    cannot be merged across processes.
    """
    executor = check_policy(
        retries=retries, timeout=timeout, jobs=jobs, executor=executor,
        faults=faults,
    )

    carried: dict[str, ExperimentRunRecord] = {}
    if resume_from is not None:
        seed = resume_from.seed
        requested = list(resume_from.experiment_ids)
        carried = {
            record.experiment_id: record
            for record in resume_from.records
            if record.completed
        }
        run_ids = [key for key in requested if key not in carried]
    else:
        # Duplicate requested ids collapse to one execution and one record.
        requested = list(dict.fromkeys(get_spec(i).experiment_id for i in ids))
        run_ids = list(requested)

    ordered = topological_order(run_ids)
    if store is None:
        store = ArtifactStore(cache_dir=cache_dir, obs=obs)
    elif obs is not None:
        store.obs = obs
    obs = store.obs
    if executor == "process" and obs.profiler is not None:
        raise ConfigurationError(
            "profiling requires the thread executor: cProfile sessions "
            "cannot be merged across worker processes"
        )
    context = RunContext(seed=seed, store=store)

    run_started = time.perf_counter()
    with obs.tracer.span(
        "engine.run",
        seed=seed,
        jobs=jobs,
        experiments=len(ordered),
        executor=executor,
    ):
        run = _ExperimentRun(
            ordered,
            context,
            jobs=jobs,
            executor=executor,
            keep_going=keep_going,
            retries=retries,
            timeout=timeout,
            faults=faults,
        )
        records = run.execute()
    wall = time.perf_counter() - run_started
    obs.metrics.inc("engine.runs")
    obs.metrics.set_gauge("engine.wall_seconds", wall)
    obs.metrics.set_gauge("engine.jobs", jobs)

    # Only completed experiments of *this* run have results.
    results = {key: run.results[key] for key in requested if key in run.results}
    manifest_records = tuple(
        carried[key] if key in carried else records[key] for key in requested
    )
    extra: dict[str, object] = {}
    if obs.tracer.enabled:
        extra["observability"] = {"spans": obs.tracer.summary()}
    if resume_from is not None:
        extra["resume"] = {"carried": sorted(carried)}
    manifest = RunManifest(
        seed=seed,
        jobs=jobs,
        wall_seconds=wall,
        records=manifest_records,
        cache_dir=str(store.cache_dir) if store.cache_dir is not None else None,
        extra=extra,
    )
    return EngineRun(results=results, manifest=manifest, store=store)
