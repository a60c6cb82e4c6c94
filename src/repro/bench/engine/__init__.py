"""Declarative experiment engine: specs, shared artifacts, scheduling.

The engine replaces the old call-each-other experiment chain with these
pieces:

- :class:`ExperimentSpec` — per-experiment metadata (id, title, seedless
  flag, declared dependencies) registered by each driver module;
- :class:`ArtifactStore` / :class:`RunContext` — keyed memoization of the
  shared artifacts (reference workload, campaign, properties matrices,
  upstream experiment results), with an optional on-disk JSON tier built on
  :mod:`repro.persist`;
- :func:`run_experiments` — a fault-tolerant scheduler that topologically
  orders the dependency graph, optionally runs independent experiments in
  parallel, survives failures (``keep_going`` / ``retries`` / ``timeout``,
  cascade-skipping dependents), resumes interrupted runs from a prior
  manifest, and emits a :class:`RunManifest` recording wall times, cache
  traffic and per-experiment statuses;
- :func:`run_sharded_campaign` — the same machinery over the seed-addressed
  shards of a ``--scale`` campaign, folding cells into exact totals, with
  a write-ahead journal (its one resume input) and graceful drain;
- :mod:`~repro.bench.engine.runner` — the one supervised task loop both of
  those drive: inline or process-pool execution, retries, keep-going,
  worker-crash supervision and the per-attempt ``timeout`` deadline;
- :mod:`~repro.bench.engine.faults` — a deterministic fault-injection
  harness (fail-on-attempt-K, hang-for-N-seconds, kill-the-worker,
  corrupt-artifact-bytes) the test suite uses to exercise every failure
  path on both executors.

Serial and parallel runs at the same seed produce byte-identical rendered
reports; the manifest is how you check that the expensive artifacts were
computed once per store (once in a serial run, once per worker in a
process run).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bench.engine.artifacts": (
            "ArtifactCodec", "ArtifactEvent", "ArtifactKey", "ArtifactStore",
        ),
        "repro.bench.engine.context": (
            "RunContext", "UncacheableParameter", "ensure_context",
        ),
        "repro.bench.engine.faults": (
            "FaultPlan", "FaultSpec", "InjectedFault", "corrupt_file", "parse_fault",
        ),
        "repro.bench.engine.manifest": (
            "MANIFEST_SCHEMA", "STATUSES", "ExperimentRunRecord", "FailureRecord",
            "RunManifest",
        ),
        "repro.bench.engine.scheduler": (
            "EngineRun", "EXECUTORS", "run_experiments", "topological_order",
        ),
        "repro.bench.engine.shards": (
            "SHARD_MANIFEST_SCHEMA", "SHARD_STATUSES", "ShardedCampaignRun",
            "ShardRunManifest", "ShardRunRecord", "run_sharded_campaign",
            "shard_fault_id",
        ),
        "repro.bench.engine.spec": (
            "ExperimentSpec", "all_specs", "experiment_ids", "get_spec",
            "register_spec",
        ),
    },
)
