"""Benchmark-as-a-service: a long-running campaign service over the engine.

The batch CLI runs one campaign and exits; this package keeps the engine
resident behind a small HTTP surface so many tenants can submit sharded
campaigns, watch shard-level progress, and query finished totals:

- :mod:`repro.serve.fairness` — weighted deficit round-robin across
  tenants, so one abusive tenant cannot starve the rest;
- :mod:`repro.serve.queue` — the persistent job queue (one schema-tagged
  JSON record per job, atomically rewritten on every transition);
- :mod:`repro.serve.cache` — an LRU hot cache over the result disk tier
  for read-heavy clients;
- :mod:`repro.serve.service` — the scheduler that dispatches queued jobs
  onto :func:`~repro.bench.engine.shards.run_sharded_campaign`, each under
  its own write-ahead journal;
- :mod:`repro.serve.app` — the asyncio HTTP front end (stdlib only);
- :mod:`repro.serve.trace` — the Poisson workload model used by the
  fairness tests and ``benchmarks/bench_serve.py``.

Crash safety is inherited, not reimplemented: every running job journals
its shard cells through the PR 9 WAL, so a service killed with ``SIGKILL``
mid-campaign resumes every in-flight job on restart with totals
bit-identical to an uninterrupted run (architecture invariant 9).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.fairness": ("DeficitRoundRobin", "QueuedJob"),
        "repro.serve.queue": ("JobSpec", "JobRecord", "JobQueue", "JOB_STATES"),
        "repro.serve.cache": ("ResultCache",),
        "repro.serve.service": ("CampaignService", "ServiceConfig"),
        "repro.serve.trace": ("PoissonTrace", "TraceEvent", "build_trace"),
    },
)
