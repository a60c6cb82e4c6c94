"""Benchmark smoke checker: the perf claims must stay checkable in seconds.

The full benchmark suite (``benchmarks/``) regenerates every reproduction
artifact and takes minutes; CI cannot afford that on every push, but it
*can* afford to verify that the machinery behind the committed numbers
still works.  This checker runs three fast probes:

1. **Kernel parity** — the vectorized batch kernels produce exactly the
   scalar values over a handful of confusion matrices (including a
   degenerate one), for every registered metric.
2. **Resampler stream identity** — the single-call multinomial resampler
   draws the same stream as the per-resample scalar loop at the same seed,
   so ``bootstrap_metric`` and ``bootstrap_metric_scalar`` must return
   identical summaries; one ``bootstrap_metric_batch`` call over the kernel
   parity matrices (one seed each) must equal the scalar loop per matrix,
   for every registered metric.
2b. **Generation parity** — the columnar workload generator produces
   byte-identical output to the scalar reference on a small corpus, and
   is not slower than it (the 10x claim lives in the full bench; CI only
   guards the machinery and the direction).
2c. **Evaluation parity** — for every registered ecosystem, a 2-shard
   ``run_sharded_campaign`` (tools scored from ``flag_sites`` masks over
   shard columns) equals ``materialized_totals`` (``analyze`` reports
   over materialized workloads, scored by ``score_report``) exactly.
3. **Dump schema** — ``results/BENCH_engine.json`` and
   ``results/BENCH_shard.json``, when present, carry the expected schema
   tags and the sections the docs cite; the shard dump's memory rows
   must be the throughput rows of the same ``(scale, shard_size)``.
4. **Fault-injection smoke** — a real ``repro run --keep-going`` with an
   injected mid-graph failure must isolate it (independents complete,
   dependents skip), write a structurally sound partial manifest, and
   exit non-zero.
5. **Shard-scale smoke** — a small ``repro run --scale`` campaign on both
   executors must exit 0, write a ``repro/shard-run@2`` manifest with
   every shard completed, and produce per-shard cells identical across
   executors.
6. **Cross-ecosystem smoke** — the same sharded run under a non-default
   ``--ecosystem`` must record the ecosystem and its tool families in the
   manifest, produce per-shard cells identical across executors, and
   diverge from the default ecosystem's cells (different workload, not a
   relabel).
7. **Ecosystems dump schema** — ``results/BENCH_ecosystems.json``, when
   present, carries the expected schema tag, a full winner grid, and at
   least one recorded winner flip.
8. **Chaos-recovery smoke** — a SIGKILL'd worker recovers in-run (pool
   rebuild + re-dispatch), a hung shard is timed out under ``--timeout``
   and finished by ``--resume``, and a SIGKILL'd campaign *parent*
   recovers via ``--resume`` of its write-ahead journal — on both
   executors, with a torn journal tail tolerated — or by running its
   original command line again; every recovered run's per-shard cells
   equal the uninterrupted run's byte-for-byte, and ``--wal`` pointed at
   a JSON manifest fails without touching it.
9. **Serve dump schema** — ``results/BENCH_serve.json``, when present,
   carries the ``repro/bench-serve@1`` tag, the latency rows and the
   fairness section ``docs/serve.md`` cites, sane percentiles
   (``p99 >= p50 > 0``), and ``bounded: true`` for the abusive tenant.
10. **Serve smoke** — a real ``repro serve`` subprocess must accept a
    campaign over HTTP, run it to completion, and return totals equal to
    an in-process ``run_sharded_campaign`` at the same parameters.
11. **Cold start** — ``import repro``, ``run --scale 200``, ``run R3`` and
    ``import repro.serve.app``, each in a fresh interpreter, must load
    none of the modules :data:`COLD_START_GATES` keeps off their path
    (package exports resolve on first use; the registry imports one
    experiment module per id).

Usage::

    PYTHONPATH=src python tools/check_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_JSON = Path(__file__).resolve().parent.parent / "results" / "BENCH_engine.json"
BENCH_JSON_SCHEMA = "repro/bench-engine@1"
#: Sections the docs cite; a partial bench run must not silently drop one.
REQUIRED_SECTIONS = ("suite", "bootstrap", "executor", "tracing", "shard_executor")

SHARD_JSON = Path(__file__).resolve().parent.parent / "results" / "BENCH_shard.json"
SHARD_JSON_SCHEMA = "repro/bench-shard@1"
#: Sections docs/scaling.md cites.
SHARD_SECTIONS = ("parity", "generation", "throughput", "memory")

ECOSYSTEMS_JSON = (
    Path(__file__).resolve().parent.parent / "results" / "BENCH_ecosystems.json"
)
ECOSYSTEMS_JSON_SCHEMA = "repro/bench-ecosystems@1"
#: Sections docs/workloads.md cites from the R20 dump.
ECOSYSTEMS_SECTIONS = ("ecosystems", "winners", "taus", "flips")

#: The sharded-campaign manifest schema the CLI currently writes.
SHARD_MANIFEST_SCHEMA = "repro/shard-run@2"
#: ``--jobs`` per executor in the smokes: the thread executor runs tasks
#: inline, one at a time, and rejects ``--jobs`` above 1.
SMOKE_JOBS = {"thread": "1", "process": "2"}

SERVE_JSON = Path(__file__).resolve().parent.parent / "results" / "BENCH_serve.json"
SERVE_JSON_SCHEMA = "repro/bench-serve@1"
#: Sections docs/serve.md cites from the serve dump.
SERVE_SECTIONS = ("latency", "fairness")

_RUN = "from repro.cli import main\nif main({argv!r}):\n    raise SystemExit(1)"
#: Cold starts and what they must not load: ``(label, code run in a fresh
#: interpreter, forbidden modules, exempt modules)``.  A forbidden name
#: covers its submodules; an exempt name is allowed by exact match.
COLD_START_GATES = (
    ("import repro", "import repro", ("repro", "numpy"), ("repro", "repro._lazy")),
    (
        "run --scale 200",
        _RUN.format(argv=["run", "--scale", "200", "--seed", "5", "--quiet"]),
        (
            "repro.mcda", "repro.experts", "repro.scenarios", "repro.properties",
            "repro.stats", "repro.serve", "repro.bench.experiments",
            "multiprocessing", "asyncio", "cProfile",
        ),
        (),
    ),
    (
        "run R3",
        _RUN.format(argv=["run", "R3", "--seed", "5", "--quiet"]),
        ("repro.bench.experiments",),
        (
            "repro.bench.experiments", "repro.bench.experiments.base",
            "repro.bench.experiments.r3_campaign",
        ),
    ),
    (
        "import repro.serve.app",
        "import repro.serve.app",
        (
            "repro.mcda", "repro.experts", "repro.scenarios", "repro.properties",
            "repro.bench.experiments",
        ),
        (),
    ),
)


def _parity_matrices() -> list:
    """The confusion matrices the parity smokes sweep, two degenerate."""
    from repro.metrics.confusion import ConfusionMatrix

    return [
        ConfusionMatrix(tp=40, fp=25, fn=20, tn=515),
        ConfusionMatrix(tp=1, fp=0, fn=0, tn=30),
        ConfusionMatrix(tp=0, fp=0, fn=5, tn=5),  # degenerate: no positives found
        ConfusionMatrix(tp=7, fp=3, fn=2, tn=0),
    ]


def check_kernel_parity() -> list[str]:
    """Batch kernels must equal the scalar path, NaN-for-NaN."""
    import math

    from repro.metrics.batch import ConfusionBatch
    from repro.metrics.registry import default_registry

    matrices = _parity_matrices()
    batch = ConfusionBatch.from_matrices(matrices)
    problems = []
    for metric in default_registry():
        values = metric.compute_batch(batch)
        for index, cm in enumerate(matrices):
            scalar = metric.value_or_nan(cm)
            vector = float(values[index])
            same = (
                math.isnan(scalar) and math.isnan(vector)
            ) or scalar == vector
            if not same:
                problems.append(
                    f"kernel parity: {metric.symbol} at matrix {index}: "
                    f"scalar {scalar!r} != batch {vector!r}"
                )
    return problems


def check_resampler_identity() -> list[str]:
    """Batch and scalar bootstrap must agree exactly at the same seed."""
    from repro.metrics.registry import default_registry
    from repro.stats.bootstrap import (
        bootstrap_metric,
        bootstrap_metric_batch,
        bootstrap_metric_scalar,
    )

    matrices = _parity_matrices()
    cm = matrices[0]
    problems = []
    for metric in list(default_registry())[:5]:
        batch = bootstrap_metric(metric, cm, n_resamples=50, seed=2015)
        scalar = bootstrap_metric_scalar(metric, cm, n_resamples=50, seed=2015)
        if repr(batch) != repr(scalar):
            problems.append(
                f"resampler identity: {metric.symbol}: "
                f"{batch!r} != {scalar!r}"
            )
    seeds = [2015 + index for index in range(len(matrices))]
    for metric in default_registry():
        summaries = bootstrap_metric_batch(metric, matrices, seeds, n_resamples=50)
        for index, (cm, seed, summary) in enumerate(zip(matrices, seeds, summaries)):
            scalar = bootstrap_metric_scalar(metric, cm, n_resamples=50, seed=seed)
            if repr(summary) != repr(scalar):
                problems.append(
                    f"resampler identity: {metric.symbol} batched at matrix "
                    f"{index}: {summary!r} != {scalar!r}"
                )
    return problems


def check_generation_smoke() -> list[str]:
    """Columnar generation: identical bytes, and no slower than scalar."""
    import time

    from repro.persist import payload_digest, workload_to_dict
    from repro.workload.columnar import generate_workload_batch, supports_batch
    from repro.workload.generator import WorkloadConfig, generate_workload_scalar

    config = WorkloadConfig(n_units=400, seed=2015, name="bench-smoke")
    if not supports_batch(config):
        return [
            "generation smoke: the default config is outside the columnar "
            "path's envelope — campaigns would silently run scalar"
        ]
    problems = []
    generate_workload_batch(config)  # warm caches: steady-state comparison
    started = time.perf_counter()
    scalar = generate_workload_scalar(config)
    scalar_wall = time.perf_counter() - started
    started = time.perf_counter()
    batch = generate_workload_batch(config)
    batch_wall = time.perf_counter() - started
    if payload_digest(workload_to_dict(scalar)) != payload_digest(
        workload_to_dict(batch)
    ):
        problems.append(
            "generation smoke: columnar output is not byte-identical to the "
            "scalar reference at seed 2015"
        )
    if batch_wall > scalar_wall:
        problems.append(
            "generation smoke: columnar path is slower than scalar "
            f"({batch_wall:.3f}s vs {scalar_wall:.3f}s for 400 units)"
        )
    return problems


def check_evaluation_parity() -> list[str]:
    """Columnar evaluation == the object path, per registered ecosystem."""
    from repro.bench.engine.shards import run_sharded_campaign
    from repro.bench.streaming import materialized_totals
    from repro.tools.families import suite_for_ecosystem
    from repro.workload.ecosystems import ecosystem_names
    from repro.workload.sharded import plan_shards

    seed, scale, shard_size = 2015, 240, 120
    problems = []
    for ecosystem in ecosystem_names():
        run = run_sharded_campaign(
            scale=scale, shard_size=shard_size, seed=seed, ecosystem=ecosystem
        )
        reference = materialized_totals(
            suite_for_ecosystem(ecosystem, seed=seed),
            plan_shards(
                scale=scale, shard_size=shard_size, seed=seed,
                ecosystem=ecosystem,
            ),
        )
        if run.totals != reference:
            problems.append(
                f"evaluation parity: {ecosystem} sharded totals (flag_sites "
                "masks) differ from materialized_totals (analyze + "
                "score_report)"
            )
    return problems


def check_bench_json() -> list[str]:
    """The committed dump must be schema-tagged and structurally complete."""
    if not BENCH_JSON.exists():
        # Fresh checkouts before the first bench run have no dump; that is
        # not an error — the schema only has to hold once one exists.
        return []
    try:
        payload = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"bench json: {BENCH_JSON} is not valid JSON: {error}"]
    problems = []
    found = payload.get("schema")
    if found != BENCH_JSON_SCHEMA:
        problems.append(
            f"bench json: expected schema {BENCH_JSON_SCHEMA!r}, found {found!r}"
        )
    for section in REQUIRED_SECTIONS:
        if section not in payload:
            problems.append(f"bench json: missing section {section!r}")
    bootstrap = payload.get("bootstrap", {})
    if bootstrap and bootstrap.get("speedup", 0) < 1.0:
        problems.append(
            "bench json: recorded bootstrap speedup below 1x — the batch "
            f"path regressed ({bootstrap.get('speedup')})"
        )
    tracing = payload.get("tracing", {})
    if tracing:
        overhead = tracing.get("overhead_fraction")
        guard = tracing.get("guard_fraction")
        if overhead is None or guard is None:
            problems.append(
                "bench json: tracing section lacks overhead_fraction / "
                "guard_fraction"
            )
        elif overhead >= guard:
            problems.append(
                f"bench json: recorded tracing overhead {overhead:.1%} is at "
                f"or over the {guard:.0%} guard — the fast path regressed"
            )
    shard_executor = payload.get("shard_executor", {})
    if shard_executor:
        missing = {
            "campaign_scale", "shard_size", "jobs", "cpu_count", "rounds",
            "cache_hits", "thread_seconds", "thread_quartiles",
            "process_seconds", "process_quartiles",
            "process_speedup_vs_thread", "cells_identical",
            "speedup_asserted",
        } - set(shard_executor)
        if missing:
            problems.append(
                f"bench json: shard_executor section lacks {sorted(missing)}"
            )
        else:
            if shard_executor["cells_identical"] is not True:
                problems.append(
                    "bench json: shard_executor section does not record "
                    "byte-identical cells across executors"
                )
            # A timed run that folded cached cells measures the cache, not
            # the executor.
            if shard_executor["cache_hits"] != 0:
                problems.append(
                    "bench json: shard_executor timings include "
                    f"{shard_executor['cache_hits']} cache hit(s)"
                )
            # The >=1.5x process claim only holds where parallelism is
            # possible; the bench records whether it asserted it, keyed on
            # cpu_count.
            if (
                shard_executor["cpu_count"] >= 2
                and not shard_executor["speedup_asserted"]
            ):
                problems.append(
                    "bench json: shard_executor dump comes from a multi-core "
                    "machine but did not assert the process speedup"
                )
            if (
                shard_executor["speedup_asserted"]
                and shard_executor["process_speedup_vs_thread"] < 1.5
            ):
                problems.append(
                    "bench json: asserted process speedup below 1.5x "
                    f"({shard_executor['process_speedup_vs_thread']})"
                )
    return problems


def check_shard_json() -> list[str]:
    """The shard dump must be schema-tagged, complete, and record parity."""
    if not SHARD_JSON.exists():
        return []
    try:
        payload = json.loads(SHARD_JSON.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"shard json: {SHARD_JSON} is not valid JSON: {error}"]
    problems = []
    found = payload.get("schema")
    if found != SHARD_JSON_SCHEMA:
        problems.append(
            f"shard json: expected schema {SHARD_JSON_SCHEMA!r}, found {found!r}"
        )
    for section in SHARD_SECTIONS:
        if section not in payload:
            problems.append(f"shard json: missing section {section!r}")
    if payload.get("parity", {}).get("identical") is not True:
        problems.append(
            "shard json: parity section does not record identical totals"
        )
    rows = payload.get("throughput", {}).get("rows", [])
    if not rows:
        problems.append("shard json: throughput section has no rows")
    for row in rows:
        missing = {
            "scale", "shard_size", "wall_seconds",
            "units_per_second", "peak_rss_mb",
        } - set(row)
        if missing:
            problems.append(f"shard json: throughput row lacks {sorted(missing)}")
    measured = {(row.get("scale"), row.get("shard_size")): row for row in rows}
    for label in ("small", "large"):
        row = payload.get("memory", {}).get(label)
        if row is None:
            problems.append(f"shard json: memory section lacks {label!r}")
            continue
        if measured.get((row.get("scale"), row.get("shard_size"))) != row:
            problems.append(
                f"shard json: memory {label} row for "
                f"({row.get('scale')}, {row.get('shard_size')}) is not the "
                "throughput row of that configuration — one measurement "
                "per configuration"
            )
    generation = payload.get("generation", {}).get("rows", [])
    if "generation" in payload and not generation:
        problems.append("shard json: generation section has no rows")
    for row in generation:
        missing = {
            "ecosystem", "n_units", "scalar_units_per_second",
            "batch_units_per_second", "speedup", "identical",
        } - set(row)
        if missing:
            problems.append(f"shard json: generation row lacks {sorted(missing)}")
            continue
        if row["identical"] is not True:
            problems.append(
                f"shard json: generation row {row['ecosystem']!r} does not "
                "record byte-identical output"
            )
        if row["speedup"] < 1.0:
            problems.append(
                f"shard json: generation row {row['ecosystem']!r} records a "
                f"slowdown ({row['speedup']}) — the columnar path regressed"
            )
    return problems


def check_shard_scale() -> list[str]:
    """Sharded runs per executor: exit 0, identical totals."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    problems: list[str] = []
    cells_by_executor: dict[str, list] = {}
    executors = ("thread", "process")
    with tempfile.TemporaryDirectory() as tmp:
        for executor in executors:
            manifest_path = Path(tmp) / f"shards-{executor}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "run",
                    "--scale", "400", "--shard-size", "150",
                    "--jobs", SMOKE_JOBS[executor], "--executor", executor,
                    "--quiet", "--manifest", str(manifest_path),
                ],
                env=env,
                cwd=repo_root,
                capture_output=True,
                text=True,
                timeout=300,
            )
            if proc.returncode != 0:
                problems.append(
                    f"shard smoke ({executor}): exited "
                    f"{proc.returncode}: {proc.stderr[-500:]}"
                )
                continue
            payload = json.loads(manifest_path.read_text(encoding="utf-8"))
            if payload.get("schema") != SHARD_MANIFEST_SCHEMA:
                problems.append(
                    f"shard smoke ({executor}): manifest schema is "
                    f"{payload.get('schema')!r}, expected "
                    f"{SHARD_MANIFEST_SCHEMA!r}"
                )
                continue
            records = payload["shards"]
            if [r["status"] for r in records] != ["completed"] * 3:
                problems.append(
                    f"shard smoke ({executor}): expected 3 completed shards, "
                    f"got {[r['status'] for r in records]}"
                )
                continue
            cells_by_executor[executor] = [
                [r["cells"]["tp"], r["cells"]["fp"], r["cells"]["fn"], r["cells"]["tn"]]
                for r in records
            ]
    if len(cells_by_executor) == len(executors):
        reference = cells_by_executor["thread"]
        for executor, cells in cells_by_executor.items():
            if cells != reference:
                problems.append(
                    f"shard smoke: per-shard cells under {executor} differ "
                    "from the thread reference"
                )
    return problems


def check_ecosystems_json() -> list[str]:
    """The R20 dump must be schema-tagged, complete, and record a flip."""
    if not ECOSYSTEMS_JSON.exists():
        return []
    try:
        payload = json.loads(ECOSYSTEMS_JSON.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"ecosystems json: {ECOSYSTEMS_JSON} is not valid JSON: {error}"]
    problems = []
    found = payload.get("schema")
    if found != ECOSYSTEMS_JSON_SCHEMA:
        problems.append(
            f"ecosystems json: expected schema {ECOSYSTEMS_JSON_SCHEMA!r}, "
            f"found {found!r}"
        )
    for section in ECOSYSTEMS_SECTIONS:
        if section not in payload:
            problems.append(f"ecosystems json: missing section {section!r}")
    names = payload.get("ecosystems", [])
    if len(names) < 4:
        problems.append(
            f"ecosystems json: registry dump lists {len(names)} ecosystems, "
            "expected at least 4"
        )
    for scenario_key, row in payload.get("winners", {}).items():
        missing = set(names) - set(row)
        if missing:
            problems.append(
                f"ecosystems json: winner row {scenario_key!r} lacks "
                f"{sorted(missing)}"
            )
    if not payload.get("flips"):
        problems.append(
            "ecosystems json: no winner flips recorded — the cross-ecosystem "
            "claim (the adequate metric is ecosystem-dependent) is not backed"
        )
    for flip in payload.get("flips", []):
        missing = {"scenario", "ecosystem", "baseline", "winner"} - set(flip)
        if missing:
            problems.append(f"ecosystems json: flip lacks {sorted(missing)}")
    return problems


def check_cross_ecosystem() -> list[str]:
    """Sharded runs under two ecosystems: parity per executor, divergence."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    problems: list[str] = []
    cells: dict[tuple[str, str], list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for ecosystem in ("web-services", "npm-deps"):
            for executor in ("thread", "process"):
                manifest_path = Path(tmp) / f"eco-{ecosystem}-{executor}.json"
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "repro", "run",
                        "--scale", "120", "--shard-size", "60",
                        "--jobs", SMOKE_JOBS[executor], "--executor", executor,
                        "--ecosystem", ecosystem,
                        "--quiet", "--manifest", str(manifest_path),
                    ],
                    env=env,
                    cwd=repo_root,
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                if proc.returncode != 0:
                    problems.append(
                        f"ecosystem smoke ({ecosystem}/{executor}): exited "
                        f"{proc.returncode}: {proc.stderr[-500:]}"
                    )
                    continue
                payload = json.loads(manifest_path.read_text(encoding="utf-8"))
                if payload.get("ecosystem") != ecosystem:
                    problems.append(
                        f"ecosystem smoke ({ecosystem}/{executor}): manifest "
                        f"records ecosystem {payload.get('ecosystem')!r}"
                    )
                    continue
                if ecosystem != "web-services" and not payload.get(
                    "tool_families"
                ):
                    problems.append(
                        f"ecosystem smoke ({ecosystem}/{executor}): manifest "
                        "lacks the resolved tool_families"
                    )
                cells[(ecosystem, executor)] = [
                    [
                        r["cells"]["tp"], r["cells"]["fp"],
                        r["cells"]["fn"], r["cells"]["tn"],
                    ]
                    for r in payload["shards"]
                ]
    for ecosystem in ("web-services", "npm-deps"):
        thread = cells.get((ecosystem, "thread"))
        process = cells.get((ecosystem, "process"))
        if thread is not None and process is not None and thread != process:
            problems.append(
                f"ecosystem smoke ({ecosystem}): per-shard cells differ "
                "between thread and process executors"
            )
    default = cells.get(("web-services", "thread"))
    other = cells.get(("npm-deps", "thread"))
    if default is not None and other is not None and default == other:
        problems.append(
            "ecosystem smoke: npm-deps produced the same cells as "
            "web-services — the ecosystem is not reaching the workload"
        )
    return problems


def check_fault_injection() -> list[str]:
    """An injected failure must isolate, manifest correctly, and exit 1."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = Path(tmp) / "manifest.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "R1", "R3", "R4",
                "--quiet", "--jobs", "2", "--keep-going",
                "--inject-fault", "R3", "--manifest", str(manifest_path),
            ],
            env=env,
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=300,
        )
        problems = []
        if proc.returncode == 0:
            problems.append(
                "fault smoke: keep-going run with a failure exited 0 "
                "(must be non-zero)"
            )
        if not manifest_path.exists():
            problems.append(
                "fault smoke: no manifest written for the partial run"
            )
            return problems
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        statuses = {
            entry["experiment_id"]: entry["status"]
            for entry in payload["experiments"]
        }
        expected = {"R1": "completed", "R3": "failed", "R4": "skipped"}
        if statuses != expected:
            problems.append(
                f"fault smoke: expected statuses {expected}, got {statuses}"
            )
        failed = next(
            e for e in payload["experiments"] if e["experiment_id"] == "R3"
        )
        if failed.get("failure", {}).get("error_type") != "InjectedFault":
            problems.append(
                "fault smoke: R3's manifest record lacks a structured "
                f"InjectedFault failure: {failed.get('failure')!r}"
            )
        return problems


def _shard_cells(manifest_path: Path) -> list:
    """Per-shard confusion cells from a manifest, for parity comparisons."""
    payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    return [
        [r["cells"]["tp"], r["cells"]["fp"], r["cells"]["fn"], r["cells"]["tn"]]
        for r in sorted(payload["shards"], key=lambda r: r["index"])
    ]


def check_chaos_recovery() -> list[str]:
    """Crash chaos matrix: killed workers, hung shards and killed parents
    must recover.

    One clean reference run per executor, then five chaos scenarios whose
    recovered per-shard cells must equal the clean run's byte-for-byte,
    and one clobber check:

    - **worker-kill** (process only): ``--inject-fault s2:kill=1`` SIGKILLs
      the worker executing shard 2 once; supervision rebuilds the pool and
      re-dispatches, so the run still exits 0 with every shard completed.
    - **hung** (process only): ``--inject-fault s1:hang=30`` under
      ``--timeout 2 --keep-going`` exits 1 well before the hang ends, with
      shard 1 recorded ``timeout``; a ``--resume`` of its journal runs
      shard 1 and completes the campaign.
    - **parent-kill** (both executors): ``--inject-fault PARENT:kill=2``
      SIGKILLs the campaign parent after 2 journaled folds; a
      ``--resume`` of the write-ahead journal completes the campaign.
    - **rerun** (thread): a copy of the thread parent-kill's journal is
      finished by running the original command line again (``--wal``,
      no ``--resume``), which continues the journal of the same plan.
    - **torn journal** (thread): the WAL of a clean run loses its tail
      mid-record; resume discards the torn record, re-runs that shard,
      and still converges to the reference cells.
    - **clobber**: ``--wal`` pointed at the clean run's JSON manifest
      must exit 1 and leave that file byte-identical.
    """
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    problems: list[str] = []

    def run_cli(
        executor: str, *extra: str, capture: bool = True
    ) -> subprocess.CompletedProcess:
        # capture=False for parent-kill runs: a SIGKILL'd parent can leave
        # orphaned pool workers holding stdout/stderr open, which would
        # wedge a capturing wait until the workers notice and exit.
        streams = (
            {"capture_output": True, "text": True}
            if capture
            else {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        )
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "--scale", "400", "--shard-size", "100",
                "--jobs", SMOKE_JOBS[executor], "--executor", executor,
                "--quiet", *extra,
            ],
            env=env,
            cwd=repo_root,
            timeout=300,
            **streams,
        )

    def resume_cli(wal: Path, manifest: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "--resume", str(wal), "--jobs", "2", "--quiet",
                "--manifest", str(manifest),
            ],
            env=env,
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=300,
        )

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        reference: dict[str, list] = {}
        for executor in ("thread", "process"):
            clean = tmp_path / f"clean-{executor}.json"
            proc = run_cli(executor, "--manifest", str(clean))
            if proc.returncode != 0:
                problems.append(
                    f"chaos smoke (clean/{executor}): exited "
                    f"{proc.returncode}: {proc.stderr[-500:]}"
                )
                continue
            reference[executor] = _shard_cells(clean)
        if len(reference) < 2:
            return problems  # no baseline; the failures above say why

        # Worker kill: shard 2's first attempt SIGKILLs its worker.
        manifest = tmp_path / "worker-kill.json"
        proc = run_cli(
            "process",
            "--inject-fault", "s2:kill=1",
            "--manifest", str(manifest),
        )
        if proc.returncode != 0:
            problems.append(
                f"chaos smoke (worker-kill): exited {proc.returncode}: "
                f"{proc.stderr[-500:]}"
            )
        elif _shard_cells(manifest) != reference["process"]:
            problems.append(
                "chaos smoke (worker-kill): recovered cells differ from "
                "the clean run"
            )

        # Hung shard: timed out and its worker terminated, then resumed.
        wal = tmp_path / "hung.wal"
        manifest = tmp_path / "hung.json"
        started = time.monotonic()
        proc = run_cli(
            "process",
            "--timeout", "2", "--keep-going",
            "--inject-fault", "s1:hang=30",
            "--wal", str(wal), "--manifest", str(manifest),
        )
        elapsed = time.monotonic() - started
        statuses = (
            {
                r["index"]: r["status"]
                for r in json.loads(manifest.read_text())["shards"]
            }
            if manifest.exists()
            else {}
        )
        if proc.returncode != 1 or elapsed >= 30:
            problems.append(
                f"chaos smoke (hung): exited {proc.returncode} after "
                f"{elapsed:.1f}s (want 1, before the 30s hang ends): "
                f"{proc.stderr[-500:]}"
            )
        elif statuses.get(1) != "timeout":
            problems.append(
                f"chaos smoke (hung): shard statuses {statuses}; shard 1 "
                "must be recorded as timeout"
            )
        else:
            resumed_manifest = tmp_path / "hung-resumed.json"
            resumed = resume_cli(wal, resumed_manifest)
            if resumed.returncode != 0:
                problems.append(
                    f"chaos smoke (hung): resume exited "
                    f"{resumed.returncode}: {resumed.stderr[-500:]}"
                )
            elif _shard_cells(resumed_manifest) != reference["process"]:
                problems.append(
                    "chaos smoke (hung): resumed cells differ from the "
                    "clean run"
                )

        # Parent kill + journal resume, on both executors.
        rerun_wal = tmp_path / "rerun.wal"
        for executor in ("thread", "process"):
            wal = tmp_path / f"parent-{executor}.wal"
            proc = run_cli(
                executor,
                "--inject-fault", "PARENT:kill=2",
                "--wal", str(wal),
                capture=False,
            )
            if proc.returncode == 0:
                problems.append(
                    f"chaos smoke (parent-kill/{executor}): SIGKILL'd "
                    "parent exited 0"
                )
                continue
            if executor == "thread" and wal.exists():
                shutil.copyfile(wal, rerun_wal)
            manifest = tmp_path / f"parent-{executor}.json"
            resumed = resume_cli(wal, manifest)
            if resumed.returncode != 0:
                problems.append(
                    f"chaos smoke (parent-kill/{executor}): resume exited "
                    f"{resumed.returncode}: {resumed.stderr[-500:]}"
                )
            elif _shard_cells(manifest) != reference[executor]:
                problems.append(
                    f"chaos smoke (parent-kill/{executor}): resumed cells "
                    "differ from the clean run"
                )

        # Rerun: the original command line continues its own journal.
        manifest = tmp_path / "rerun.json"
        if not rerun_wal.exists():
            problems.append("chaos smoke (rerun): no parent-kill journal")
        else:
            proc = run_cli(
                "thread", "--wal", str(rerun_wal), "--manifest", str(manifest)
            )
            carried = (
                json.loads(manifest.read_text())["extra"]
                .get("resume", {})
                .get("carried", [])
                if proc.returncode == 0
                else []
            )
            if proc.returncode != 0:
                problems.append(
                    f"chaos smoke (rerun): exited {proc.returncode}: "
                    f"{proc.stderr[-500:]}"
                )
            elif len(carried) != 2:
                problems.append(
                    f"chaos smoke (rerun): carried {carried}; the run must "
                    "continue the 2 shards its journal holds"
                )
            elif _shard_cells(manifest) != reference["thread"]:
                problems.append(
                    "chaos smoke (rerun): continued cells differ from the "
                    "clean run"
                )

        # Clobber: --wal must never overwrite a file that is not a journal.
        clean = tmp_path / "clean-thread.json"
        before = clean.read_bytes()
        proc = run_cli("thread", "--wal", str(clean))
        if proc.returncode != 1:
            problems.append(
                f"chaos smoke (clobber): --wal at a JSON manifest exited "
                f"{proc.returncode}, want 1: {proc.stderr[-500:]}"
            )
        if clean.read_bytes() != before:
            problems.append(
                "chaos smoke (clobber): --wal rewrote the JSON manifest it "
                "was pointed at"
            )

        # Torn journal: a clean WAL loses its tail; resume must converge.
        wal = tmp_path / "torn.wal"
        proc = run_cli("thread", "--wal", str(wal))
        if proc.returncode != 0:
            problems.append(
                f"chaos smoke (torn-journal): WAL run exited "
                f"{proc.returncode}: {proc.stderr[-500:]}"
            )
        else:
            sys.path.insert(0, str(repo_root / "src"))
            try:
                from repro.bench.engine.faults import tear_file

                tear_file(wal, n_bytes=16)
            finally:
                sys.path.pop(0)
            manifest = tmp_path / "torn.json"
            resumed = resume_cli(wal, manifest)
            if resumed.returncode != 0:
                problems.append(
                    f"chaos smoke (torn-journal): resume exited "
                    f"{resumed.returncode}: {resumed.stderr[-500:]}"
                )
            elif _shard_cells(manifest) != reference["thread"]:
                problems.append(
                    "chaos smoke (torn-journal): resumed cells differ from "
                    "the clean run"
                )
    return problems


def check_serve_json() -> list[str]:
    """The serve dump must be schema-tagged, complete, and record fairness."""
    if not SERVE_JSON.exists():
        return []
    try:
        payload = json.loads(SERVE_JSON.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"serve json: {SERVE_JSON} is not valid JSON: {error}"]
    problems = []
    found = payload.get("schema")
    if found != SERVE_JSON_SCHEMA:
        problems.append(
            f"serve json: expected schema {SERVE_JSON_SCHEMA!r}, found {found!r}"
        )
    for section in SERVE_SECTIONS:
        if section not in payload:
            problems.append(f"serve json: missing section {section!r}")
    rows = payload.get("latency", {}).get("rows", [])
    if "latency" in payload and not rows:
        problems.append("serve json: latency section has no rows")
    for row in rows:
        missing = {"phase", "requests", "p50_ms", "p99_ms", "rps"} - set(row)
        if missing:
            problems.append(f"serve json: latency row lacks {sorted(missing)}")
            continue
        if not 0 < row["p50_ms"] <= row["p99_ms"]:
            problems.append(
                f"serve json: latency row {row['phase']!r} has unsound "
                f"percentiles (p50={row['p50_ms']}, p99={row['p99_ms']})"
            )
    fairness = payload.get("fairness", {})
    if fairness:
        if fairness.get("bounded") is not True:
            problems.append(
                "serve json: fairness section does not record the abusive "
                "tenant bounded to its weight share — the DRR claim is "
                "not backed"
            )
        tenants = fairness.get("tenants", {})
        abusive = fairness.get("abusive")
        if abusive not in tenants:
            problems.append(
                f"serve json: abusive tenant {abusive!r} missing from the "
                "fairness tenants"
            )
        for tenant, row in tenants.items():
            missing = {"weight", "submitted_share", "served_share"} - set(row)
            if missing:
                problems.append(
                    f"serve json: fairness row {tenant!r} lacks "
                    f"{sorted(missing)}"
                )
    return problems


def check_serve_smoke() -> list[str]:
    """A real ``repro serve`` process must run a campaign with parity."""
    import time
    import urllib.error
    import urllib.request

    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(Path(tmp) / "state"), "--port", "0",
            ],
            env=env, cwd=repo_root,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            if not line.startswith("serving on http://"):
                return [f"serve smoke: unexpected banner {line!r}"]
            base = line.removeprefix("serving on ")

            def request(path, payload=None):
                data = json.dumps(payload).encode() if payload else None
                req = urllib.request.Request(base + path, data=data)
                try:
                    with urllib.request.urlopen(req, timeout=30) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as error:
                    return error.code, json.loads(error.read())

            status, body = request(
                "/v1/campaigns", {"scale": 300, "shard_size": 150}
            )
            if status != 202:
                return [f"serve smoke: submit returned {status}: {body}"]
            job_id = body["job"]["job_id"]
            deadline = time.monotonic() + 120
            state = None
            while time.monotonic() < deadline:
                _, view = request(f"/v1/jobs/{job_id}")
                state = view["state"]
                if state in ("completed", "failed"):
                    break
                time.sleep(0.1)
            if state != "completed":
                return [
                    f"serve smoke: job ended {state!r}: {view.get('error')}"
                ]
            _, result = request(f"/v1/jobs/{job_id}/result")
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
    sys.path.insert(0, str(repo_root / "src"))
    try:
        from repro.bench.engine.shards import run_sharded_campaign
        from repro.persist import streaming_totals_to_dict

        reference = run_sharded_campaign(scale=300, shard_size=150)
        expected = streaming_totals_to_dict(reference.totals)
    finally:
        sys.path.pop(0)
    if result["totals"] != expected:
        problems.append(
            "serve smoke: totals served over HTTP differ from the "
            "in-process campaign at the same (scale, shard_size, seed)"
        )
    return problems


def check_cold_start() -> list[str]:
    """Each cold start in :data:`COLD_START_GATES` loads only its own path."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")
    problems = []
    for label, code, forbidden, exempt in COLD_START_GATES:
        proc = subprocess.run(
            [
                sys.executable, "-c",
                f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
            ],
            env=env, cwd=repo_root, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            problems.append(
                f"cold start: {label} exited {proc.returncode}: "
                f"{proc.stderr.strip()[-300:]}"
            )
            continue
        loaded = json.loads(proc.stdout.splitlines()[-1])
        stray = [
            name
            for name in loaded
            if name not in exempt
            and any(name == f or name.startswith(f + ".") for f in forbidden)
        ]
        if stray:
            problems.append(f"cold start: {label} loaded {', '.join(stray)}")
    return problems


def main() -> int:
    problems = (
        check_kernel_parity()
        + check_resampler_identity()
        + check_generation_smoke()
        + check_evaluation_parity()
        + check_bench_json()
        + check_shard_json()
        + check_ecosystems_json()
        + check_fault_injection()
        + check_serve_json()
        + check_shard_scale()
        + check_cross_ecosystem()
        + check_chaos_recovery()
        + check_serve_smoke()
        + check_cold_start()
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} benchmark problem(s)", file=sys.stderr)
        return 1
    print(
        "bench ok: kernels, resampler stream, generation parity, "
        "evaluation parity, dump schemas, fault-injection smoke, "
        "shard-scale smoke (executor parity), cross-ecosystem smoke, "
        "chaos-recovery smoke (worker-kill / hung / parent-kill / rerun / "
        "torn-journal / clobber), serve smoke (HTTP campaign parity), and "
        "cold-start module sets checked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
