"""Command-line interface: run reproduction experiments from the shell.

Usage::

    python -m repro list
    python -m repro run R6 R11            # run specific experiments
    python -m repro run all --seed 7      # everything, custom seed
    python -m repro run R8 --out results  # also write results/<id>.txt
    python -m repro run all --jobs 4      # 4 worker processes over the graph
    python -m repro run all --cache-dir .cache --manifest run.json
    python -m repro run all --trace t.json --metrics-out m.json
    python -m repro run R3 R4 --profile   # cProfile each experiment -> results/
    python -m repro run all --keep-going --retries 2 --manifest run.json
    python -m repro run --resume run.json # re-run only what didn't complete
    python -m repro run --scale 1000000 --shard-size 10000  # streaming campaign
    python -m repro run --scale 5000 --ecosystem npm-deps   # another ecosystem
    python -m repro run --scale 1000000 --wal run.wal  # crash-safe journal
    python -m repro run --resume run.wal  # continue the journal's campaign
    python -m repro run --list-ecosystems  # print the registries
    python -m repro stats m.json          # print a metrics dump as tables
    python -m repro stats --cache-dir .cache  # quarantined-cache summary

Experiments R1-R11 reproduce the paper's tables and figures; R12-R20 are
extensions.  All runs are deterministic in ``--seed`` — ``--jobs N``
produces byte-identical reports to a serial run, only faster.  Everything
the CLI knows about an experiment (title, artifact kind, seedlessness,
dependencies) comes from its registered
:class:`~repro.bench.engine.spec.ExperimentSpec`.

Failure handling: ``--keep-going`` isolates failures (dependents are
cascade-skipped, independents still run), ``--retries N`` re-attempts at
the same seed, ``--timeout SECONDS`` bounds each attempt, and the exit
code is non-zero whenever any experiment did not complete.  ``--resume
MANIFEST`` re-executes only the non-completed experiments of a prior run.

Scale: ``--scale N`` switches ``run`` onto the shard rail — an
ecosystem's tool suite is evaluated over an N-unit corpus partitioned
into ``--shard-size`` shards, with per-shard retry/keep-going semantics
and memory bounded by the shard size (see ``docs/scaling.md``).  The
rail is decided once: ``--resume FILE`` takes the shard rail when FILE
starts with the journal magic and the experiment rail otherwise;
without it, ``--scale`` does.  :func:`check_run_flags` then rejects, in
one line, any flag that rail does not take, and any flag FILE restores
(ids, ``--seed``, the plan, ``--wal``) passed beside ``--resume``.

Crash safety: ``--wal FILE`` journals every folded shard durably, so even
a ``kill -9`` of the campaign parent resumes bit-identically from the
journal — with ``--resume FILE``, or by running the same command again,
which continues a journal of the same plan and refuses any other file;
SIGTERM/SIGINT drain in-flight shards and still write the
partial ``--manifest``; ``--timeout`` on ``--scale`` runs gives each
shard attempt a deadline, counted from its submission, and terminates
the worker of an attempt that runs past it; and dead workers are
supervised — the pool is rebuilt and crashed shards re-dispatched,
quarantining any shard that keeps killing workers (see
``docs/benchmarking.md``, "Crash recovery").

Ecosystems: ``--ecosystem NAME`` selects which registered
:class:`~repro.workload.ecosystems.EcosystemProfile` shapes the corpus and
the suite; ``--tool-family KEY`` (repeatable) restricts the suite to
specific registered families; and ``--list-ecosystems`` prints both
registries.  Unknown names fail with a one-line error listing what is
registered.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.bench.result import DEFAULT_SEED

__all__ = ["main", "build_parser", "check_run_flags"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction experiments for 'On the Metrics for Benchmarking "
            "Vulnerability Detection Tools' (DSN 2015)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids (e.g. R6 R11) or 'all' (optional with --resume)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"master seed (default {DEFAULT_SEED})",
    )
    run_parser.add_argument(
        "--scale",
        type=int,
        default=None,
        metavar="N",
        help=(
            "instead of experiments, run a sharded streaming campaign over "
            "N workload units (memory bounded by --shard-size, totals "
            "bit-identical to the in-memory path; see docs/scaling.md)"
        ),
    )
    run_parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="K",
        help=(
            "units per shard for --scale runs (default 10000); any shard "
            "is regenerable in isolation from its derived seed"
        ),
    )
    run_parser.add_argument(
        "--ecosystem",
        default=None,
        metavar="NAME",
        help=(
            "ecosystem regime for --scale campaigns: a registered name "
            "(see --list-ecosystems; default: web-services)"
        ),
    )
    run_parser.add_argument(
        "--tool-family",
        action="append",
        default=None,
        metavar="KEY",
        dest="tool_families",
        help=(
            "restrict the --scale suite to this registered tool family "
            "(repeatable; default: the ecosystem's own family list)"
        ),
    )
    run_parser.add_argument(
        "--list-ecosystems",
        action="store_true",
        help="print the registered ecosystems and tool families, then exit",
    )
    run_parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write each rendered report to DIR/<id>.txt",
    )
    run_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rendered tables (timings only)",
    )
    run_parser.add_argument(
        "--format",
        choices=("text", "md"),
        default=None,
        dest="output_format",
        help="output format for --out files: text (default) or GitHub markdown",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run up to N independent experiments (or shards) at once in "
            "worker processes (default 1: serial)"
        ),
    )
    run_parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default=None,
        help=(
            "'thread' runs every task inline on this thread, one at a time; "
            "'process' runs them in worker processes (pair with --cache-dir "
            "to share artifacts). Default: process with --jobs > 1 or "
            "--timeout, else thread"
        ),
    )
    run_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist workloads/campaigns to DIR so warm re-runs skip them",
    )
    run_parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the run manifest (timings, cache hits, seeds) to FILE",
    )
    run_parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "record spans and write a Chrome-trace-format timeline to FILE "
            "(open in chrome://tracing or https://ui.perfetto.dev)"
        ),
    )
    run_parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the run's counters/gauges/histograms to FILE as JSON",
    )
    run_parser.add_argument(
        "--profile",
        type=Path,
        nargs="?",
        const=Path("results"),
        default=None,
        metavar="DIR",
        help=(
            "wrap each experiment in cProfile; write per-experiment .pstats "
            "plus a hotspots.txt table to DIR (default: results/)"
        ),
    )
    run_parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "on experiment failure, keep running experiments that do not "
            "depend on the failed one (dependents are skipped); the exit "
            "code is still non-zero"
        ),
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-attempt a failed experiment up to N extra times at the same "
            "seed (default 0; timeouts are never retried)"
        ),
    )
    run_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-attempt wall-clock budget in seconds, enforced on worker "
            "processes; experiments past it are recorded with status "
            "'timeout' (never retried)"
        ),
    )
    run_parser.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "re-execute only the non-completed experiments of a prior run's "
            "--manifest file, or run the missing shards of a --wal journal; "
            "seed and plan are taken from FILE, completed work is carried "
            "over verbatim"
        ),
    )
    run_parser.add_argument(
        "--wal",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "for --scale runs: append every folded shard to an fsync'd "
            "write-ahead journal at FILE, so a crashed (even kill -9'd) "
            "campaign resumes bit-identically with --resume FILE; a journal "
            "of the same plan already at FILE is continued"
        ),
    )
    run_parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        dest="inject_faults",
        help=(
            "testing only: inject a deterministic fault, e.g. 'R3' (always "
            "fail), 'R3:fail=2' (fail first 2 attempts), 'R3:hang=1.5' "
            "(sleep 1.5s per attempt); repeatable"
        ),
    )

    stats_parser = subparsers.add_parser(
        "stats", help="print a --metrics-out dump as readable tables"
    )
    stats_parser.add_argument(
        "metrics_file",
        type=Path,
        nargs="?",
        default=None,
        metavar="FILE",
        help="a --metrics-out JSON dump",
    )
    stats_parser.add_argument(
        "--prefix",
        default="",
        metavar="PREFIX",
        help="only show series whose name starts with PREFIX (e.g. engine.cache.)",
    )
    stats_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "also summarize DIR's quarantined (.corrupt) cache files — "
            "count, total bytes, and the retention cap"
        ),
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the campaign service: submit, queue and query sharded "
            "campaigns over HTTP (see docs/serve.md)"
        ),
    )
    serve_parser.add_argument(
        "--state-dir",
        type=Path,
        required=True,
        metavar="DIR",
        help=(
            "durable service state: job records, per-job shard journals "
            "and finished results live here; restart with the same DIR "
            "to resume every unfinished campaign"
        ),
    )
    serve_parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; put a proxy in front for more)",
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help=(
            "bind port (default 8642; 0 binds an ephemeral port, "
            "announced on stdout)"
        ),
    )
    serve_parser.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        metavar="N",
        help="campaigns executing concurrently (default 1)",
    )
    serve_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "shard parallelism inside each campaign, in worker processes "
            "(default 1)"
        ),
    )
    serve_parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default=None,
        help=(
            "campaign executor (as for 'run --scale'; default: process "
            "with --jobs > 1, else thread)"
        ),
    )
    serve_parser.add_argument(
        "--quantum",
        type=int,
        default=None,
        metavar="UNITS",
        help=(
            "deficit-round-robin top-up per scheduling turn, in workload "
            "units (default 10000; see docs/serve.md on fairness)"
        ),
    )
    serve_parser.add_argument(
        "--result-cache",
        type=int,
        default=None,
        metavar="N",
        help="finished results held in the in-memory hot cache (default 256)",
    )
    serve_parser.add_argument(
        "--tenant-weight",
        action="append",
        default=None,
        metavar="TENANT=W",
        dest="tenant_weights",
        help=(
            "scheduling weight for one tenant, e.g. 'ci=2.5' (repeatable; "
            "unlisted tenants weigh 1.0)"
        ),
    )
    return parser


def _normalize_ids(requested: Sequence[str]) -> list[str]:
    from repro.bench.engine.spec import experiment_ids

    known = experiment_ids()
    if any(item.lower() == "all" for item in requested):
        return known
    ids = []
    for item in requested:
        key = item.upper()
        if key not in known:
            raise SystemExit(
                f"unknown experiment {item!r}; known: {', '.join(known)}"
            )
        ids.append(key)
    return ids


def _cmd_list() -> int:
    from repro.bench.engine.spec import all_specs

    for spec in all_specs():
        print(f"{spec.experiment_id:4s} {spec.list_line}")
    return 0


#: The ``run`` flags the rail rules name, by argparse ``dest``: the name a
#: rejection gives the flag, the rail that takes it (``None``: both), and
#: whether ``--resume FILE`` restores it from FILE.
_RAIL_FLAGS = {
    "experiments": ("an experiment id", "experiments", True),
    "out": ("--out", "experiments", False),
    "profile": ("--profile", "experiments", False),
    "output_format": ("--format", "experiments", False),
    "seed": ("--seed", None, True),
    "scale": ("--scale", "shards", True),
    "shard_size": ("--shard-size", "shards", True),
    "ecosystem": ("--ecosystem", "shards", True),
    "tool_families": ("--tool-family", "shards", True),
    "wal": ("--wal", "shards", True),
}


def _shard_rail(args: argparse.Namespace) -> bool:
    """Whether ``run`` takes the shard rail: with ``--resume FILE``, when
    FILE starts with the journal magic; otherwise, when ``--scale`` is set."""
    if args.resume is None:
        return args.scale is not None
    from repro.bench.engine.wal import is_journal

    return is_journal(args.resume)


def check_run_flags(args: argparse.Namespace, sharded: bool) -> None:
    """Reject, in one line, a ``run`` flag the chosen rail does not take.

    ``sharded`` is the rail :func:`main` chose.  A flag is set when its
    value is not ``None``; beside ``--resume FILE`` none of the flags FILE
    restores may be set.  Reads no file, so documented command lines can
    be checked against the same rules.
    """
    for dest, (flag, takes, restored) in _RAIL_FLAGS.items():
        if getattr(args, dest) in (None, []):
            continue
        if restored and args.resume is not None:
            raise SystemExit(
                f"--resume continues {args.resume}'s own run; don't pass "
                f"{flag} alongside it"
            )
        if takes == "shards" and not sharded:
            raise SystemExit(f"{flag} requires --scale")
        if takes == "experiments" and sharded:
            raise SystemExit(f"{flag} applies to experiment runs, not --scale")
    if not sharded and not args.experiments and args.resume is None:
        raise SystemExit(
            "experiment ids required (e.g. 'repro run R6 R11' or "
            "'repro run all'), unless resuming with --resume MANIFEST"
        )


def _unwritable(
    command: str, path: Path | str, error: OSError
) -> SystemExit:
    return SystemExit(
        f"{command} aborted — cannot write {path}: {error.strerror or error}"
    )


def _load(path: Path, from_dict):
    """``from_dict`` of FILE's JSON; every failure is a ReproError naming FILE."""
    from repro.errors import ConfigurationError, PersistError
    from repro.persist import load_json

    try:
        payload = load_json(path)
    except OSError as error:
        raise PersistError(
            f"cannot read {path}: {error.strerror or error}", path=str(path)
        ) from error
    try:
        return from_dict(payload)
    except ConfigurationError as error:
        raise ConfigurationError(f"{path}: {error}") from error


def _save(payload: dict, path: Path) -> None:
    from repro.persist import save_json

    try:
        save_json(payload, path)
    except OSError as error:
        raise _unwritable("run", path, error) from error


def _print_unfinished(label: str, record) -> None:
    """``[R3 failed after 1 attempt: …]`` / ``[shard 1 timeout …]``."""
    failure = record.failure
    detail = (
        f"{failure.error_type}: {failure.message}"
        if failure is not None
        else record.status
    )
    print(
        f"[{label} {record.status} after {record.attempts} "
        f"attempt{'s' if record.attempts != 1 else ''}: {detail}]",
        file=sys.stderr,
    )


def _cmd_run(args: argparse.Namespace, sharded: bool) -> int:
    """Run one rail, then write its outputs and summary line."""
    from repro.bench.engine.faults import FaultPlan, parse_fault
    from repro.errors import ConfigurationError, EngineError, PersistError
    from repro.obs import Observability, Tracer

    check_run_flags(args, sharded)
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    obs = Observability(tracer=Tracer(enabled=args.trace is not None))
    try:
        faults = (
            FaultPlan(tuple(parse_fault(spec) for spec in args.inject_faults))
            if args.inject_faults
            else None
        )
        rail = _run_shards if sharded else _run_experiments
        manifest = rail(args, obs, faults)
    except (ConfigurationError, EngineError, PersistError) as error:
        raise SystemExit(f"run aborted — {error}") from error
    if args.manifest is not None:
        _save(manifest.to_dict(), args.manifest)
    if args.trace is not None:
        _save(obs.tracer.to_chrome_trace(), args.trace)
        print(
            f"[trace: {len(obs.tracer)} spans -> {args.trace}]", file=sys.stderr
        )
    if args.metrics_out is not None:
        _save(obs.metrics.to_dict(), args.metrics_out)
        print(f"[metrics -> {args.metrics_out}]", file=sys.stderr)
    if obs.profiler is not None:
        hotspots = obs.profiler.write_hotspots()
        print(
            f"[profiles: {len(obs.profiler.reports)} .pstats + {hotspots}]",
            file=sys.stderr,
        )
    print(f"[{manifest.summary_line()}]", file=sys.stderr)
    return 0 if manifest.ok else 1


def _run_experiments(args: argparse.Namespace, obs, faults):
    """The experiment rail: run (or resume) experiments, print each report."""
    from repro.bench.engine.manifest import RunManifest
    from repro.bench.engine.scheduler import run_experiments
    from repro.errors import ConfigurationError

    def resumable(payload) -> RunManifest:
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if str(schema).startswith("repro/shard-run@"):
            raise ConfigurationError(
                "a sharded run resumes from its --wal journal, not from its "
                "manifest"
            )
        return RunManifest.from_dict(payload)

    ids = _normalize_ids(args.experiments)
    resume_from = None
    if args.resume is not None:
        resume_from = _load(args.resume, resumable)
        ids = resume_from.experiment_ids
    try:
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
        if args.profile is not None:
            from repro.obs import Profiler

            obs.profiler = Profiler(args.profile)
    except OSError as error:
        raise _unwritable("run", error.filename, error) from error
    run = run_experiments(
        ids,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        jobs=args.jobs,
        cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
        obs=obs,
        executor=args.executor,
        keep_going=args.keep_going,
        retries=args.retries,
        timeout=args.timeout,
        faults=faults,
        resume_from=resume_from,
    )
    for key in ids:
        record = run.manifest.record_for(key)
        if record.status == "skipped":
            print(f"[{key} skipped: {record.skip_reason}]", file=sys.stderr)
            continue
        if not record.completed:
            _print_unfinished(key, record)
            continue
        result = run.results.get(key)
        if result is None:
            # Carried over verbatim from the resumed manifest; its rendered
            # report was produced by the original run.
            print(
                f"[{key} completed in {record.wall_seconds:.1f}s (resumed)]",
                file=sys.stderr,
            )
            continue
        if not args.quiet:
            print(result.render())
            print()
        print(
            f"[{key} completed in {record.wall_seconds:.1f}s]", file=sys.stderr
        )
        if args.out is not None:
            if args.output_format == "md":
                from repro.reporting.markdown import experiment_to_markdown

                path = args.out / f"{key.lower()}.md"
                rendered = experiment_to_markdown(
                    result.experiment_id, result.title, result.sections
                )
            else:
                path = args.out / f"{key.lower()}.txt"
                rendered = result.render() + "\n"
            try:
                path.write_text(rendered, encoding="utf-8")
            except OSError as error:
                raise _unwritable("run", path, error) from error
    return run.manifest


def _run_shards(args: argparse.Namespace, obs, faults):
    """The shard rail: run a sharded campaign, or continue its journal."""
    from repro.bench.engine.shards import run_sharded_campaign
    from repro.bench.engine.supervise import graceful_shutdown
    from repro.reporting.tables import format_table
    from repro.workload.ecosystems import DEFAULT_ECOSYSTEM
    from repro.workload.sharded import DEFAULT_SHARD_SIZE

    if args.scale is not None and args.scale < 1:
        raise SystemExit(f"--scale must be >= 1, got {args.scale}")
    if args.shard_size is not None and args.shard_size < 1:
        raise SystemExit(f"--shard-size must be >= 1, got {args.shard_size}")
    # A journal passed to --resume is continued under its own plan.
    wal = args.resume if args.resume is not None else args.wal
    with graceful_shutdown() as shutdown:
        run = run_sharded_campaign(
            scale=args.scale,
            shard_size=(
                args.shard_size
                if args.shard_size is not None
                else DEFAULT_SHARD_SIZE
            ),
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            jobs=args.jobs,
            executor=args.executor,
            keep_going=args.keep_going,
            retries=args.retries,
            cache_dir=str(args.cache_dir) if args.cache_dir is not None else None,
            obs=obs,
            faults=faults,
            wal_path=str(wal) if wal is not None else None,
            timeout=args.timeout,
            shutdown=shutdown,
            ecosystem=(
                args.ecosystem if args.ecosystem is not None else DEFAULT_ECOSYSTEM
            ),
            tool_families=(
                tuple(args.tool_families)
                if args.tool_families is not None
                else None
            ),
        )
    for record in run.manifest.records:
        if not record.completed:
            _print_unfinished(f"shard {record.index}", record)
    if run.interrupted:
        info = run.manifest.extra["interrupted"]
        hint = f"; resume with --resume {wal}" if wal is not None else ""
        print(
            f"[interrupted ({info['reason']}): "
            f"{len(info['unfinished'])} shards unfinished{hint}]",
            file=sys.stderr,
        )
    totals = run.totals
    if totals is not None and not args.quiet:
        rows = [
            [
                name,
                int(confusion.tp),
                int(confusion.fp),
                int(confusion.fn),
                int(confusion.tn),
                int(confusion.tp + confusion.fp),
            ]
            for name, confusion in zip(totals.tool_names, totals.confusions)
        ]
        print(
            format_table(
                headers=["tool", "TP", "FP", "FN", "TN", "reported"],
                rows=rows,
                title=(
                    f"Sharded campaign totals [{totals.ecosystem}] — "
                    f"{totals.n_units} units in "
                    f"{totals.n_shards} shards: {totals.n_sites} sites, "
                    f"prevalence {totals.prevalence:.3f}"
                ),
            )
        )
        print()
    return run.manifest


def _cmd_list_ecosystems() -> int:
    from repro.tools.families import all_families
    from repro.workload.ecosystems import all_ecosystems

    print("ecosystems:")
    for profile in all_ecosystems():
        print(
            f"  {profile.name:14s} {profile.title} "
            f"(prevalence {profile.prevalence:.3f}; "
            f"families: {', '.join(profile.tool_families)})"
        )
    print("tool families:")
    for family in all_families():
        print(f"  {family.key:10s} {family.title}")
    return 0


def _cmd_stats(
    metrics_file: Path | None, prefix: str, cache_dir: Path | None = None
) -> int:
    if metrics_file is None and cache_dir is None:
        raise SystemExit("stats needs a metrics FILE and/or --cache-dir DIR")
    if metrics_file is not None:
        from repro.errors import ReproError
        from repro.obs import MetricsRegistry

        if not metrics_file.exists():
            raise SystemExit(f"no such metrics dump: {metrics_file}")
        try:
            registry = _load(metrics_file, MetricsRegistry.from_dict)
        except ReproError as error:
            raise SystemExit(f"stats aborted — {error}") from error
        print(registry.render(prefix))
    if cache_dir is not None:
        from repro.bench.engine.artifacts import CORRUPT_RETENTION_CAP

        if not cache_dir.is_dir():
            raise SystemExit(f"no such cache dir: {cache_dir}")
        corrupt = sorted(cache_dir.glob("*.corrupt"))
        total = sum(path.stat().st_size for path in corrupt)
        print(
            f"quarantined cache files: {len(corrupt)} "
            f"({total} bytes, retention cap {CORRUPT_RETENTION_CAP})"
        )
        for path in corrupt:
            print(f"  {path.name}")
    return 0


def _parse_tenant_weights(specs: Sequence[str] | None) -> dict[str, float]:
    """Parse repeated ``--tenant-weight NAME=W`` flags."""
    weights: dict[str, float] = {}
    for spec in specs or ():
        tenant, sep, raw = spec.partition("=")
        try:
            weight = float(raw)
        except ValueError:
            weight = 0.0
        if not sep or not tenant or not weight > 0:
            raise SystemExit(
                f"--tenant-weight wants TENANT=W with W > 0, got {spec!r}"
            )
        weights[tenant] = weight
    return weights


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.errors import ConfigurationError
    from repro.serve.app import run_app
    from repro.serve.service import CampaignService, ServiceConfig

    if args.serve_workers < 1:
        raise SystemExit(
            f"--serve-workers must be >= 1, got {args.serve_workers}"
        )
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.quantum is not None and args.quantum < 1:
        raise SystemExit(f"--quantum must be >= 1, got {args.quantum}")
    if args.result_cache is not None and args.result_cache < 1:
        raise SystemExit(
            f"--result-cache must be >= 1, got {args.result_cache}"
        )
    from repro.serve.cache import DEFAULT_CACHE_CAPACITY
    from repro.serve.fairness import DEFAULT_QUANTUM

    config = ServiceConfig(
        state_dir=args.state_dir,
        workers=args.serve_workers,
        jobs=args.jobs,
        executor=args.executor,
        quantum=args.quantum if args.quantum is not None else DEFAULT_QUANTUM,
        cache_capacity=(
            args.result_cache
            if args.result_cache is not None
            else DEFAULT_CACHE_CAPACITY
        ),
        weights=_parse_tenant_weights(args.tenant_weights),
    )
    try:
        service = CampaignService(config)
    except ConfigurationError as error:
        raise SystemExit(f"serve aborted — {error}") from error
    except OSError as error:
        raise _unwritable("serve", args.state_dir, error) from error
    recovered = service.start()
    for record in recovered:
        print(
            f"[serve] recovered {record.job_id} "
            f"(tenant={record.tenant}, scale={record.spec.scale})",
            file=sys.stderr,
        )
    try:
        asyncio.run(
            run_app(
                service,
                host=args.host,
                port=args.port,
                install_signals=True,
            )
        )
    except KeyboardInterrupt:
        service.stop()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "stats":
        return _cmd_stats(args.metrics_file, args.prefix, args.cache_dir)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.list_ecosystems:
        return _cmd_list_ecosystems()
    return _cmd_run(args, sharded=_shard_rail(args))
