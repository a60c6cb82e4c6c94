"""The three workloads: campaign, experiment suite and campaign service.

Every input derives from the run's ``--seed``, and every workload checks
its outputs after the window against a recomputation that shares no
generation, scoring or folding code with the path it timed (see
:func:`reference_totals`), so a faster program only counts when it still
computes the same cells.

- ``campaign`` — a closed loop.  One operation is one in-process
  :func:`~repro.bench.engine.shards.run_sharded_campaign` over a fresh
  10,000-unit web-services corpus in one shard of the library's default
  and documented size (``DEFAULT_SHARD_SIZE``, ``--shard-size 10000``),
  crash-safe (fsync'd WAL) with a disk artifact cache; every corpus is
  new, so the cache only misses.  A 30-second window holds about sixteen
  such operations on one 2.1 GHz vCPU (1.8 s each); two shards per
  operation would leave eight.
- ``suite`` — a closed loop.  One operation is the eight experiments that
  read the reference campaign (R3 R4 R5 R6 R7 R12 R13 R14) through
  :func:`~repro.bench.engine.scheduler.run_experiments`, on a cold store
  with a fresh disk cache at a fresh seed: the shared campaign is computed
  once and hit by the rest, and the workload and campaign artifacts are
  persisted.
- ``service`` — an open loop against a ``repro serve`` child, with the
  repository's own load model for it (:mod:`repro.serve.trace` and
  ``benchmarks/bench_serve.py``): four tenants arriving as Poisson
  streams, ``tenant-0`` abusive at six times the others' rate.  Each
  arrival is one request: a submission of a fresh 60-unit, one-shard
  campaign with bench_serve's share (60 submissions in its 20,000-request
  default trace), otherwise a query — every third a finished job's result,
  the rest its status — on one of the tenant's finished jobs.  One
  operation is one request, timed from when the trace made it due.

Set-up is measured separately, as the cold start a user pays in a fresh
interpreter: ``repro run`` of a small campaign (campaign), ``repro run R3``
(suite), and ``repro serve`` until ``/healthz`` answers (service).

The service runs ``--jobs 1 --executor thread`` and the campaign workload
``jobs=1, executor="thread"``, both the defaults, stated so that the
program keeps at most one core busy: ``perfbench/speed.py`` assumes the
other one is free for its sampler.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.ledger import Ledger
from perfbench.speed import now

#: Units and shard size of one campaign operation: one shard of the
#: library default (``repro.workload.sharded.DEFAULT_SHARD_SIZE``), pinned
#: here so the input stays put if the default moves.
CAMPAIGN_SCALE = 10_000
CAMPAIGN_SHARD_SIZE = 10_000

#: The experiments one suite operation runs: those whose input is the
#: shared reference campaign, so the store's sharing is exercised.
SUITE_EXPERIMENTS = ("R3", "R4", "R5", "R6", "R7", "R12", "R13", "R14")

#: The service's load, from ``benchmarks/bench_serve.py``: its tenants,
#: abusive tenant, job size (one shard), share of submissions among
#: requests, and every third query a result fetch.
SERVICE_TENANTS = 4
SERVICE_ABUSIVE = "tenant-0"
SERVICE_JOB_SCALE = 60
SERVICE_SUBMIT_SHARE = 60 / 20_000
SERVICE_RESULT_EVERY = 3
#: Seconds per tick of :func:`repro.serve.trace.build_trace`, whose default
#: rates sum to 0.45 arrivals per tick: 1 ms gives 450 requests per
#: second, a quarter of the rate (about 1,800 per second on two 2.1 GHz
#: vCPUs) at which the client starts to fall behind its schedule.
SERVICE_TICK_S = 1e-3
#: Finished jobs per tenant that the queries read, made before the window.
SERVICE_HISTORY = 4
#: Keep-alive connections the requests go out on (bench_serve's count).
SERVICE_CONNECTIONS = 8
HTTP_TIMEOUT = 60.0

#: Tail percentile reported per workload.  The closed loops take the
#: highest of 75 and 50 with at least ten operations beyond it in a
#: 30-second run (about 16 campaigns, 60 suite passes).  The service's
#: 13,500 requests would allow p99, but p99 sits on the edge of the ~1.3%
#: of requests that arrive while a campaign holds the service's
#: interpreter (3-10 ms instead of 0.3 ms), so it swung by 11-16%
#: (quartile distance over median) across runs; p95 moved by 4-5%.
TAIL_PERCENTILE = {"campaign": 50, "suite": 75, "service": 95}

#: Cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Longest a child process may take to start or to drain.
CHILD_TIMEOUT = 120.0

#: Campaign operations whose outputs are recomputed after the window (the
#: reference takes twice an operation's time).
CHECKED_OPS = 2


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held."""

    spans: list[tuple[float, float]] = field(default_factory=list)
    """``(began, ended)`` of each completed operation, on the clock of
    :func:`perfbench.speed.now`; a service request begins when it was due."""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    """Why outputs were judged wrong (empty when correct)."""
    setup: list[tuple[float, float]] = field(default_factory=list)
    """``(began, ended)`` of each cold start."""
    cache_hits: int = 0
    cache_misses: int = 0
    """Artifact-store hits and misses (on the service, its jobs')."""
    result_hits: int = 0
    result_misses: int = 0
    """Result-cache hits and misses (service)."""
    queued: list[float] = field(default_factory=list)
    """Seconds each job submitted in the window waited in the service queue."""
    lags: list[float] = field(default_factory=list)
    """Seconds each service request went out after it was due."""

    def count_cache(self, before: dict[str, int], after: dict[str, int]) -> None:
        """Cache hits and misses between two counter snapshots."""

        def delta(name: str) -> int:
            return after.get(name, 0) - before.get(name, 0)

        self.cache_hits = delta("engine.cache.hit") + delta("engine.cache.disk_hit")
        self.cache_misses = delta("engine.cache.miss")
        self.result_hits = delta("serve.cache.hits")
        self.result_misses = delta("serve.cache.misses")

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def op_failed(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"perfbench: {what} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)


def _op_seeds(seed: int, label: str):
    """An endless, seed-determined stream of 31-bit corpus seeds."""
    rng = random.Random(f"{label}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def _closed_loop(outcome: Outcome, seconds: float, op, what: str) -> None:
    """Run ``op(k)`` back to back until ``seconds`` have passed."""
    deadline = now() + seconds
    k = 0
    while now() < deadline:
        outcome.attempted += 1
        began = now()
        try:
            op(k)
        except Exception:  # noqa: BLE001 — count it, keep measuring
            outcome.op_failed(f"{what} {k}")
        else:
            outcome.spans.append((began, now()))
        k += 1


# ---------------------------------------------------------------------------
# The independent reference
# ---------------------------------------------------------------------------
def reference_totals(scale: int, shard_size: int, corpus_seed: int) -> dict:
    """One campaign's totals, recomputed the slow, obviously correct way.

    Every shard is generated by ``generate_workload_scalar`` (the one-draw-
    at-a-time path the columnar decode/materialize path is held to) and
    every tool's report is scored by ``score_report_weighted`` at equal
    severities (which reduces to site counting), then summed in plain
    Python.  Only the tools' ``analyze`` is shared with the timed path.
    """
    from repro.bench.streaming import StreamingCampaignResult
    from repro.metrics.confusion import ConfusionMatrix
    from repro.persist import streaming_totals_to_dict
    from repro.tools.families import suite_for_ecosystem
    from repro.workload.generator import generate_workload_scalar
    from repro.workload.sharded import plan_shards

    plan = plan_shards(scale=scale, shard_size=shard_size, seed=corpus_seed)
    tools = suite_for_ecosystem(seed=corpus_seed)
    cells = {tool.name: [0.0, 0.0, 0.0, 0.0] for tool in tools}
    n_units = n_sites = n_vulnerable = 0
    for index in range(plan.n_shards):
        workload = generate_workload_scalar(plan.config_for(index))
        for tool in tools:
            cm = _count_sites(tool.analyze(workload), workload.truth)
            for k, value in enumerate((cm.tp, cm.fp, cm.fn, cm.tn)):
                cells[tool.name][k] += value
        n_units += len(workload.units)
        n_sites += len(workload.truth.sites)
        n_vulnerable += len(workload.truth.vulnerable)
    return streaming_totals_to_dict(
        StreamingCampaignResult(
            tool_names=tuple(cells),
            confusions=tuple(ConfusionMatrix(*cell) for cell in cells.values()),
            n_units=n_units,
            n_sites=n_sites,
            n_vulnerable=n_vulnerable,
            shard_indices=tuple(range(plan.n_shards)),
        )
    )


def _count_sites(report, truth):
    """A report's confusion cells by ``score_report_weighted``, weight 1."""
    from repro.bench.weighted import score_report_weighted
    from repro.workload.taxonomy import VulnerabilityType

    return score_report_weighted(
        report, truth, dict.fromkeys(VulnerabilityType, 1.0)
    )


# ---------------------------------------------------------------------------
# Child processes: the CLI and the service
# ---------------------------------------------------------------------------
def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _timed_cli(root: Path, args: list[str]) -> tuple[float, float]:
    """When one ``python -m repro ...`` was spawned and when it exited."""
    started = now()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=root,
        env=_child_env(root),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT,
    )
    ended = now()
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} exited {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-500:]}"
        )
    return started, ended


#: ``repro serve`` flags fixed by the benchmark (the defaults, stated).
SERVE_FLAGS = ["--port", "0", "--serve-workers", "1", "--jobs", "1",
               "--executor", "thread"]


class _ServeProcess:
    """A ``repro serve`` child on an ephemeral loopback port.

    With ``ledger_path`` the child is ``perfbench/serve_child.py``, which
    runs the same CLI with the layer probes in place.
    """

    def __init__(self, root: Path, state_dir: Path, ledger_path: Path | None = None):
        if ledger_path is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [sys.executable, str(root / "perfbench" / "serve_child.py"),
                    str(ledger_path)]
        self.ledger_path = ledger_path
        self.proc = subprocess.Popen(
            argv + ["--state-dir", str(state_dir), *SERVE_FLAGS],
            cwd=root,
            env=_child_env(root),
            stdout=subprocess.PIPE,
        )
        try:
            line = self._bounded(self.proc.stdout.readline).decode()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"repro serve announced {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
        except BaseException:
            self.close()
            raise

    def _bounded(self, call):
        """``call()``, killing the child if it takes CHILD_TIMEOUT."""
        watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            return call()
        finally:
            watchdog.cancel()

    def call(self, method: str, path: str, body: dict | None = None) -> bytes:
        """One request on a fresh connection; the body of a 2xx answer."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT)
        try:
            conn.request(
                method, path,
                body=None if body is None else json.dumps(body),
                headers={} if body is None else {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status >= 300:
            raise RuntimeError(f"{method} {path} answered {response.status}: {data!r}")
        return data

    def get(self, path: str) -> dict:
        return json.loads(self.call("GET", path))

    def wait_finished(self, job_ids: list[str]) -> dict[str, dict]:
        """Poll until every job has finished; their records by id."""
        deadline = now() + CHILD_TIMEOUT
        while True:
            records = {r["job_id"]: r for r in self.get("/v1/jobs")["jobs"]}
            if all(records[j]["state"] in ("completed", "failed") for j in job_ids):
                return records
            if now() > deadline:
                raise RuntimeError("service jobs did not finish in time")
            time.sleep(0.05)

    def start_ledger(self) -> None:
        """Start recording in the child's probes."""
        self.proc.send_signal(signal.SIGUSR1)

    def stop_ledger(self) -> dict[str, float]:
        """Stop the child's probes and read their per-layer totals."""
        self.ledger_path.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR2)
        deadline = time.monotonic() + CHILD_TIMEOUT
        while not self.ledger_path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the service wrote no ledger")
            time.sleep(0.01)
        return json.loads(self.ledger_path.read_text())

    def close(self) -> int:
        """Drain with SIGTERM and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self._bounded(self.proc.stdout.read)
            return self.proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def _timed_serve(root: Path, state_dir: Path) -> tuple[float, float]:
    """When ``repro serve`` was spawned and when ``/healthz`` answered."""
    started = now()
    service = _ServeProcess(root, state_dir)
    try:
        service.get("/healthz")
        ended = now()
    finally:
        code = service.close()
    if code != 0:
        raise RuntimeError(f"repro serve exited {code}")
    return started, ended


def measure_setup(
    workload: str, root: Path, state: Path, seed: int
) -> list[tuple[float, float]]:
    """``SETUP_REPEATS`` cold starts of ``workload``'s system."""
    seeds = _op_seeds(seed, "setup")
    samples = []
    for repeat in range(SETUP_REPEATS):
        if workload == "campaign":
            samples.append(_timed_cli(root, [
                "run", "--scale", "200", "--seed", str(next(seeds)), "--quiet",
            ]))
        elif workload == "suite":
            samples.append(_timed_cli(root, [
                "run", SUITE_EXPERIMENTS[0], "--seed", str(next(seeds)), "--quiet",
            ]))
        else:
            samples.append(_timed_serve(root, state / f"setup-serve-{repeat}"))
    return samples


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------
def _check_campaign(run, corpus_seed: int, wal: Path) -> str | None:
    """Compare one campaign with the reference and with its journal."""
    from repro.bench.engine.wal import replay_journal
    from repro.bench.streaming import CampaignAccumulator, ShardCells
    from repro.persist import streaming_totals_to_dict

    totals = streaming_totals_to_dict(run.totals)
    if reference_totals(CAMPAIGN_SCALE, CAMPAIGN_SHARD_SIZE, corpus_seed) != totals:
        return f"campaign seed {corpus_seed}: totals differ from the reference"
    replay = replay_journal(wal)
    journaled = CampaignAccumulator(replay.header.tool_names)
    for array in replay.arrays:
        journaled.fold(ShardCells.from_array(array, replay.header.tool_names))
    if streaming_totals_to_dict(journaled.result()) != totals:
        return f"campaign seed {corpus_seed}: journal replay differs from totals"
    return None


def run_campaign_workload(
    root: Path, seed: int, seconds: float, state: Path, ledger: Ledger | None
) -> Outcome:
    from repro.bench.engine.shards import run_sharded_campaign
    from repro.obs import Observability

    outcome = Outcome()
    obs = Observability()
    seeds = _op_seeds(seed, "campaign")
    checked = []

    def campaign(k: int) -> None:
        corpus_seed = next(seeds)
        wal = state / f"campaign-{k}.wal"
        run = run_sharded_campaign(
            scale=CAMPAIGN_SCALE,
            shard_size=CAMPAIGN_SHARD_SIZE,
            seed=corpus_seed,
            jobs=1,
            executor="thread",
            cache_dir=str(state / "cache"),
            wal_path=str(wal),
            obs=obs,
        )
        if not run.ok or run.totals is None or run.totals.n_units != CAMPAIGN_SCALE:
            raise RuntimeError(f"campaign seed {corpus_seed} did not complete")
        if 0 <= k < CHECKED_OPS:
            checked.append((run, corpus_seed, wal))

    campaign(-1)  # warm-up: lazy imports and first-use caches
    before = obs.metrics.counter_values()
    if ledger is not None:
        ledger.recording = True
    _closed_loop(outcome, seconds, campaign, "campaign")
    if ledger is not None:
        ledger.recording = False
    outcome.count_cache(before, obs.metrics.counter_values())
    for run, corpus_seed, wal in checked:
        problem = _check_campaign(run, corpus_seed, wal)
        if problem:
            outcome.fail(problem)
    return outcome


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------
def _renders(run) -> dict[str, str]:
    return {key: result.render() for key, result in run.results.items()}


def _check_r3(suite_seed: int, campaign) -> str | None:
    """R3's cells against the reference workload generated and scored
    without the columnar path or ``score_report``."""
    from repro.bench.experiments.r3_campaign import reference_workload
    from repro.tools.suite import reference_suite
    from repro.workload.generator import generate_workload_scalar

    workload = generate_workload_scalar(reference_workload(seed=suite_seed).config)
    tools = reference_suite(seed=suite_seed)
    expected = [
        (tool.name, _count_sites(tool.analyze(workload), workload.truth))
        for tool in tools
    ]
    got = [(r.tool_name, r.confusion) for r in campaign.results]
    if [(n, (c.tp, c.fp, c.fn, c.tn)) for n, c in expected] != [
        (n, (c.tp, c.fp, c.fn, c.tn)) for n, c in got
    ]:
        return f"suite seed {suite_seed}: R3 cells differ from the reference"
    return None


def run_suite_workload(
    root: Path, seed: int, seconds: float, state: Path, ledger: Ledger | None
) -> Outcome:
    from repro.bench.engine import run_experiments
    from repro.obs import Observability

    outcome = Outcome()
    obs = Observability()
    seeds = _op_seeds(seed, "suite")
    first = []

    def suite(suite_seed: int, cache_dir: Path | None):
        run = run_experiments(
            SUITE_EXPERIMENTS,
            seed=suite_seed,
            cache_dir=None if cache_dir is None else str(cache_dir),
            obs=obs,
        )
        if not run.manifest.ok or set(run.results) != set(SUITE_EXPERIMENTS):
            raise RuntimeError(f"suite seed {suite_seed} did not complete")
        return run

    def op(k: int) -> None:
        suite_seed = next(seeds)
        run = suite(suite_seed, state / f"suite-{k}")
        if not first:
            first.append((suite_seed, _renders(run), run.results["R3"].data["campaign"]))

    suite(next(seeds), None)  # warm-up
    before = obs.metrics.counter_values()
    if ledger is not None:
        ledger.recording = True
    _closed_loop(outcome, seconds, op, "suite pass")
    if ledger is not None:
        ledger.recording = False
    outcome.count_cache(before, obs.metrics.counter_values())
    if not first:
        outcome.fail("no suite pass completed")
        return outcome
    suite_seed, renders, campaign = first[0]
    if _renders(suite(suite_seed, None)) != renders:
        outcome.fail(f"suite seed {suite_seed}: reports differ on a clean re-run")
    problem = _check_r3(suite_seed, campaign)
    if problem:
        outcome.fail(problem)
    return outcome


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
def _submission(tenant: str, corpus_seed: int) -> dict:
    return {
        "scale": SERVICE_JOB_SCALE,
        "shard_size": SERVICE_JOB_SCALE,
        "seed": corpus_seed,
        "tenant": tenant,
    }


def _check_service_result(body: bytes, corpus_seed: int) -> str | None:
    totals = json.loads(body)["totals"]
    if reference_totals(SERVICE_JOB_SCALE, SERVICE_JOB_SCALE, corpus_seed) != totals:
        return f"service job seed {corpus_seed}: totals differ from the reference"
    return None


def _history(service: _ServeProcess, seed: int, outcome: Outcome) -> dict[str, list[str]]:
    """Finished jobs per tenant for the queries to read, submitted one at a
    time so their ids are the same on every run; checks their results and
    records the answers every later query must repeat."""
    seeds = _op_seeds(seed, "service:history")
    history: dict[str, list[str]] = {}
    corpus: dict[str, int] = {}
    for i in range(SERVICE_TENANTS):
        tenant = f"tenant-{i}"
        for _ in range(SERVICE_HISTORY):
            corpus_seed = next(seeds)
            body = service.call("POST", "/v1/campaigns", _submission(tenant, corpus_seed))
            job_id = json.loads(body)["job"]["job_id"]
            history.setdefault(tenant, []).append(job_id)
            corpus[job_id] = corpus_seed
    records = service.wait_finished(list(corpus))
    for job_id, corpus_seed in corpus.items():
        if records[job_id]["state"] != "completed":
            raise RuntimeError(f"history job {job_id} ended {records[job_id]['state']}")
        problem = _check_service_result(
            service.call("GET", f"/v1/jobs/{job_id}/result"), corpus_seed
        )
        if problem:
            outcome.fail(problem)
    return history


def _request(method: str, path: str, body: dict | None = None) -> bytes:
    """One HTTP/1.1 keep-alive request, encoded."""
    if body is None:
        return f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode()
    data = json.dumps(body).encode()
    return (
        f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    ).encode() + data


def _schedule(seed: int, seconds: float, history: dict[str, list[str]]) -> list:
    """The window's requests: ``(due offset s, path, request, corpus seed)``;
    the corpus seed is ``None`` except on submissions."""
    from repro.serve.trace import build_trace

    trace = build_trace(
        n_tenants=SERVICE_TENANTS,
        duration=seconds / SERVICE_TICK_S,
        seed=seed,
        abusive=SERVICE_ABUSIVE,
    )
    kinds = random.Random(f"service:kinds:{seed}")
    seeds = _op_seeds(seed, "service:window")
    requests = []
    for event in trace.events:
        at = event.at * SERVICE_TICK_S
        if kinds.random() < SERVICE_SUBMIT_SHARE:
            corpus_seed = next(seeds)
            request = _request(
                "POST", "/v1/campaigns", _submission(event.tenant, corpus_seed)
            )
            requests.append((at, "/v1/campaigns", request, corpus_seed))
            continue
        jobs = history[event.tenant]
        path = f"/v1/jobs/{jobs[event.index % len(jobs)]}"
        if event.index % SERVICE_RESULT_EVERY == 0:
            path += "/result"
        requests.append((at, path, _request("GET", path), None))
    return requests


class _Connection:
    """A keep-alive HTTP/1.1 connection on a raw socket, as in
    ``benchmarks/bench_serve.py``: the client's own cost per request stays
    small beside the service's."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=HTTP_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request and read its answer: ``(status, body)``."""
        self.sock.sendall(request)
        status = int(self.file.readline().split(b" ", 2)[1])
        length = 0
        while line := self.file.readline().strip():
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return status, self.file.read(length)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def _replay(port: int, requests: list) -> list:
    """Send each request when it is due, whatever the service is doing
    (an open loop).  Requests are dealt round-robin onto
    SERVICE_CONNECTIONS keep-alive connections, as bench_serve splits its
    trace, each driven by its own thread; a request whose connection is
    still waiting for an earlier answer goes out late, and its time still
    counts from when it was due.  Returns ``(due, sent, done, status,
    body)`` per request."""
    answers: list = [None] * len(requests)
    conns: list = [_Connection(port) for _ in range(SERVICE_CONNECTIONS)]
    start = now() + 0.05

    def sender(lane: int) -> None:
        for i in range(lane, len(requests), SERVICE_CONNECTIONS):
            due = start + requests[i][0]
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            sent = now()
            try:
                if conns[lane] is None:
                    conns[lane] = _Connection(port)
                status, body = conns[lane].exchange(requests[i][2])
                answers[i] = (due, sent, now(), status, body)
            except (OSError, ValueError, IndexError) as error:
                answers[i] = (due, sent, now(), None, repr(error).encode())
                if conns[lane] is not None:
                    conns[lane].close()
                conns[lane] = None

    threads = [
        threading.Thread(target=sender, args=(lane,))
        for lane in range(SERVICE_CONNECTIONS)
    ]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
        for conn in conns:
            if conn is not None:
                conn.close()
    return answers


def run_service_workload(
    root: Path, seed: int, seconds: float, state: Path, ledger: Ledger | None
) -> Outcome:
    outcome = Outcome()
    service = _ServeProcess(
        root, state / "serve", None if ledger is None else state / "ledger.json"
    )
    try:
        history = _history(service, seed, outcome)
        expected = {}
        for jobs in history.values():
            for job_id in jobs:
                for path in (f"/v1/jobs/{job_id}", f"/v1/jobs/{job_id}/result"):
                    expected[path] = service.call("GET", path)
        requests = _schedule(seed, seconds, history)
        before = service.get("/v1/stats")["counters"]
        if ledger is not None:
            service.start_ledger()
        answers = _replay(service.port, requests)
        if ledger is not None:
            ledger.seconds.update(service.stop_ledger())
        outcome.count_cache(before, service.get("/v1/stats")["counters"])

        submitted = {}  # job id -> corpus seed, for jobs made in the window
        for (_, path, _, corpus_seed), answer in zip(requests, answers):
            due, sent, done, status, body = answer
            outcome.attempted += 1
            if status is None or status >= 300:
                outcome.failed += 1
                if outcome.failed <= 3:
                    print(f"perfbench: {path} answered {status}: {body[:200]!r}",
                          file=sys.stderr)
                continue
            outcome.spans.append((due, done))
            outcome.lags.append(sent - due)
            if corpus_seed is not None:
                submitted[json.loads(body)["job"]["job_id"]] = corpus_seed
            elif body != expected[path]:
                outcome.fail(f"GET {path} answered differently in the window")
        records = service.wait_finished(list(submitted))
        for job_id, corpus_seed in submitted.items():
            record = records[job_id]
            if record["state"] != "completed":
                outcome.fail(f"job {job_id} ended {record['state']}")
                continue
            outcome.queued.append(record["started_at"] - record["submitted_at"])
            problem = _check_service_result(
                service.call("GET", f"/v1/jobs/{job_id}/result"), corpus_seed
            )
            if problem:
                outcome.fail(problem)
    finally:
        code = service.close()
    if code != 0:
        outcome.fail(f"repro serve exited {code}")
    return outcome


WORKLOADS = {
    "campaign": run_campaign_workload,
    "suite": run_suite_workload,
    "service": run_service_workload,
}
