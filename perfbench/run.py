"""The repository benchmark: three workloads, one result line each run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py`` for what each operation is and
how its outputs are checked):

- ``campaign`` — 10,000-unit sharded campaigns through the engine, in
  process, one after another;
- ``suite`` — the experiments built on the reference campaign, one pass
  after another;
- ``service`` — the Poisson multi-tenant request trace of
  ``repro.serve.trace`` replayed on schedule against ``repro serve``.

Every time is given in reference milliseconds or seconds: the wall time
scaled by the host's speed at that moment, as sampled by the calibration
loop of ``perfbench/speed.py``.  On the 2-vCPU virtual machine the
benchmark was tuned on, raw wall times of one workload spread by 10-35%
(quartile distance over median) across five runs, because the vCPU's
speed changes by up to 1.7x within seconds.  The raw figures are printed
on standard error and reported beside the scaled ones under ``--trace 1``
(``op_wall_ms``, ``loop_ms``), so the scaling can be checked.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
no instrumentation in place:

- ``op_p50_ms`` — median time of one operation (a campaign, a suite
  pass, a service request from when it was due to its answer);
- ``op_tail_ms`` — the workload's tail percentile of the same: p50 of
  about 16 campaigns and p75 of about 60 suite passes (the highest with
  ten operations beyond it), p95 of about 13,500 requests (see
  ``TAIL_PERCENTILE`` for why not p99);
- ``op_mean_ms`` — mean time of one operation, for the closed loops the
  inverse of throughput;
- ``setup_s`` — median cold start of the workload's system in a fresh
  interpreter (five per run).

With ``--trace 1`` it reports the layer ledger instead (probes from
``perfbench/ledger.py``), per operation: milliseconds in each layer, the
unattributed remainder ``other_ms`` and its share, the operation total
``op_ms`` they add up to, and cache hits and misses.  On the service the
engine layers run beside the requests, not inside them, so their rows
are the engine time each request brings with it, and ``other`` is what a
request spends outside ``dispatch`` and ``result_cache``; ``queue_ms``
is the mean wait of a job submitted in the window, and ``send_lag_ms``
how late the client sent requests on average.

The last line of standard output is the JSON result; diagnostics go to
standard error.  The package under test is imported from ``src/`` of the
checkout this file sits in, and the run keeps its scratch state in
``.perfbench/`` there, removing it on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_ROOT = ROOT / ".perfbench"


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(outcome, speed, tail: int) -> dict[str, dict]:
    ops = [speed.reference(*span) for span in outcome.spans]
    setup = [speed.reference(*span) for span in outcome.setup]
    return {
        "op_p50_ms": {"value": statistics.median(ops) * 1e3, "unit": "ms"},
        "op_tail_ms": {
            "value": _percentile(ops, tail) * 1e3,
            "unit": "ms",
        },
        "op_mean_ms": {"value": statistics.fmean(ops) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


#: Layers an operation waits for; on the service the engine layers run in
#: the background instead.
ON_PATH = {"service": ("dispatch", "result_cache")}


def _per_layer(workload: str, outcome, ledger, speed) -> dict[str, dict]:
    ops = len(outcome.spans)
    began = min(start for start, _ in outcome.spans)
    ended = max(end for _, end in outcome.spans)
    scale = speed.scale(began, ended)
    to_ms = 1e3 * scale / ops
    op_wall = sum(end - start for start, end in outcome.spans) / ops

    def ms(value: float) -> dict:
        return {"value": value, "unit": "ms"}

    def per_op(count: int) -> dict:
        return {"value": count / ops, "unit": "count"}

    metrics = {
        f"{layer}_ms": ms(seconds * to_ms) for layer, seconds in ledger.seconds.items()
    }
    op_ms = op_wall * 1e3 * scale
    on_path = ON_PATH.get(workload, tuple(ledger.seconds))
    other_ms = op_ms - sum(metrics[f"{layer}_ms"]["value"] for layer in on_path)
    metrics["other_ms"] = ms(other_ms)
    metrics["other_pct"] = {"value": 100 * other_ms / op_ms, "unit": "%"}
    metrics["op_ms"] = ms(op_ms)
    metrics["op_wall_ms"] = ms(op_wall * 1e3)
    metrics["loop_ms"] = ms(speed.loop_seconds(began, ended) * 1e3)
    mean = statistics.fmean
    metrics["queue_ms"] = ms(mean(outcome.queued) * 1e3 * scale if outcome.queued else 0.0)
    metrics["send_lag_ms"] = ms(mean(outcome.lags) * 1e3 * scale if outcome.lags else 0.0)
    metrics["cache_hits_per_op"] = per_op(outcome.cache_hits)
    metrics["cache_misses_per_op"] = per_op(outcome.cache_misses)
    metrics["result_hits_per_op"] = per_op(outcome.result_hits)
    metrics["result_misses_per_op"] = per_op(outcome.result_misses)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("campaign", "suite", "service")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    from perfbench.ledger import Ledger, install
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import TAIL_PERCENTILE, WORKLOADS, measure_setup

    state = STATE_ROOT / f"{args.workload}-{os.getpid()}"
    speed = SpeedProbe()
    try:
        state.mkdir(parents=True)
        if args.trace:
            ledger = Ledger()
            undo = install(ledger)
            try:
                outcome = WORKLOADS[args.workload](
                    ROOT, args.seed, args.seconds, state, ledger
                )
            finally:
                undo()
        else:
            setup = measure_setup(args.workload, ROOT, state, args.seed)
            outcome = WORKLOADS[args.workload](
                ROOT, args.seed, args.seconds, state, None
            )
            outcome.setup = setup
    finally:
        speed.close()
        shutil.rmtree(state, ignore_errors=True)
        try:
            STATE_ROOT.rmdir()
        except OSError:
            pass  # another run still holds its state there

    if len(outcome.spans) < 2:
        print("perfbench: fewer than two operations completed", file=sys.stderr)
        return 1
    wall = [end - began for began, end in outcome.spans]
    window = (min(s for s, _ in outcome.spans), max(e for _, e in outcome.spans))
    tail = TAIL_PERCENTILE[args.workload]
    lag = (
        f", send lag p99 {_percentile(outcome.lags, 99) * 1e3:.2f} ms"
        if outcome.lags else ""
    )
    print(
        f"perfbench: {len(wall)} operations, wall p50 "
        f"{statistics.median(wall) * 1e3:.2f} ms, p{tail} "
        f"{_percentile(wall, tail) * 1e3:.2f} ms, mean "
        f"{statistics.fmean(wall) * 1e3:.2f} ms; calibration loop median "
        f"{speed.loop_seconds(*window) * 1e3:.3f} ms in the window{lag}",
        file=sys.stderr,
    )
    if args.trace:
        metrics = _per_layer(args.workload, outcome, ledger, speed)
    else:
        metrics = _end_to_end(outcome, speed, tail)
    print(
        json.dumps(
            {
                "correct": not outcome.errors and outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
