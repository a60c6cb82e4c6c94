"""Host speed, sampled beside the workload, to put timings on one scale.

Usage (started by ``perfbench/run.py``, not by hand)::

    python3 perfbench/speed.py

On a shared virtual machine the CPU the benchmark gets runs a fixed piece
of Python at speeds that differ by up to 1.7x from one second to the next,
and the mix changes over minutes, so raw wall times of the same program
spread by a quarter between runs.  This module runs a fixed calibration
loop in a separate process every few milliseconds while the workload runs,
and scales each measured interval by how long the loop took around it:

    reference seconds = wall seconds * REFERENCE_S / (loop seconds nearby)

On a host where the loop takes ``REFERENCE_S`` the two are equal; on a
slower moment of the same host, both the workload and the loop take
longer and the ratio stays put.  The sampler runs in its own process so
that it neither holds the workload's interpreter lock nor waits for it.

The loop uses only the standard library, never the package under test,
so a change to the program moves the workload's times and not the scale.
Its mix matters: a pure arithmetic loop tracked the campaign workload
less well (spread 6-14% over five runs) than this mix of arithmetic,
hashing and object churn (2-7%), and loops dominated by memory latency
tracked it worst.

The child samples until its standard input becomes readable (a line or
end of file), then writes its samples as JSON (``[[midpoint, seconds], ...]`` on the system-wide
``CLOCK_MONOTONIC``) to standard output and exits.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Sizes of the calibration loop's three parts; together 2 ms to 3.5 ms
#: of one 2.1 GHz Xeon vCPU, depending on the moment.
ARITH_LOOPS = 10_000
TABLE_KEYS = 3_000
OBJECTS = 2_000
#: The loop time that defines one reference second per wall second.
REFERENCE_S = 3e-3
#: Pause between samples: the sampler keeps to about a tenth of a CPU.
INTERVAL_S = 0.025
#: Samples this far either side of an interval still describe its speed.
WINDOW_S = 0.25


def now() -> float:
    """Seconds on the clock the sampler and the benchmark share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Cell:
    __slots__ = ("key", "bucket")

    def __init__(self, key: int, bucket: int) -> None:
        self.key = key
        self.bucket = bucket


def _kernel(keys: list[int]) -> int:
    """The calibration loop: interpreter arithmetic, a dict of fresh
    strings sorted by key, and short-lived objects, the kinds of work the
    program's own Python does.  A speed change that hits one kind harder
    than another moves the loop by their mix, not by one kind alone."""
    total = 0
    for i in range(ARITH_LOOPS):
        total += i * i % 7
    table = {}
    for key in keys:
        table[key] = (key, str(key))
    total += sorted(table)[-1]
    kept = {}
    for key in keys[:OBJECTS]:
        cell = _Cell(key, key % 13)
        if cell.bucket in (1, 3, 5):
            kept[cell.key] = cell
    return total + len(kept)


def _sample_until_stdin_closes() -> list[list[float]]:
    # The loop frees everything by reference count; a collector pass
    # landing in some samples and not others would split their times.
    gc.disable()
    keys = random.Random(0).sample(range(1 << 20), TABLE_KEYS)
    samples = []
    while True:
        started = now()
        _kernel(keys)
        elapsed = now() - started
        samples.append([started + elapsed / 2, elapsed])
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            return samples


class SpeedProbe:
    """The sampler child, and the scale it gives afterwards.

    ``close()`` stops the child and collects its samples; only then does
    :meth:`reference` work.
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._loops: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def close(self, timeout: float = 30.0) -> None:
        """Stop sampling and read what was sampled (idempotent)."""
        if self._proc.returncode is not None:
            return
        try:
            out, _ = self._proc.communicate(input=b"stop\n", timeout=timeout)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed sampler exited {self._proc.returncode}")
        for midpoint, seconds in json.loads(out):
            self._times.append(midpoint)
            self._loops.append(seconds)

    def loop_seconds(self, began: float, ended: float) -> float:
        """Median loop time around ``[began, ended]`` (clock of :func:`now`)."""
        lo = bisect.bisect_left(self._times, began - WINDOW_S)
        hi = bisect.bisect_right(self._times, ended + WINDOW_S)
        if lo == hi:
            raise RuntimeError("the speed sampler stalled")
        return statistics.median(self._loops[lo:hi])

    def scale(self, began: float, ended: float) -> float:
        """Reference seconds per wall second over ``[began, ended]``."""
        return REFERENCE_S / self.loop_seconds(began, ended)

    def reference(self, began: float, ended: float) -> float:
        """``ended - began`` wall seconds, in reference seconds."""
        return (ended - began) * self.scale(began, ended)


if __name__ == "__main__":
    json.dump(_sample_until_stdin_closes(), sys.stdout)
