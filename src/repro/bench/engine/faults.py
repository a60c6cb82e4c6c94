"""Deterministic fault injection for the experiment engine.

Real benchmarking campaigns over vulnerability detection tools fail in
three characteristic ways: a tool crashes, a tool hangs, and an archived
artifact rots on disk.  This module simulates all three *deterministically*
so the test suite (and the ``check_bench`` CI smoke) can exercise every
fault-tolerance path — retries, keep-going isolation, cascade skips,
timeouts, and cache quarantine — on both the thread and the process
executor without any real flakiness:

- **fail-on-attempt-K** — :class:`FaultSpec.fail_attempts` makes an
  experiment raise :class:`InjectedFault` on attempts ``1..K``, so
  ``retries >= K`` recovers and ``retries < K`` terminally fails, by
  construction rather than by chance;
- **hang-for-N-seconds** — :class:`FaultSpec.hang_seconds` sleeps before
  the experiment body runs, long enough to trip a run's ``timeout``;
- **corrupt-artifact-bytes** — :func:`corrupt_file` truncates or
  overwrites an on-disk cache file, exercising the store's
  quarantine-and-recompute path;
- **kill-the-worker** — :class:`FaultSpec.kill_attempts` makes the task
  ``os._exit`` mid-attempt, simulating a segfaulting tool process; the
  runner's supervision must rebuild the pool and re-dispatch (and
  quarantine the experiment or shard when the kills never stop).  Kill
  faults require the process executor: run inline, the task would kill
  the parent itself;
- **parent-side chaos** — a fault addressed to :data:`PARENT_FAULT_ID`
  is applied by the *campaign parent*, not a worker: ``kill=K`` SIGKILLs
  the parent after K folded shards (exercising ``--resume`` journal
  replay) and ``stop=N`` requests a graceful drain after N folds
  (exercising the SIGTERM path without process plumbing);
- **torn-journal-tail** — :func:`tear_file` truncates trailing bytes,
  simulating a crash mid-append to the write-ahead journal.

The injection point is the start of each task attempt — the experiment
and shard bodies, which run alike on the calling thread or in a worker
process (:mod:`repro.bench.engine.runner`); a :class:`FaultSpec`
is a frozen dataclass of primitives, so it pickles across the process
boundary unchanged.  Because the attempt number is passed in by the
runner, fault decisions are pure functions — no hidden counters that
could drift between executors.

:class:`InjectedFault` deliberately derives from ``RuntimeError``, not
:class:`~repro.errors.ReproError`: it stands in for an *arbitrary*
third-party tool crash, which is exactly what the engine's failure
isolation must survive.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "parse_fault",
    "corrupt_file",
    "tear_file",
    "ALWAYS",
    "KILL_EXIT_CODE",
    "PARENT_FAULT_ID",
]

#: ``fail_attempts`` value meaning "fail every attempt" (no retry recovers).
ALWAYS = 10**9

#: Exit status a kill fault dies with (visibly distinct from exit 1).
KILL_EXIT_CODE = 70

#: Fault id whose clauses the campaign *parent* applies (``--inject-fault
#: parent:kill=2`` SIGKILLs the parent after two folds; ``parent:stop=2``
#: requests a graceful drain instead).
PARENT_FAULT_ID = "PARENT"


class InjectedFault(RuntimeError):
    """The simulated crash raised by a fail fault (not a ``ReproError``)."""


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic faults for one experiment (picklable primitives only)."""

    experiment_id: str
    fail_attempts: int = 0
    """Raise :class:`InjectedFault` on attempts ``1..fail_attempts``."""
    hang_seconds: float = 0.0
    """Sleep this long before the experiment body (0 disables hanging)."""
    hang_attempts: int | None = None
    """Hang on attempts ``1..hang_attempts``; ``None`` = every attempt."""
    kill_attempts: int = 0
    """``os._exit`` the executing process on attempts ``1..kill_attempts``
    (a simulated segfault; requires the process executor).  On the
    :data:`PARENT_FAULT_ID` spec this instead SIGKILLs the campaign
    parent after ``kill_attempts`` folded shards."""
    stop_after: int = 0
    """Parent-side only: request a graceful drain after this many folded
    shards (0 disables; ignored on worker-targeted specs)."""

    def __post_init__(self) -> None:
        if self.fail_attempts < 0:
            raise ConfigurationError(
                f"fail_attempts must be >= 0, got {self.fail_attempts}"
            )
        if self.hang_seconds < 0:
            raise ConfigurationError(
                f"hang_seconds must be >= 0, got {self.hang_seconds}"
            )
        if self.kill_attempts < 0:
            raise ConfigurationError(
                f"kill_attempts must be >= 0, got {self.kill_attempts}"
            )
        if self.stop_after < 0:
            raise ConfigurationError(
                f"stop_after must be >= 0, got {self.stop_after}"
            )

    def apply(self, attempt: int) -> None:
        """Execute this fault for ``attempt`` (sleep, die, or raise)."""
        if self.hang_seconds > 0 and (
            self.hang_attempts is None or attempt <= self.hang_attempts
        ):
            time.sleep(self.hang_seconds)
        if attempt <= self.kill_attempts:
            # A real segfault gives no one a chance to clean up; neither
            # does this.  The runner's supervision layer must cope.
            os._exit(KILL_EXIT_CODE)
        if attempt <= self.fail_attempts:
            raise InjectedFault(
                f"injected fault: {self.experiment_id} attempt {attempt} "
                f"(fails through attempt {self.fail_attempts})"
            )


@dataclass(frozen=True)
class FaultPlan:
    """The run-wide fault schedule the scheduler consults per attempt."""

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for fault in self.faults:
            if fault.experiment_id in seen:
                raise ConfigurationError(
                    f"duplicate fault for experiment {fault.experiment_id!r}"
                )
            seen.add(fault.experiment_id)

    def for_experiment(self, experiment_id: str) -> FaultSpec | None:
        """The fault targeting ``experiment_id``, if any."""
        for fault in self.faults:
            if fault.experiment_id == experiment_id:
                return fault
        return None

    def apply(self, experiment_id: str, attempt: int) -> None:
        """Apply the fault targeting ``experiment_id`` for ``attempt``."""
        fault = self.for_experiment(experiment_id)
        if fault is not None:
            fault.apply(attempt)


def parse_fault(text: str) -> FaultSpec:
    """Parse one ``--inject-fault`` argument into a :class:`FaultSpec`.

    Accepted forms (clauses combine)::

        R4                  fail every attempt
        R4:fail=2           fail attempts 1 and 2, then succeed
        R4:hang=1.5         sleep 1.5s before every attempt
        R4:fail=1:hang=0.2  both
        S2:kill=1           os._exit the worker on attempt 1 (shard 2)
        PARENT:kill=2       SIGKILL the campaign parent after 2 folds
        PARENT:stop=2       graceful drain request after 2 folds

    """
    parts = text.split(":")
    experiment_id = parts[0].strip().upper()
    if not experiment_id:
        raise ConfigurationError(f"empty experiment id in fault {text!r}")
    fail_attempts = ALWAYS if len(parts) == 1 else 0
    hang_seconds = 0.0
    kill_attempts = 0
    stop_after = 0
    for clause in parts[1:]:
        name, _, value = clause.partition("=")
        try:
            if name == "fail":
                fail_attempts = ALWAYS if value == "" else int(value)
            elif name == "hang":
                hang_seconds = float(value)
            elif name == "kill":
                kill_attempts = ALWAYS if value == "" else int(value)
            elif name == "stop":
                stop_after = int(value)
            else:
                raise ConfigurationError(
                    f"unknown fault clause {name!r} in {text!r} (expected "
                    f"fail=K, hang=SECONDS, kill=K or stop=N)"
                )
        except ValueError:
            raise ConfigurationError(
                f"bad value {value!r} for fault clause {name!r} in {text!r}"
            ) from None
    return FaultSpec(
        experiment_id=experiment_id,
        fail_attempts=fail_attempts,
        hang_seconds=hang_seconds,
        kill_attempts=kill_attempts,
        stop_after=stop_after,
    )


def corrupt_file(path: str | Path, mode: str = "truncate") -> None:
    """Deterministically corrupt an on-disk artifact for quarantine tests.

    ``truncate`` keeps the first half of the bytes (simulating a crash
    mid-write under a non-atomic writer); ``garbage`` replaces the content
    with bytes that are not JSON at all; ``flip`` rewrites the last 16
    bytes (parseable-but-digest-mismatched corruption when it lands inside
    a JSON string, otherwise unparseable — both paths quarantine).
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
    elif mode == "garbage":
        path.write_bytes(b"not json {{{ \x00\xff")
    elif mode == "flip":
        keep = data[:-16] if len(data) > 16 else b""
        path.write_bytes(keep + b"X" * min(16, len(data)))
    else:
        raise ConfigurationError(
            f"unknown corruption mode {mode!r} "
            f"(expected truncate, garbage or flip)"
        )


def tear_file(path: str | Path, n_bytes: int = 16) -> None:
    """Truncate the last ``n_bytes`` of a file (a torn journal tail).

    Simulates the parent dying mid-append: the write-ahead journal's
    replay must discard the damaged final record and recover everything
    before it.
    """
    if n_bytes < 1:
        raise ConfigurationError(f"n_bytes must be >= 1, got {n_bytes}")
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[: max(0, len(data) - n_bytes)])
