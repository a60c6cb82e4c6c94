"""Crash-supervision primitives: graceful shutdown and worker heartbeats.

Two small pieces the sharded runner composes into crash safety:

- :class:`ShutdownSignal` / :func:`graceful_shutdown` — a cooperative
  stop request.  The CLI installs SIGTERM/SIGINT handlers that *request*
  shutdown; the runner checks the flag between scheduling decisions,
  stops submitting, drains in-flight shards, flushes the journal, and
  writes a partial manifest.  A second signal abandons cooperation and
  raises :class:`KeyboardInterrupt` (the journal is already durable, so
  even the hard path loses nothing that was folded).
- :class:`HeartbeatBoard` — a per-slot array of worker heartbeats
  (``time.monotonic_ns()``, comparable across processes on the same
  host) in a shared-memory segment the process workers attach.  Workers
  beat at shard phase boundaries; the parent's watchdog times a shard
  out only when its *heartbeat* goes silent past ``--timeout``, which
  distinguishes a hung worker (no beats) from a slow-but-alive one
  (beats keep arriving) — the distinction the Android-tools study
  showed real campaigns need.

The parent owns slot allocation (acquire on submit, release on
completion), workers only ever write their assigned slot, and an
abandoned (hung) worker's slot is deliberately *leaked* for the
campaign's lifetime so a late write cannot corrupt a reused slot.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ShutdownSignal",
    "graceful_shutdown",
    "HeartbeatBoard",
]


class ShutdownSignal:
    """A cooperative stop request threaded through campaign loops.

    Thread-safe and monotonic: once requested it stays requested, and the
    first request's reason wins (it names the signal that started the
    drain, not any follow-ups).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.reason: str | None = None

    @property
    def requested(self) -> bool:
        """Whether a drain has been requested."""
        return self._event.is_set()

    def request(self, reason: str = "shutdown") -> None:
        """Request a graceful drain (idempotent; first reason wins)."""
        with self._lock:
            if self.reason is None:
                self.reason = reason
        self._event.set()


@contextmanager
def graceful_shutdown(
    signums: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[ShutdownSignal]:
    """Install drain-on-signal handlers for the duration of a campaign.

    The first signal requests a graceful drain through the yielded
    :class:`ShutdownSignal`; a repeat signal raises
    :class:`KeyboardInterrupt` to force the issue.  Handlers are only
    installable from the main thread — elsewhere the yielded signal is
    simply never armed (still usable programmatically).  Previous
    handlers are restored on exit.
    """
    shutdown = ShutdownSignal()
    if threading.current_thread() is not threading.main_thread():
        yield shutdown
        return

    def handler(signum: int, frame: object) -> None:
        if shutdown.requested:
            raise KeyboardInterrupt(
                f"second {signal.Signals(signum).name} — abandoning drain"
            )
        shutdown.request(signal.Signals(signum).name)

    previous = {signum: signal.signal(signum, handler) for signum in signums}
    try:
        yield shutdown
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


class HeartbeatBoard:
    """A shared-memory board of per-slot worker heartbeats (int64
    monotonic-ns stamps).

    The parent ``create``s it and workers ``attach`` by segment name.
    ``0`` means "never beaten" — the parent then anchors the hung check
    on submission time instead.
    """

    def __init__(self, array: np.ndarray, shm, owner: bool = False):
        self._array = array
        self._shm = shm
        self._owner = owner
        self.n_slots = int(array.shape[0])
        self._free: list[int] = list(range(self.n_slots)) if owner else []

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    @classmethod
    def create(cls, n_slots: int) -> "HeartbeatBoard":
        """Create (parent side) a shared-memory board of ``n_slots``."""
        from repro.bench.engine.transport import create_segment

        if n_slots < 1:
            raise ConfigurationError(
                f"heartbeat board needs >= 1 slot, got {n_slots}"
            )
        shm = create_segment(n_slots * 8)
        array = np.ndarray((n_slots,), dtype=np.int64, buffer=shm.buf)
        array[:] = 0
        return cls(array, shm=shm, owner=True)

    @classmethod
    def attach(cls, name: str, n_slots: int) -> "HeartbeatBoard":
        """Attach (worker side) to a board the parent created.

        Python 3.11's ``resource_tracker`` registers segments on attach as
        well as create.  Pool workers share the parent's tracker (see
        :func:`~repro.bench.engine.transport.cached_process_pool`), which
        keeps one name *set*, so this registration is an idempotent no-op
        and the parent's :meth:`close` stays the single unlink.
        """
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        array = np.ndarray((n_slots,), dtype=np.int64, buffer=shm.buf)
        return cls(array, shm=shm, owner=False)

    # -- parent-side slot lifecycle -----------------------------------------
    def acquire(self) -> int | None:
        """Claim (and zero) a free slot, or ``None`` when all are leaked."""
        if not self._free:
            return None
        slot = self._free.pop()
        self._array[slot] = 0
        return slot

    def release(self, slot: int) -> None:
        """Return a slot once its task resolved (never for abandoned ones)."""
        self._free.append(slot)

    # -- the beats -----------------------------------------------------------
    def beat(self, slot: int) -> None:
        """Stamp ``slot`` with now (worker side, at phase boundaries)."""
        self._array[slot] = time.monotonic_ns()

    def beater(self, slot: int) -> Callable[[], None]:
        """A zero-argument beat bound to ``slot`` (for task plumbing)."""
        return lambda: self.beat(slot)

    def last_beat(self, slot: int) -> int:
        """The slot's latest stamp in monotonic ns (0 = never beaten)."""
        return int(self._array[slot])

    def close(self) -> None:
        """Detach; the creating side also unlinks the segment."""
        self._array = None
        self._shm.close()
        if self._owner:
            self._shm.unlink()
            self._owner = False
