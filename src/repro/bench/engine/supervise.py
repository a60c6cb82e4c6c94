"""Graceful shutdown: a cooperative stop request for the engine's runs.

The CLI installs SIGTERM/SIGINT handlers (:func:`graceful_shutdown`)
that *request* shutdown through a :class:`ShutdownSignal`; the runner
checks the flag between scheduling decisions, stops submitting, drains
in-flight tasks, flushes the journal, and writes a partial manifest.  A
second signal abandons cooperation and raises :class:`KeyboardInterrupt`
(the journal is already durable, so even the hard path loses nothing
that was folded).
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "ShutdownSignal",
    "graceful_shutdown",
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
