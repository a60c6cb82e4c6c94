"""Process-pool reuse across runs.

Process workers send every result home — shard cells included — inside
the pickled :class:`~repro.bench.engine.runner.WorkerOutcome` their task
returns.  What this module keeps is the state that outlives one task: a
**process-pool cache**.  Pools persist across runs keyed by campaign
identity, so worker warm-up (interpreter fork, artifact-store
construction, tool-suite build) and the per-worker stores, plans and
tool suites it produces amortize over a whole session instead of one
call.  Pools are evicted (and shut down) on LRU overflow, on a
:class:`BrokenExecutor`, when a run leaves a task in flight (which also
terminates their workers), or at interpreter exit.  Workers never
outlive their pool's creator: each one exits as soon as it is
reparented (the creator died, even by SIGKILL), and SIGTERM kills it
even when it forked while the CLI's drain handlers were installed.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "cached_process_pool",
    "evict_process_pool",
    "shutdown_cached_pools",
]

#: How many distinct cached pools stay warm at once.  Each pool holds
#: ``max_workers`` live interpreters, so the cap is deliberately tiny —
#: enough for a campaign plus a follow-up at different parameters.
_POOL_CACHE_SIZE = 2

_pool_lock = threading.Lock()
_pools: dict[tuple[Any, ...], ProcessPoolExecutor] = {}

#: How often a pool worker checks that its creator is still its parent.
_PARENT_POLL_SECONDS = 0.25


def _exit_when_orphaned(creator_pid: int) -> None:
    """Exit the worker once it is no longer the child of ``creator_pid``."""
    while os.getppid() == creator_pid:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _init_pool_worker(creator_pid: int) -> None:
    """Process-pool initializer: workers die with their creator.

    Workers fork from a parent that may have installed the CLI's drain
    handlers (:func:`~repro.bench.engine.supervise.graceful_shutdown`);
    inherited, they would turn SIGTERM into a flag nobody in the worker
    reads.  SIGTERM gets its default action back.  SIGINT is ignored: a
    terminal's Ctrl-C reaches the whole process group, and the parent's
    drain needs the in-flight tasks to finish.  A SIGKILLed creator runs
    no cleanup, and the pipe ends the workers inherited keep the call
    queue open, so a daemon thread watches for reparenting and exits.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned,
        args=(creator_pid,),
        name="repro-orphan-watch",
        daemon=True,
    ).start()


def cached_process_pool(
    key: tuple[Any, ...], max_workers: int
) -> ProcessPoolExecutor:
    """A process pool cached under ``key``, surviving across calls.

    The same key returns the same warm pool (its workers keep their
    per-process stores, plans, and tool suites), provided the worker count
    still fits; a pool cached with fewer workers than requested is
    replaced.  Insertion order doubles as LRU order — re-fetching a key
    moves it to the back, and overflowing :data:`_POOL_CACHE_SIZE` shuts
    down the front.
    """
    # Imported here: it loads multiprocessing, which inline runs never use.
    from concurrent.futures import ProcessPoolExecutor

    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    with _pool_lock:
        pool = _pools.pop(key, None)
        if pool is not None and pool._max_workers < max_workers:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=_init_pool_worker,
                initargs=(os.getpid(),),
            )
        _pools[key] = pool  # (re)insert at LRU back
        while len(_pools) > _POOL_CACHE_SIZE:
            oldest = next(iter(_pools))
            _pools.pop(oldest).shutdown(wait=False, cancel_futures=True)
        return pool


def evict_process_pool(key: tuple[Any, ...]) -> None:
    """Drop the pool cached under ``key``, if any, and end its workers.

    Callers evict on :class:`concurrent.futures.BrokenExecutor` — a broken
    pool poisons every later submission — and on abandoned futures, where
    a worker may still be wedged in a task.  Shutting the pool down does
    not stop a wedged worker, and interpreter exit would join it, so its
    live workers are terminated (:func:`_init_pool_worker` gave SIGTERM
    back its default action).
    """
    with _pool_lock:
        pool = _pools.pop(key, None)
    if pool is None:
        return
    # ProcessPoolExecutor exposes its workers only through this private
    # attribute (Python 3.14 adds terminate_workers()); shutdown clears it.
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        if worker.is_alive():
            worker.terminate()


def shutdown_cached_pools() -> None:
    """Shut down every cached pool (tests and interpreter exit)."""
    with _pool_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_cached_pools)
