"""Keyed artifact store: compute shared benchmark artifacts exactly once.

The reproduction's expensive artifacts — the reference workload, the scored
campaign, the properties matrix, whole experiment results — are pure
functions of a small parameter tuple (seed, sizes, registry).  The store
memoizes them under explicit keys so every downstream experiment reuses one
computation, records every request as a hit/miss event for the run
manifest, and optionally persists the artifacts that are dearer to
recompute than to load — scored campaigns and shard cells, the kinds
requested with an :class:`ArtifactCodec` — to disk through
:mod:`repro.persist`'s schema-tagged JSON, so a warm re-run skips tool
execution entirely.  Workloads stay memory-only: regenerating one from its
seed is several times cheaper than loading it back.

Thread safety: a per-key lock serializes computation of the same artifact,
so two experiments racing for the campaign under ``--jobs N`` still produce
exactly one computation; distinct keys compute concurrently.

Integrity: disk-tier entries are written atomically (temp file +
``os.replace``) as compact canonical JSON inside a sha256-digest envelope
(:func:`repro.persist.save_cache_entry`).  A cache file that is truncated,
garbage, digest-mismatched, or schema-drifted is *quarantined* — renamed
to ``<name>.corrupt`` — and the artifact is transparently recomputed; the
event is recorded with status ``corrupt`` (feeding the
``engine.cache.corrupt`` counter) so operators can see rot without the run
ever crashing on it.

Observability: the store carries the run's :class:`~repro.obs.Observability`
bundle — every request bumps an ``engine.cache.*`` counter, computes and
disk loads open ``artifact.*`` spans, and compute time feeds the
``engine.artifact.compute_seconds`` histogram.  The manifest's per-run event
log and the metrics registry therefore agree by construction.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs import Observability

__all__ = [
    "CORRUPT_RETENTION_CAP",
    "ArtifactKey",
    "ArtifactCodec",
    "ArtifactEvent",
    "ArtifactStore",
]

#: How many quarantined ``*.corrupt`` files a cache dir retains.  Each
#: quarantine keeps the evidence for a post-mortem, but a store hammered by
#: e.g. a flaky disk would otherwise accumulate them without bound — beyond
#: the cap the oldest (by mtime) are deleted, the prune is counted on
#: ``engine.cache.corrupt_pruned``, and the survivor count is published as
#: the ``engine.cache.corrupt_files`` gauge (also shown by
#: ``repro stats --cache-dir``).
CORRUPT_RETENTION_CAP = 16


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one artifact: kind, name, and normalized parameters."""

    kind: str
    """Artifact family (``workload``, ``campaign``, ``experiment``...)."""
    name: str
    """Instance within the family (``reference``, ``R3``...)."""
    params: tuple[tuple[str, Any], ...] = ()
    """Sorted ``(param, canonical value)`` pairs."""

    @property
    def token(self) -> str:
        """Stable human-readable form, used in manifests and filenames."""
        rendered = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.kind}:{self.name}[{rendered}]"

    @property
    def filename(self) -> str:
        """Collision-safe on-disk name for the disk cache tier."""
        digest = hashlib.sha256(self.token.encode("utf-8")).hexdigest()[:16]
        return f"{self.kind}-{self.name}-{digest}.json"


@dataclass(frozen=True)
class ArtifactCodec:
    """JSON round-trip for one artifact kind (enables the disk tier)."""

    to_dict: Callable[[Any], dict[str, Any]]
    from_dict: Callable[[dict[str, Any]], Any]


@dataclass(frozen=True)
class ArtifactEvent:
    """One store request, for manifest accounting."""

    key: str
    """The artifact's :attr:`ArtifactKey.token`."""
    status: str
    """``hit`` | ``disk-hit`` | ``miss`` | ``uncached`` | ``corrupt``."""
    requester: str
    """Experiment id (or ``engine``) that asked for the artifact."""
    seconds: float = 0.0
    """Compute time for misses; ~0 for hits."""


class ArtifactStore:
    """In-memory artifact cache with an optional on-disk JSON tier."""

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.obs = obs if obs is not None else Observability()
        self._values: dict[ArtifactKey, Any] = {}
        self._events: list[ArtifactEvent] = []
        self._key_locks: dict[ArtifactKey, threading.Lock] = {}
        self._master = threading.Lock()

    # -- bookkeeping --------------------------------------------------------
    def _lock_for(self, key: ArtifactKey) -> threading.Lock:
        with self._master:
            return self._key_locks.setdefault(key, threading.Lock())

    def _record(
        self, key: ArtifactKey, status: str, requester: str | None, seconds: float = 0.0
    ) -> None:
        event = ArtifactEvent(
            key=key.token,
            status=status,
            requester=requester or "engine",
            seconds=seconds,
        )
        with self._master:
            self._events.append(event)
        self.obs.metrics.inc(f"engine.cache.{status.replace('-', '_')}")

    @property
    def events(self) -> list[ArtifactEvent]:
        """Every request recorded so far (insertion order)."""
        with self._master:
            return list(self._events)

    def events_for(self, requester: str) -> list[ArtifactEvent]:
        """Requests attributed to one experiment."""
        return [e for e in self.events if e.requester == requester]

    def counts(self, key_prefix: str = "") -> dict[str, int]:
        """Event totals by status, optionally filtered by key prefix."""
        totals = {"hit": 0, "disk-hit": 0, "miss": 0, "uncached": 0, "corrupt": 0}
        for event in self.events:
            if event.key.startswith(key_prefix):
                totals[event.status] = totals.get(event.status, 0) + 1
        return totals

    def __len__(self) -> int:
        with self._master:
            return len(self._values)

    def __contains__(self, key: ArtifactKey) -> bool:
        with self._master:
            return key in self._values

    # -- the cache ----------------------------------------------------------
    def record_uncached(self, key: ArtifactKey, requester: str | None) -> None:
        """Note a request that bypassed the cache (unkeyable parameters)."""
        self._record(key, "uncached", requester)

    def put(self, key: ArtifactKey, value: Any) -> None:
        """Seed the in-memory tier with an externally computed value.

        No cache event is recorded: the computation happened elsewhere
        (a worker process, a prior run) and is already attributed there.
        A later :meth:`get_or_compute` for ``key`` finds the value without
        recomputing.
        """
        with self._master:
            self._values[key] = value

    def get_or_compute(
        self,
        key: ArtifactKey,
        compute: Callable[[], Any],
        codec: ArtifactCodec | None = None,
        requester: str | None = None,
    ) -> Any:
        """The artifact for ``key``, computing (and caching) it on first use.

        Lookup order: memory, then disk (when a ``codec`` and ``cache_dir``
        are available), then ``compute()``.  Disk payloads go through the
        codec's ``from_dict``, which validates the persisted schema tag and
        fails loudly on drift rather than misparsing.
        """
        lock = self._lock_for(key)
        with lock:
            with self._master:
                if key in self._values:
                    value = self._values[key]
                    hit = True
                else:
                    hit = False
            if hit:
                self._record(key, "hit", requester)
                return value

            path = None
            if codec is not None and self.cache_dir is not None:
                path = self.cache_dir / key.filename
                if path.exists():
                    from repro.errors import (
                        ArtifactCorruptError,
                        ConfigurationError,
                        PersistError,
                    )
                    from repro.persist import load_cache_entry

                    started = time.perf_counter()
                    try:
                        with self.obs.tracer.span(
                            "artifact.disk_load", key=key.token
                        ):
                            value = codec.from_dict(load_cache_entry(path))
                    except (
                        PersistError,
                        ArtifactCorruptError,
                        ConfigurationError,
                    ) as error:
                        # Truncated, garbage, digest-mismatched or
                        # schema-drifted entries must not kill a warm run:
                        # quarantine the file and fall through to compute.
                        quarantine = path.with_name(path.name + ".corrupt")
                        os.replace(path, quarantine)
                        self._record(key, "corrupt", requester)
                        with self.obs.tracer.span(
                            "artifact.quarantine",
                            key=key.token,
                            reason=type(error).__name__,
                        ):
                            pass
                        self._prune_corrupt()
                    else:
                        elapsed = time.perf_counter() - started
                        with self._master:
                            self._values[key] = value
                        self._record(key, "disk-hit", requester, elapsed)
                        self.obs.metrics.inc("engine.artifacts.loaded")
                        return value

            started = time.perf_counter()
            with self.obs.tracer.span(
                "artifact.compute", key=key.token, kind=key.kind
            ):
                value = compute()
            elapsed = time.perf_counter() - started
            with self._master:
                self._values[key] = value
            self._record(key, "miss", requester, elapsed)
            self.obs.metrics.observe("engine.artifact.compute_seconds", elapsed)
            if path is not None:
                from repro.persist import save_cache_entry

                with self.obs.tracer.span("artifact.persist", key=key.token):
                    save_cache_entry(codec.to_dict(value), path)
                self.obs.metrics.inc("engine.artifacts.persisted")
            return value

    def _prune_corrupt(self) -> None:
        """Age out quarantined files beyond :data:`CORRUPT_RETENTION_CAP`.

        Runs after every quarantine, so the cache dir holds at most the cap
        of ``*.corrupt`` post-mortem files — newest kept, oldest (by mtime)
        deleted.  The surviving count lands on the
        ``engine.cache.corrupt_files`` gauge either way.
        """
        if self.cache_dir is None:
            return
        corrupt = []
        for entry in Path(self.cache_dir).glob("*.corrupt"):
            try:
                corrupt.append((entry.stat().st_mtime, entry))
            except OSError:
                continue  # raced with another pruner; already gone
        corrupt.sort(key=lambda pair: pair[0])
        excess = max(0, len(corrupt) - CORRUPT_RETENTION_CAP)
        pruned = 0
        for _, entry in corrupt[:excess]:
            try:
                entry.unlink()
            except OSError:
                continue
            pruned += 1
        if pruned:
            self.obs.metrics.inc("engine.cache.corrupt_pruned", pruned)
        self.obs.metrics.set_gauge(
            "engine.cache.corrupt_files", float(len(corrupt) - pruned)
        )
