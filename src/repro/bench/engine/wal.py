"""Write-ahead checkpoint journal for sharded campaigns.

A million-unit campaign folds shards for minutes, and its JSON manifest
only exists once the run *ends*, so a parent crash (OOM kill, ``kill
-9``, power loss) would lose every folded shard.  The journal closes that
window: the runner appends one fsync'd record per folded shard as it
folds, so the crash loses at most the shard that was mid-append — and the
shard seeds are pure functions of their indices, so replay + re-run is
bit-identical to an uninterrupted run (architecture invariant 8).  It is
the sharded rail's only resume input.

Format (``repro/shard-wal@1``) — append-only binary, designed so a torn
tail (the one failure mode an fsync'd appender has) is detected and
discarded rather than misparsed:

- 6-byte magic ``RWAL1\\n`` (how ``--resume`` tells a journal from a
  JSON manifest, and :func:`open_journal` a journal from any other file);
- records of ``<u32 payload length> <u32 crc32> <u8 type> <payload>``
  (little-endian), where the crc covers the type byte plus the payload;
- record type 1 — a JSON **header** carrying the campaign identity
  (seed, scale, shard size, ecosystem, tool families, tool names),
  written once at create time;
- record type 2 — one folded shard's **cells** as the little-endian
  int64 flat vector of :meth:`ShardCells.to_array
  <repro.bench.streaming.ShardCells.to_array>`.

Replay (:func:`replay_journal`) walks records until the first short,
crc-mismatched, or unknown record and treats everything from there as the
torn tail; duplicate shard indices keep the first record (a crash between
fold and append can make the *re-run* shard's record a duplicate, and
first-wins keeps replay idempotent).

:func:`open_journal` is the runner's one entry point: a path that holds
no journal (missing, empty, or torn before its header finished) gets a
fresh one, and a path that holds one is continued under the plan its
header records — replayed once, truncated back to the valid prefix, and
appended to, so one journal survives any number of crash/resume cycles.
Any other file is refused untouched, as is a journal of another plan.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.errors import ConfigurationError, PersistError
from repro.persist import WAL_MAGIC, WAL_SCHEMA
from repro.workload.ecosystems import get_ecosystem

__all__ = [
    "WAL_MAGIC",
    "WAL_SCHEMA",
    "JournalHeader",
    "JournalReplay",
    "ShardJournal",
    "is_journal",
    "open_journal",
    "replay_journal",
]

#: One record's frame: payload length, crc32(type byte + payload), type.
_RECORD = struct.Struct("<IIB")

_HEADER_RECORD = 1
_CELLS_RECORD = 2

#: The fields of :attr:`JournalHeader.plan`, for naming a mismatch.
_PLAN_FIELDS = ("scale", "shard_size", "seed", "ecosystem", "tool_families")


@dataclass(frozen=True)
class JournalHeader:
    """The campaign identity a journal's first record pins down.

    Enough to rebuild the shard plan and tool suite without the original
    command line, and to decode every cells record (``tool_names`` fixes
    the flat-vector framing).
    """

    seed: int
    scale: int
    shard_size: int
    ecosystem: str
    tool_names: tuple[str, ...]
    tool_families: tuple[str, ...] | None = None

    @property
    def plan(self) -> tuple:
        """``(scale, shard_size, seed, ecosystem, tool_families)``, with
        unset families resolved to the ecosystem's own list."""
        families = self.tool_families
        if families is None:
            families = get_ecosystem(self.ecosystem).tool_families
        return (
            self.scale, self.shard_size, self.seed, self.ecosystem,
            tuple(families),
        )

    def to_dict(self) -> dict[str, Any]:
        """Serialize for the journal's header record."""
        payload: dict[str, Any] = {
            "schema": WAL_SCHEMA,
            "seed": self.seed,
            "scale": self.scale,
            "shard_size": self.shard_size,
            "ecosystem": self.ecosystem,
            "tool_names": list(self.tool_names),
        }
        if self.tool_families is not None:
            payload["tool_families"] = list(self.tool_families)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JournalHeader":
        """Rebuild a header, failing loudly on schema drift."""
        found = payload.get("schema")
        if found != WAL_SCHEMA:
            raise ConfigurationError(
                f"expected journal schema {WAL_SCHEMA!r}, found {found!r}"
            )
        return cls(
            seed=payload["seed"],
            scale=payload["scale"],
            shard_size=payload["shard_size"],
            ecosystem=payload["ecosystem"],
            tool_names=tuple(payload["tool_names"]),
            tool_families=(
                tuple(payload["tool_families"])
                if payload.get("tool_families") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class JournalReplay:
    """What a journal held: header, deduped cells vectors, tail health."""

    header: JournalHeader | None
    """``None`` when the tail tore before the header finished."""
    arrays: tuple[np.ndarray, ...]
    """One int64 flat vector per folded shard, first record winning on
    duplicate shard indices (replay is idempotent across crash cycles)."""
    valid_bytes: int
    """File offset of the last whole record; resume truncates to here."""
    torn: bool
    """Whether bytes past ``valid_bytes`` were discarded as a torn tail."""
    duplicates: int
    """Duplicate shard records dropped (kept-first)."""

    @property
    def shard_indices(self) -> list[int]:
        """The folded shard indices, in journal order."""
        return [int(array[0]) for array in self.arrays]


def is_journal(path: str | Path) -> bool:
    """Whether ``path`` starts with the shard-journal magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(WAL_MAGIC)) == WAL_MAGIC
    except OSError:
        return False


def _frame(rtype: int, payload: bytes) -> bytes:
    crc = zlib.crc32(bytes([rtype]) + payload)
    return _RECORD.pack(len(payload), crc, rtype) + payload


def replay_journal(path: str | Path) -> JournalReplay:
    """Read every intact record of a journal, tolerating a torn tail.

    Raises :class:`~repro.errors.PersistError` only when the file is not a
    journal at all (missing/bad magic); damage *past* the magic is the
    torn-tail case the format exists to survive, reported via
    :attr:`JournalReplay.torn` instead of an exception.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise PersistError(
            f"cannot read journal {path}: {error}", path=str(path)
        ) from error
    if not data.startswith(WAL_MAGIC):
        raise PersistError(
            f"{path} is not a shard journal (bad magic)", path=str(path)
        )
    offset = len(WAL_MAGIC)
    header: JournalHeader | None = None
    arrays: list[np.ndarray] = []
    seen: set[int] = set()
    duplicates = 0
    torn = False
    while offset < len(data):
        if len(data) - offset < _RECORD.size:
            torn = True
            break
        length, crc, rtype = _RECORD.unpack_from(data, offset)
        start = offset + _RECORD.size
        end = start + length
        if end > len(data):
            torn = True
            break
        payload = data[start:end]
        if zlib.crc32(bytes([rtype]) + payload) != crc:
            torn = True
            break
        if rtype == _HEADER_RECORD:
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                torn = True
                break
            if header is None:  # first header wins, like cells records
                header = JournalHeader.from_dict(decoded)
        elif rtype == _CELLS_RECORD:
            if length == 0 or length % 8:
                torn = True
                break
            array = np.frombuffer(payload, dtype="<i8").astype(np.int64)
            index = int(array[0])
            if index in seen:
                duplicates += 1
            else:
                seen.add(index)
                arrays.append(array)
        else:
            # An unknown record type cannot be skipped safely (we cannot
            # trust its framing came from us) — treat it as tail damage.
            torn = True
            break
        offset = end
    return JournalReplay(
        header=header,
        arrays=tuple(arrays),
        valid_bytes=offset,
        torn=torn,
        duplicates=duplicates,
    )


class ShardJournal:
    """The append side of the write-ahead journal.

    Every :meth:`append_cells` is flushed and ``fsync``'d before it
    returns: once the runner moves on from a fold, that shard survives any
    parent crash.  The journal never rewrites existing bytes — resume
    truncates a torn tail once, then appends.
    """

    def __init__(self, path: Path, handle: IO[bytes], header: JournalHeader):
        self.path = path
        self._handle = handle
        self.header = header

    @classmethod
    def create(cls, path: str | Path, header: JournalHeader) -> "ShardJournal":
        """Start a fresh journal at ``path`` (truncating any old file)."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "wb")
        handle.write(WAL_MAGIC)
        payload = json.dumps(header.to_dict(), sort_keys=True).encode("utf-8")
        handle.write(_frame(_HEADER_RECORD, payload))
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, handle, header)

    @classmethod
    def resume(cls, path: str | Path, replay: JournalReplay) -> "ShardJournal":
        """Reopen a journal for appending, discarding any torn tail.

        ``replay`` is the journal's replay (:func:`replay_journal`), so the
        file is read once; the caller folds its cells and re-runs only the
        missing shards.
        """
        handle = open(path, "r+b")
        handle.truncate(replay.valid_bytes)
        handle.seek(replay.valid_bytes)
        return cls(Path(path), handle, replay.header)

    def append_cells(self, flat: np.ndarray) -> None:
        """Durably append one folded shard's flat int64 cells vector."""
        payload = np.ascontiguousarray(flat, dtype="<i8").tobytes()
        self._handle.write(_frame(_CELLS_RECORD, payload))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the file handle (appends are already durable)."""
        if not self._handle.closed:
            self._handle.close()


def open_journal(
    path: str | Path, header: JournalHeader | None = None
) -> tuple[ShardJournal, JournalReplay | None]:
    """Create or continue the shard journal at ``path``.

    ``header`` is the campaign the caller plans to run, or ``None`` to
    continue whatever campaign the journal records.  Returns the journal,
    open for appending, and the replay of what it already held (``None``
    when it was created).

    - Nothing to continue — no file, an empty one, or one torn before its
      header record finished — creates a fresh journal; that needs
      ``header`` (:class:`~repro.errors.PersistError` without it).
    - An intact journal is continued.  With ``header``, its plan must
      equal the header's (:class:`~repro.errors.ConfigurationError`
      naming the field otherwise, the file left byte-identical).
    - Any other file is refused untouched
      (:class:`~repro.errors.PersistError`).
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(WAL_MAGIC))
    except FileNotFoundError:
        head = b""
    except OSError as error:
        raise PersistError(
            f"cannot read journal {path}: {error}", path=str(path)
        ) from error
    if not WAL_MAGIC.startswith(head):
        raise PersistError(
            f"{path} is not a shard journal; refusing to overwrite it",
            path=str(path),
        )
    replay = replay_journal(path) if head == WAL_MAGIC else None
    if replay is None or replay.header is None:
        if header is None:
            raise PersistError(
                f"journal {path} has no intact header record — it cannot "
                "identify its campaign; start over without --resume",
                path=str(path),
            )
        return ShardJournal.create(path, header), None
    if header is not None and replay.header.plan != header.plan:
        name, found, wanted = next(
            field
            for field in zip(_PLAN_FIELDS, replay.header.plan, header.plan)
            if field[1] != field[2]
        )
        raise ConfigurationError(
            f"journal {path} records {name}={found!r}, not {wanted!r}; "
            "continue it under its own plan or journal this campaign "
            "elsewhere"
        )
    return ShardJournal.resume(path, replay), replay
