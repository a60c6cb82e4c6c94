"""Unit tests for the write-ahead shard journal (``repro/shard-wal@1``).

The crash-safety claim rests on this file format: every fold is an fsync'd
append, and replay of any prefix — including a torn one — must recover
exactly the folded shards.  These tests exercise the format directly, and
:func:`open_journal`'s create-or-continue decision on every kind of file
it can find; ``tests/bench/test_crash_safety.py`` covers the runner
integration.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.bench.engine.faults import tear_file
from repro.bench.engine.wal import (
    JournalHeader,
    ShardJournal,
    is_journal,
    open_journal,
    replay_journal,
)
from repro.errors import ConfigurationError, PersistError
from repro.persist import WAL_MAGIC


def make_header(**overrides) -> JournalHeader:
    params = dict(
        seed=2015,
        scale=400,
        shard_size=100,
        ecosystem="web-services",
        tool_names=("ToolA", "ToolB"),
        tool_families=("static",),
    )
    params.update(overrides)
    return JournalHeader(**params)


def cells_vector(index: int, n_tools: int = 2) -> np.ndarray:
    head = [index, 100, 40, 25]
    body = list(range(index * 10, index * 10 + 1 + 4 * n_tools))[1:]
    return np.array(head + body[: 1 + 4 * n_tools], dtype=np.int64)


class TestJournalRoundTrip:
    def test_create_replay_round_trip(self, tmp_path):
        path = tmp_path / "run.wal"
        journal = ShardJournal.create(path, make_header())
        vectors = [cells_vector(i) for i in range(3)]
        for vector in vectors:
            journal.append_cells(vector)
        journal.close()

        replay = replay_journal(path)
        assert replay.header == make_header()
        assert not replay.torn
        assert replay.duplicates == 0
        assert replay.shard_indices == [0, 1, 2]
        for got, expected in zip(replay.arrays, vectors):
            np.testing.assert_array_equal(got, expected)

    def test_header_survives_optional_families(self, tmp_path):
        path = tmp_path / "run.wal"
        ShardJournal.create(path, make_header(tool_families=None)).close()
        assert replay_journal(path).header.tool_families is None

    def test_duplicate_shard_keeps_first_record(self, tmp_path):
        path = tmp_path / "run.wal"
        journal = ShardJournal.create(path, make_header())
        first = cells_vector(1)
        journal.append_cells(first)
        second = cells_vector(1)
        second[1] = 999  # a conflicting re-run record for the same shard
        journal.append_cells(second)
        journal.close()

        replay = replay_journal(path)
        assert replay.duplicates == 1
        assert replay.shard_indices == [1]
        np.testing.assert_array_equal(replay.arrays[0], first)

    def test_create_truncates_previous_journal(self, tmp_path):
        path = tmp_path / "run.wal"
        old = ShardJournal.create(path, make_header())
        old.append_cells(cells_vector(0))
        old.close()
        ShardJournal.create(path, make_header()).close()
        assert replay_journal(path).arrays == ()


class TestTornTail:
    def test_torn_tail_discards_only_last_record(self, tmp_path):
        path = tmp_path / "run.wal"
        journal = ShardJournal.create(path, make_header())
        for index in range(3):
            journal.append_cells(cells_vector(index))
        journal.close()
        tear_file(path, n_bytes=16)

        replay = replay_journal(path)
        assert replay.torn
        assert replay.shard_indices == [0, 1]

    def test_crc_corruption_stops_replay(self, tmp_path):
        path = tmp_path / "run.wal"
        journal = ShardJournal.create(path, make_header())
        journal.append_cells(cells_vector(0))
        journal.append_cells(cells_vector(1))
        journal.close()
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # flip a byte inside the final record's payload
        path.write_bytes(bytes(data))

        replay = replay_journal(path)
        assert replay.torn
        assert replay.shard_indices == [0]

    def test_unknown_record_type_reads_as_tail_damage(self, tmp_path):
        path = tmp_path / "run.wal"
        journal = ShardJournal.create(path, make_header())
        journal.append_cells(cells_vector(0))
        journal.close()
        payload = b"??"
        frame = struct.Struct("<IIB").pack(
            len(payload), zlib.crc32(bytes([9]) + payload), 9
        )
        with open(path, "ab") as handle:
            handle.write(frame + payload)

        replay = replay_journal(path)
        assert replay.torn
        assert replay.shard_indices == [0]

    def test_resume_truncates_torn_tail_then_appends(self, tmp_path):
        path = tmp_path / "run.wal"
        journal = ShardJournal.create(path, make_header())
        for index in range(3):
            journal.append_cells(cells_vector(index))
        journal.close()
        tear_file(path, n_bytes=8)

        replay = replay_journal(path)
        resumed = ShardJournal.resume(path, replay)
        assert replay.shard_indices == [0, 1]
        resumed.append_cells(cells_vector(2))
        resumed.close()

        final = replay_journal(path)
        assert not final.torn
        assert final.shard_indices == [0, 1, 2]

    def test_resume_without_intact_header_fails(self, tmp_path):
        path = tmp_path / "run.wal"
        ShardJournal.create(path, make_header()).close()
        path.write_bytes(path.read_bytes()[: len(WAL_MAGIC) + 4])
        with pytest.raises(PersistError, match="no intact header") as excinfo:
            open_journal(path)
        assert "\n" not in str(excinfo.value)


class TestSniffing:
    def test_is_journal_reads_the_magic(self, tmp_path):
        wal_path = tmp_path / "run.wal"
        ShardJournal.create(wal_path, make_header()).close()
        manifest_path = tmp_path / "run.json"
        manifest_path.write_text(json.dumps({"schema": "repro/shard-run@2"}))

        assert is_journal(wal_path)
        assert not is_journal(manifest_path)
        assert not is_journal(tmp_path / "missing.wal")

    def test_not_a_journal_raises_persist_error(self, tmp_path):
        path = tmp_path / "not-a-journal"
        path.write_text("{}")
        with pytest.raises(PersistError, match="bad magic"):
            replay_journal(path)

    def test_header_schema_drift_fails_loudly(self):
        payload = make_header().to_dict()
        payload["schema"] = "repro/shard-wal@99"
        with pytest.raises(ConfigurationError, match="journal schema"):
            JournalHeader.from_dict(payload)


def journal_bytes(tmp_path, *indices: int) -> bytes:
    """The bytes of a journal of ``make_header()`` holding ``indices``."""
    path = tmp_path / "source.wal"
    journal = ShardJournal.create(path, make_header())
    for index in indices:
        journal.append_cells(cells_vector(index))
    journal.close()
    return path.read_bytes()


class TestOpenJournal:
    """:func:`open_journal` creates, continues or refuses, by what it finds."""

    @pytest.mark.parametrize(
        "content",
        [None, b"", WAL_MAGIC[:3], "magic only", "torn header"],
        ids=["absent", "empty", "torn-magic", "magic-only", "torn-header"],
    )
    def test_nothing_to_continue_is_created(self, tmp_path, content):
        path = tmp_path / "run.wal"
        header_end = len(journal_bytes(tmp_path))
        if content == "magic only":
            content = WAL_MAGIC
        elif content == "torn header":
            content = journal_bytes(tmp_path)[: header_end - 3]
        if content is not None:
            path.write_bytes(content)

        journal, replay = open_journal(path, make_header())
        journal.append_cells(cells_vector(0))
        journal.close()
        assert replay is None
        final = replay_journal(path)
        assert final.header == make_header()
        assert final.shard_indices == [0]
        assert not final.torn

    @pytest.mark.parametrize("plan", ["recorded", "matching"])
    def test_intact_journal_is_continued(self, tmp_path, plan):
        path = tmp_path / "run.wal"
        path.write_bytes(journal_bytes(tmp_path, 0, 1, 2)[:-8])  # torn tail
        journal, replay = open_journal(
            path, make_header() if plan == "matching" else None
        )
        assert replay.header == make_header()
        assert replay.shard_indices == [0, 1]
        journal.append_cells(cells_vector(2))
        journal.close()
        final = replay_journal(path)
        assert final.shard_indices == [0, 1, 2]
        assert not final.torn

    def test_unset_families_resolve_to_the_ecosystems_own(self, tmp_path):
        from repro.workload.ecosystems import get_ecosystem

        path = tmp_path / "run.wal"
        ShardJournal.create(path, make_header(tool_families=None)).close()
        own = get_ecosystem("web-services").tool_families
        journal, replay = open_journal(path, make_header(tool_families=own))
        journal.close()
        assert replay is not None

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("scale", 500),
            ("shard_size", 50),
            ("seed", 6),
            ("ecosystem", "npm-deps"),
            ("tool_families", ("sa",)),
        ],
    )
    def test_another_plan_is_refused_byte_identical(
        self, tmp_path, field, value
    ):
        path = tmp_path / "run.wal"
        path.write_bytes(journal_bytes(tmp_path, 0, 1)[:-5])  # torn tail
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match=f"records {field}="):
            open_journal(path, make_header(**{field: value}))
        assert path.read_bytes() == before

    @pytest.mark.parametrize(
        "content", [b'{"schema": "repro/shard-run@2"}', b"RWAL2\n", b"{}"]
    )
    def test_any_other_file_is_refused_untouched(self, tmp_path, content):
        path = tmp_path / "notes.json"
        path.write_bytes(content)
        for header in (make_header(), None):
            with pytest.raises(PersistError, match="not a shard journal"):
                open_journal(path, header)
        assert path.read_bytes() == content
