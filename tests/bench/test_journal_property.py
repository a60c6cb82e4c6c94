"""Generated journals: damage can only cost carried shards, never cells.

The journal (``wal_path``) is a sharded run's only resume input, so its
contract is checked on generated cases rather than hand-picked ones:
journal any multiset of a clean run's shards, damage the file strictly
after its header (no damage, a truncation, or one flipped bit), and
continue it.  However the damage falls, the continued run's per-shard
cells equal the clean run's, it carries only shards that were journaled,
and its journal then replays untorn with every shard present — each
missing one appended exactly once.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engine.shards import run_sharded_campaign
from repro.bench.engine.wal import JournalHeader, ShardJournal, replay_journal

SEED = 2015


@functools.lru_cache(maxsize=None)
def clean_run(scale: int, shard_size: int) -> tuple[JournalHeader, dict]:
    """The journal header and per-shard cells of an uninterrupted run."""
    with tempfile.TemporaryDirectory() as tmp:
        wal = Path(tmp) / "clean.wal"
        run = run_sharded_campaign(
            scale=scale, shard_size=shard_size, seed=SEED, wal_path=str(wal)
        )
        header = replay_journal(wal).header
    assert run.ok
    return header, {r.index: r.cells.to_array() for r in run.manifest.records}


@st.composite
def damaged_journals(draw):
    scale = draw(st.integers(1, 500))
    shard_size = draw(st.integers(40, 200))
    n_shards = -(-scale // shard_size)
    journaled = draw(
        st.lists(st.integers(0, n_shards - 1), max_size=2 * n_shards)
    )
    damage = draw(st.sampled_from(["none", "truncate", "flip"]))
    # Where the damage lands, as a fraction of the bytes past the header.
    at = draw(st.floats(0.0, 1.0, exclude_max=True))
    bit = draw(st.integers(0, 7))
    explicit_plan = draw(st.booleans())
    return scale, shard_size, journaled, damage, at, bit, explicit_plan


class TestDamagedJournalProperty:
    @settings(max_examples=30, deadline=None)
    @given(case=damaged_journals())
    def test_damage_only_costs_carried_shards(self, case):
        scale, shard_size, journaled, damage, at, bit, explicit_plan = case
        header, reference = clean_run(scale, shard_size)
        with tempfile.TemporaryDirectory() as tmp:
            wal = Path(tmp) / "run.wal"
            journal = ShardJournal.create(wal, header)
            header_end = wal.stat().st_size
            for index in journaled:
                journal.append_cells(reference[index])
            journal.close()
            data = bytearray(wal.read_bytes())
            if damage != "none" and len(data) > header_end:
                offset = header_end + int(at * (len(data) - header_end))
                if damage == "truncate":
                    del data[offset:]
                else:
                    data[offset] ^= 1 << bit
                wal.write_bytes(bytes(data))
            damaged = replay_journal(wal)

            plan = (
                {"scale": scale, "shard_size": shard_size, "seed": SEED}
                if explicit_plan
                else {}
            )
            run = run_sharded_campaign(wal_path=str(wal), **plan)
            final = replay_journal(wal)

        assert run.ok
        cells = {r.index: r.cells.to_array() for r in run.manifest.records}
        assert sorted(cells) == sorted(reference)
        for index, expected in reference.items():
            np.testing.assert_array_equal(cells[index], expected)
        carried = run.manifest.extra["resume"]["carried"]
        assert carried == sorted(damaged.shard_indices)
        assert set(carried) <= set(journaled)
        assert not final.torn
        assert sorted(final.shard_indices) == sorted(reference)
        assert final.duplicates == damaged.duplicates
