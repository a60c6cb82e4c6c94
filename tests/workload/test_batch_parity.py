"""Scalar-vs-batch parity for the columnar workload generator.

The columnar batch path (``repro.workload.columnar``) promises to be
**byte-identical** to the scalar reference generator — same
``derive_seed`` streams, same draw-for-draw RNG consumption, same
statement objects, ground truth and profiles — for every config it
supports.  In the style of ``tests/metrics/test_batch_parity.py``, these
tests sweep every registered ecosystem, a hand-picked set of degenerate
configs (zero-span integer draws, collapsed type mixes, threshold
extremes), and a fixed-seed randomized config sweep, asserting exact
equality.  Shard-level tests cover non-dividing shard sizes and isolated
single-shard regeneration, and pin the historical seed derivations.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.persist import payload_digest, workload_to_dict
from repro.tools.sca_matcher import dependency_mask, is_dependency_unit
from repro.workload.code_model import StatementKind
from repro.workload.columnar import (
    MAX_CHAIN,
    decode_columns,
    generate_workload_batch,
    materialize_workload,
    supports_batch,
)
from repro.workload.ecosystems import ecosystem_names, get_ecosystem
from repro.workload.generator import (
    WorkloadConfig,
    generate_workload,
    generate_workload_scalar,
)
from repro.workload.oracle import vulnerable_sites
from repro.workload.sharded import plan_shards, shard_seed
from repro.workload.taxonomy import VulnerabilityType

ECOSYSTEMS = ecosystem_names()


def assert_workloads_identical(scalar, batch) -> None:
    """Element-by-element equality with readable failure locations."""
    assert scalar.name == batch.name
    assert scalar.config == batch.config
    assert len(scalar.units) == len(batch.units)
    for unit_s, unit_b in zip(scalar.units, batch.units):
        assert unit_s.unit_id == unit_b.unit_id
        assert unit_s.statements == unit_b.statements, unit_s.unit_id
    assert scalar.truth.sites == batch.truth.sites
    assert scalar.truth.vulnerable == batch.truth.vulnerable
    assert scalar.profiles == batch.profiles
    assert payload_digest(workload_to_dict(scalar)) == payload_digest(
        workload_to_dict(batch)
    )


class TestEcosystemParity:
    @pytest.mark.parametrize("name", ECOSYSTEMS)
    def test_batch_matches_scalar(self, name):
        config = get_ecosystem(name).workload_config(
            n_units=300, seed=20150615, name=f"parity-{name}"
        )
        assert supports_batch(config)
        assert_workloads_identical(
            generate_workload_scalar(config), generate_workload_batch(config)
        )

    @pytest.mark.parametrize("name", ECOSYSTEMS)
    def test_dispatch_routes_through_batch(self, name):
        """``generate_workload`` output equals both paths for every
        registered ecosystem — the dispatch is a pure wall-clock change."""
        config = get_ecosystem(name).workload_config(
            n_units=60, seed=7, name=f"dispatch-{name}"
        )
        digest = payload_digest(workload_to_dict(generate_workload(config)))
        assert digest == payload_digest(
            workload_to_dict(generate_workload_scalar(config))
        )

    @pytest.mark.parametrize("name", ECOSYSTEMS)
    def test_batch_agrees_with_real_oracle(self, name):
        """The vectorized labeling pass equals the exact taint oracle."""
        config = get_ecosystem(name).workload_config(
            n_units=40, seed=11, name=f"oracle-{name}"
        )
        workload = generate_workload_batch(config)
        for unit in workload.units:
            oracle = vulnerable_sites(unit)
            for site in unit.sink_sites():
                assert (site in oracle) == (site in workload.truth.vulnerable)


class TestDegenerateConfigs:
    """Configs that collapse one of the decoder's draw kinds."""

    CONFIGS = [
        # Zero-span integer draws consume nothing from the stream.
        WorkloadConfig(n_units=50, sites_per_unit=(2, 2), seed=3, name="deg-sites"),
        WorkloadConfig(n_units=50, chain_length_range=(3, 3), seed=4, name="deg-chain"),
        # Single-type and zero-weight mixes exercise the cdf plateaus.
        WorkloadConfig(
            n_units=50,
            type_mix={VulnerabilityType.XSS: 1.0},
            seed=5,
            name="deg-onetype",
        ),
        WorkloadConfig(
            n_units=50,
            type_mix={
                VulnerabilityType.SQL_INJECTION: 0.0,
                VulnerabilityType.XSS: 2.0,
                VulnerabilityType.COMMAND_INJECTION: 1.0,
            },
            seed=6,
            name="deg-zeroweight",
        ),
        # Threshold extremes: decoy/cross draws always or never fire.
        WorkloadConfig(
            n_units=50,
            prevalence=0.999,
            decoy_fraction=1.0,
            cross_class_sanitizer_rate=1.0,
            seed=7,
            name="deg-high",
        ),
        WorkloadConfig(
            n_units=50,
            prevalence=0.001,
            decoy_fraction=0.0,
            cross_class_sanitizer_rate=0.0,
            seed=8,
            name="deg-low",
        ),
        # The longest chain the mask columns can carry.
        WorkloadConfig(
            n_units=20,
            chain_length_range=(1, MAX_CHAIN),
            seed=9,
            name="deg-maxchain",
        ),
        WorkloadConfig(n_units=1, seed=10, name="deg-oneunit"),
        # One wide unit of decoys, seeded so that a site near the end of
        # the first word buffer takes its worst case: type, vulnerable,
        # decoy, chain, two words per hop and its post-assign, 5 + 2 * c_hi
        # words, one more than a per-site reserve of 4 + 2 * c_hi covers.
        *(
            WorkloadConfig(
                n_units=1,
                sites_per_unit=(1, s_hi),
                chain_length_range=(1, 2),
                prevalence=0.001,
                decoy_fraction=1.0,
                cross_class_sanitizer_rate=0.0,
                seed=seed,
                name="ob1",
            )
            for seed, s_hi in ((188971448, 51), (1093169891, 88), (1995878603, 49))
        ),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_parity(self, config):
        assert supports_batch(config)
        assert_workloads_identical(
            generate_workload_scalar(config), generate_workload_batch(config)
        )

    def test_unsupported_config_falls_back_to_scalar(self):
        config = WorkloadConfig(
            n_units=4, chain_length_range=(1, MAX_CHAIN + 16), seed=2, name="deg-long"
        )
        assert not supports_batch(config)
        with pytest.raises(ValueError):
            decode_columns(config)
        assert_workloads_identical(
            generate_workload_scalar(config), generate_workload(config)
        )


class TestRandomizedParity:
    """A fixed-seed sweep over the config space (failures reproduce)."""

    def test_random_config_sweep(self):
        import numpy as np

        rng = np.random.default_rng(20150615)
        types = list(VulnerabilityType)
        for case in range(25):
            s_lo = int(rng.integers(1, 4))
            c_lo = int(rng.integers(1, 5))
            mix_size = int(rng.integers(1, len(types) + 1))
            chosen = [types[i] for i in rng.choice(len(types), mix_size, replace=False)]
            config = WorkloadConfig(
                n_units=int(rng.integers(1, 60)),
                sites_per_unit=(s_lo, s_lo + int(rng.integers(0, 4))),
                prevalence=float(rng.uniform(0.01, 0.99)),
                decoy_fraction=float(rng.uniform(0.0, 1.0)),
                chain_length_range=(c_lo, c_lo + int(rng.integers(0, 8))),
                cross_class_sanitizer_rate=float(rng.uniform(0.0, 1.0)),
                type_mix={t: float(rng.uniform(0.1, 5.0)) for t in chosen},
                seed=int(rng.integers(0, 2**31)),
                name=f"fuzz-{case}",
            )
            assert_workloads_identical(
                generate_workload_scalar(config), generate_workload_batch(config)
            )


class TestShardParity:
    def test_shard_seed_anchor_unchanged(self):
        """The historical shard-seed derivation is untouched."""
        assert shard_seed(0, 0) == 5105162613023424296

    def test_non_dividing_shard_size(self):
        """Ragged plans: every shard, including the short tail, is
        bit-identical between the batch path and the scalar reference."""
        plan = plan_shards(scale=25, shard_size=10, seed=0)
        assert plan.n_shards == 3
        assert plan.units_in(2) == 5
        for index in range(plan.n_shards):
            assert_workloads_identical(
                generate_workload_scalar(plan.config_for(index)),
                plan.generate(index),
            )

    @pytest.mark.parametrize("name", ECOSYSTEMS)
    def test_ecosystem_shards(self, name):
        plan = plan_shards(scale=22, shard_size=8, seed=1, ecosystem=name)
        for index in range(plan.n_shards):
            assert_workloads_identical(
                generate_workload_scalar(plan.config_for(index)),
                plan.generate(index),
            )

    def test_isolated_single_shard_regeneration(self):
        """A shard regenerated alone (fresh plan, fresh caches) equals the
        same shard generated in sweep order."""
        plan = plan_shards(scale=30, shard_size=10, seed=5)
        in_order = [plan.generate(index) for index in range(plan.n_shards)]
        alone = plan_shards(scale=30, shard_size=10, seed=5).generate(1)
        assert_workloads_identical(in_order[1], alone)

    def test_shard_digests_match_scalar(self):
        plan = plan_shards(scale=12, shard_size=5, seed=9)
        for index in range(plan.n_shards):
            assert payload_digest(
                workload_to_dict(plan.generate(index))
            ) == payload_digest(
                workload_to_dict(generate_workload_scalar(plan.config_for(index)))
            )


class TestColumns:
    """Structural invariants of the columnar record itself."""

    def test_layout_matches_materialized_units(self):
        config = WorkloadConfig(n_units=80, seed=13, name="cols")
        columns = decode_columns(config)
        workload = materialize_workload(columns)
        assert columns.n_units == len(workload.units)
        assert columns.n_sites == workload.n_sites
        offset = 0
        for unit_index, unit in enumerate(workload.units):
            n_sites = int(columns.unit_n_sites[unit_index])
            assert int(columns.unit_site_offset[unit_index]) == offset
            sinks = unit.sink_sites()
            assert len(sinks) == n_sites
            for local, site in enumerate(sinks):
                row = offset + local
                assert int(columns.site_unit[row]) == unit_index
                assert int(columns.site_in_unit[row]) == local
                assert int(columns.site_sink_index[row]) == site.statement_index
                assert columns.type_order[int(columns.site_type[row])] is site.vuln_type
            total = sum(int(columns.site_statements[offset + i]) for i in range(n_sites))
            assert total == len(unit.statements)
            offset += n_sites

    def test_vulnerable_column_equals_truth(self):
        config = WorkloadConfig(n_units=60, seed=14, name="cols-truth")
        columns = decode_columns(config)
        workload = materialize_workload(columns)
        flags = columns.site_vulnerable.tolist()
        for row, site in enumerate(workload.truth.sites):
            assert flags[row] == (site in workload.truth.vulnerable)

    def test_difficulty_column_equals_profiles(self):
        config = WorkloadConfig(n_units=60, seed=15, name="cols-diff")
        columns = decode_columns(config)
        workload = materialize_workload(columns)
        values = columns.site_difficulty.tolist()
        for row, site in enumerate(workload.truth.sites):
            assert values[row] == workload.profiles[site].difficulty

    def test_dependency_mask_matches_scalar_hash(self):
        config = WorkloadConfig(n_units=40, seed=16, name="cols-dep")
        columns = decode_columns(config)
        mask = columns.dependency_mask(0.25)
        ids = columns.unit_ids()
        assert mask.shape == (40,)
        for unit_id, flag in zip(ids, mask.tolist()):
            assert flag == is_dependency_unit(unit_id, 0.25)
        assert dependency_mask(ids, 0.25).tolist() == mask.tolist()

    def test_profiles_and_statements_are_value_equal_across_paths(self):
        """Interned objects compare equal to freshly validated ones (the
        trusted constructors change allocation, never value)."""
        config = WorkloadConfig(n_units=30, seed=17, name="cols-intern")
        batch = generate_workload_batch(config)
        scalar = generate_workload_scalar(config)
        for unit_b, unit_s in zip(batch.units, scalar.units):
            for stmt_b, stmt_s in zip(unit_b.statements, unit_s.statements):
                assert stmt_b == stmt_s
                assert hash(stmt_b) == hash(stmt_s)
                assert stmt_b.kind in StatementKind
        assert batch.profiles == scalar.profiles
        # A mutated copy of the config regenerates identically through
        # dataclasses.replace (no hidden state rides on the config).
        again = generate_workload_batch(dataclasses.replace(config))
        assert payload_digest(workload_to_dict(again)) == payload_digest(
            workload_to_dict(batch)
        )
