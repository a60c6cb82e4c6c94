"""The columnar decoder against numpy and the scalar generator.

``tests/workload/test_batch_parity.py`` holds the batch path to the scalar
reference on every ecosystem and on hand-picked and fixed-seed configs.
These tests reach what those cases do not:

- a generated-case property over the whole supported config space,
  including few wide units that outgrow the first word buffer;
- numpy's Lemire rejection redraw, which the decoder's own spans almost
  never trigger, checked on spans that reject a half and a quarter of
  their draws;
- decoding without the numpy-2-only ``np.bitwise_count``, since the
  package declares numpy >= 1.24.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.columnar import MAX_CHAIN, _draw_int, generate_workload_batch
from repro.workload.ecosystems import ecosystem_names, get_ecosystem
from repro.workload.generator import WorkloadConfig, generate_workload_scalar
from repro.workload.taxonomy import VulnerabilityType
from tests.workload.test_batch_parity import assert_workloads_identical

rates = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
chain_ranges = st.just((1, MAX_CHAIN)) | st.tuples(
    st.integers(1, 8), st.integers(0, 8)
).map(lambda lo_span: (lo_span[0], lo_span[0] + lo_span[1]))


@st.composite
def workload_configs(draw):
    """A config inside the decoder's range, drawn from the whole space."""
    if draw(st.booleans()):
        n_units, site_span = draw(st.integers(1, 40)), draw(st.integers(0, 4))
    else:
        # Few wide units: the first buffer estimate falls short of a
        # unit's worst case, so the walk refills mid-shard.
        n_units, site_span = draw(st.integers(1, 3)), draw(st.integers(0, 100))
    s_lo = draw(st.integers(1, 3))
    types = draw(st.lists(st.sampled_from(list(VulnerabilityType)), min_size=1, unique=True))
    weights = draw(
        st.lists(st.floats(0.0, 5.0), min_size=len(types), max_size=len(types)).filter(
            lambda ws: sum(ws) > 0
        )
    )
    return WorkloadConfig(
        n_units=n_units,
        sites_per_unit=(s_lo, s_lo + site_span),
        prevalence=draw(st.floats(0.001, 0.999)),
        decoy_fraction=draw(rates),
        chain_length_range=draw(chain_ranges),
        cross_class_sanitizer_rate=draw(rates),
        type_mix=dict(zip(types, weights)),
        seed=draw(st.integers(0, 2**31 - 1)),
        name="generated",
    )


class TestGeneratedConfigParity:
    @settings(max_examples=150, deadline=None)
    @given(config=workload_configs())
    def test_batch_matches_scalar(self, config):
        assert_workloads_identical(
            generate_workload_scalar(config), generate_workload_batch(config)
        )


class TestBoundedDraw:
    """``_draw_int`` reads 32-bit halves as ``Generator.integers`` does."""

    @pytest.mark.parametrize("span", [2**31, 3 * 2**30 - 1])
    def test_rejecting_spans_match_generator(self, span):
        seed, lo, n_draws = 20150615, 7, 400
        generator = np.random.Generator(np.random.PCG64(seed))
        words = np.random.PCG64(seed)
        reads = 0

        def next32():
            # PCG64's own half-word cache, so any difference in what the
            # draw reads shows in the final state.
            nonlocal reads
            reads += 1
            return words.ctypes.next_uint32(words.ctypes.state)

        for _ in range(n_draws):
            assert _draw_int(next32, lo, span) == generator.integers(lo, lo + span + 1)
            # rng.random() reads one whole word and leaves the cache alone.
            words.random_raw()
            generator.random()
        # Half of a 2**31 span's draws reject, and a quarter of the other's.
        assert reads - n_draws > n_draws // 8
        assert words.state == generator.bit_generator.state


class TestWithoutNumpyTwo:
    @pytest.mark.parametrize("name", ecosystem_names())
    def test_decodes_without_bitwise_count(self, monkeypatch, name):
        config = get_ecosystem(name).workload_config(
            n_units=200, seed=3, name=f"np1-{name}"
        )
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert_workloads_identical(
            generate_workload_scalar(config), generate_workload_batch(config)
        )
