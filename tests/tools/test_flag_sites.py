"""Columnar tool evaluation: ``flag_sites`` must reach ``analyze``'s verdicts.

Sharded campaigns score each tool from its per-site flag mask over a
shard's :class:`~repro.workload.columnar.ShardColumns`; experiments and the
parity oracle (:func:`~repro.bench.streaming.materialized_totals`) run
``analyze`` over the materialized workload and score reports with
``score_report``.  These tests hold the two paths to the same verdict on
every site:

- a generated-case property over ecosystems, seeds, small shards and
  tool parameters for all six tool classes — including options no
  registered family uses (``respect_sanitizers``, ``concat_taint_loss``,
  every ``max_chain_depth``, any ``quorum``);
- a deterministic sweep: every ecosystem × every single tool family,
  sharded totals equal the object path's totals;
- a tool without a columnar form is refused, not routed elsewhere.

The same property holds the scored form to the object path:
``site_scores`` must equal ``analyze``'s confidences placed by site
index, compared as exact floats, for the four classes of the reference
suite; the other classes refuse it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.campaign import score_report
from repro.bench.engine.shards import run_sharded_campaign
from repro.bench.streaming import evaluate_shard, materialized_totals
from repro.errors import ToolError
from repro.tools.dynamic_injector import DynamicInjector
from repro.tools.ensemble import EnsembleTool
from repro.tools.families import family_names, suite_for_ecosystem
from repro.tools.pattern_scanner import PatternScanner
from repro.tools.sca_matcher import ScaMatcher
from repro.tools.simulated import SimulatedTool, ToolProfile
from repro.tools.taint_analyzer import TaintAnalyzer
from repro.tools.thresholded import ThresholdedTool
from repro.workload.columnar import materialize_workload
from repro.workload.ecosystems import ecosystem_names
from repro.workload.sharded import plan_shards
from repro.workload.taxonomy import VulnerabilityType

SEED = 2015

unit_interval = st.floats(0.0, 1.0)
confidences = st.floats(0.0, 1.0, exclude_min=True)
seeds = st.integers(0, 2**31)

#: The classes with a scored columnar form (the reference suite's).
SCORED = (DynamicInjector, PatternScanner, SimulatedTool, TaintAnalyzer)


@st.composite
def shard_columns(draw):
    """One small shard of a registered ecosystem, as columns."""
    ecosystem = draw(st.sampled_from(ecosystem_names()))
    n_units = draw(st.integers(1, 200))
    plan = plan_shards(
        scale=n_units, shard_size=n_units, seed=draw(seeds), ecosystem=ecosystem
    )
    return plan.columns(0)


def static_tools(name):
    return st.one_of(
        st.builds(
            PatternScanner,
            name=st.just(name),
            respect_sanitizers=st.booleans(),
            confidence=confidences,
        ),
        st.builds(
            TaintAnalyzer,
            name=st.just(name),
            max_chain_depth=st.none() | st.integers(0, 9),
            trust_sanitizers=st.booleans(),
            concat_taint_loss=st.booleans(),
            confidence=confidences,
        ),
    )


def stochastic_tools(name):
    type_rates = st.dictionaries(
        st.sampled_from(list(VulnerabilityType)), unit_interval, max_size=3
    )
    return st.one_of(
        st.builds(
            DynamicInjector,
            name=st.just(name),
            payload_coverage=st.floats(0.01, 1.0),
            difficulty_penalty=unit_interval,
            false_alarm_rate=st.floats(0.0, 0.99),
            seed=seeds,
            confidence=confidences,
        ),
        st.builds(
            SimulatedTool,
            name=st.just(name),
            profile=st.builds(
                ToolProfile,
                recall=unit_interval,
                fpr=unit_interval,
                recall_by_type=type_rates,
                fpr_by_type=type_rates,
                difficulty_sensitivity=unit_interval,
                ranking_quality=unit_interval,
            ),
            seed=seeds,
        ),
        st.builds(
            ScaMatcher,
            name=st.just(name),
            db_coverage=st.floats(0.01, 1.0),
            version_noise=st.floats(0.0, 0.99),
            dependency_fraction=unit_interval,
            seed=seeds,
        ),
    )


def leaf_tool(name):
    return st.one_of(static_tools(name), stochastic_tools(name))


@st.composite
def tool_suites(draw):
    """Two to four leaf tools plus a quorum ensemble over some of them."""
    count = draw(st.integers(2, 4))
    tools = [draw(leaf_tool(f"T{index}")) for index in range(count)]
    members = draw(
        st.lists(st.sampled_from(tools), min_size=1, max_size=count, unique=True)
        | st.lists(leaf_tool("M"), min_size=1, max_size=1)
    )
    quorum = draw(st.integers(1, len(members)))
    return tools + [EnsembleTool("ENS", members=members, quorum=quorum)]


def analyze_mask(tool, workload) -> np.ndarray:
    flagged = tool.analyze(workload).flagged_sites
    return np.fromiter(
        (site in flagged for site in workload.truth.sites),
        dtype=bool,
        count=len(workload.truth.sites),
    )


def analyze_scores(tool, workload) -> np.ndarray:
    confidence = {d.site: d.confidence for d in tool.analyze(workload).detections}
    return np.array(
        [confidence.get(site, 0.0) for site in workload.truth.sites], dtype=float
    )


class TestFlagSitesParity:
    @settings(max_examples=60, deadline=None)
    @given(columns=shard_columns(), tools=tool_suites())
    def test_masks_and_cells_match_the_object_path(self, columns, tools):
        workload = materialize_workload(columns)
        for tool in tools:
            flags = tool.flag_sites(columns)
            assert flags.dtype == np.bool_
            assert np.array_equal(flags, analyze_mask(tool, workload)), tool
            if isinstance(tool, SCORED):
                scores = tool.site_scores(columns)
                assert scores.dtype == np.float64
                assert np.array_equal(scores, analyze_scores(tool, workload)), tool
                assert np.array_equal(scores > 0, flags), tool
            else:
                with pytest.raises(ToolError, match=type(tool).__name__):
                    tool.site_scores(columns)
        cells = evaluate_shard(tools, columns, 0)
        for row, tool in enumerate(tools):
            cm = score_report(tool.analyze(workload), workload.truth)
            assert (
                cells.tp[row], cells.fp[row], cells.fn[row], cells.tn[row]
            ) == (cm.tp, cm.fp, cm.fn, cm.tn), tool
        assert cells.n_units == len(workload.units)
        assert cells.n_sites == workload.n_sites
        assert cells.n_vulnerable == len(workload.truth.vulnerable)
        assert cells.ecosystem == workload.config.ecosystem


class TestShardedTotalsEqualObjectPath:
    @pytest.mark.parametrize("family", family_names())
    @pytest.mark.parametrize("ecosystem", ecosystem_names())
    def test_single_family_campaign(self, ecosystem, family):
        run = run_sharded_campaign(
            scale=90,
            shard_size=45,
            seed=SEED,
            ecosystem=ecosystem,
            tool_families=(family,),
        )
        plan = plan_shards(
            scale=90, shard_size=45, seed=SEED, ecosystem=ecosystem
        )
        reference = materialized_totals(
            suite_for_ecosystem(ecosystem, seed=SEED, families=(family,)),
            plan,
        )
        assert run.totals == reference


class TestToolsWithoutColumnarForm:
    def test_thresholded_tool_is_refused(self):
        columns = plan_shards(scale=20, shard_size=20, seed=SEED).columns(0)
        tool = ThresholdedTool(PatternScanner(), threshold=0.5)
        with pytest.raises(ToolError, match="ThresholdedTool"):
            tool.flag_sites(columns)
        with pytest.raises(ToolError, match="ThresholdedTool"):
            evaluate_shard([tool], columns, 0)
        with pytest.raises(ToolError, match="ThresholdedTool"):
            tool.site_scores(columns)

    def test_ensemble_and_sca_have_no_scores(self):
        columns = plan_shards(scale=20, shard_size=20, seed=SEED).columns(0)
        sca = ScaMatcher(name="sca")
        ensemble = EnsembleTool("ens", members=[PatternScanner(), sca], quorum=1)
        for tool in (sca, ensemble):
            tool.flag_sites(columns)  # a columnar verdict, but no scores
            with pytest.raises(ToolError, match=type(tool).__name__):
                tool.site_scores(columns)
