"""The lazy import surface: package exports and the experiment registry.

Package ``__init__``s resolve their re-exports on first attribute access,
and the registry imports one experiment module per id it is asked for, so
each command loads only what it runs.  These tests pin the public surface
(every name the packages exported when they imported everything eagerly
still resolves from the same path), the registry's id -> module table, and
the cold-start gate ``tools/check_bench.py`` runs in CI.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.engine import spec as spec_module
from repro.bench.engine.spec import all_specs, experiment_ids, get_spec
from repro.bench.experiments import MODULES

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Each package's ``__all__`` from when every ``__init__`` imported its
#: submodules eagerly: the surface lazy exports must keep.
PUBLIC = {
    "repro": """
        __version__ CampaignResult ToolResult run_campaign score_report
        ScenarioReport ToolVerdict build_scenario_report ConfigurationError
        ElicitationError InconsistentJudgmentError McdaError MetricError ReproError
        ToolError UndefinedMetricError WorkloadError Expert ExpertPanel
        default_panel elicit_hierarchy validate_scenario AhpHierarchy AhpResult
        PairwiseComparisonMatrix comparison_from_scores simple_additive_weighting
        topsis weight_sensitivity ConfusionMatrix Metric MetricFamily MetricRegistry
        Orientation core_candidates default_registry definitions AssessmentContext
        PropertiesMatrix build_properties_matrix default_properties AdequacyConfig
        CostStructure Scenario canonical_scenarios rank_metrics_for_scenario
        scenario_adequacy scenario_by_key DynamicInjector PatternScanner
        SimulatedTool TaintAnalyzer ToolProfile VulnerabilityDetectionTool
        reference_suite CodeUnit GroundTruth SinkSite VulnerabilityType Workload
        WorkloadConfig generate_workload
    """,
    "repro.bench": """
        RunNoiseSummary tool_run_noise DEFAULT_SEVERITIES score_report_weighted
        SuiteResult ranking_stability run_suite ScenarioReport ToolVerdict
        build_scenario_report PerTypeBreakdown breakdown_report campaign_breakdowns
        macro_average micro_average CampaignResult ToolResult run_campaign
        score_report CampaignAccumulator ShardCells StreamingCampaignResult
        evaluate_shard materialized_totals ArtifactStore EngineRun ExperimentSpec
        RunContext RunManifest run_experiments DEFAULT_SEED ExperimentResult
    """,
    "repro.bench.engine": """
        ArtifactCodec ArtifactEvent ArtifactKey ArtifactStore RunContext
        UncacheableParameter ensure_context FaultPlan FaultSpec InjectedFault
        corrupt_file parse_fault MANIFEST_SCHEMA STATUSES ExperimentRunRecord
        FailureRecord RunManifest EngineRun EXECUTORS SHARD_MANIFEST_SCHEMA
        SHARD_STATUSES ShardedCampaignRun ShardRunManifest ShardRunRecord
        run_sharded_campaign shard_fault_id run_experiments topological_order
        ExperimentSpec all_specs experiment_ids get_spec register_spec
    """,
    "repro.bench.experiments": """
        DEFAULT_SEED ExperimentResult ALL_EXPERIMENTS r1_catalog r2_properties
        r3_campaign r4_metric_values r5_rankings r6_prevalence r7_discrimination
        r8_scenarios r9_ahp r10_sensitivity r11_agreement r12_pertype r13_ranking
        r14_significance r15_difficulty r16_stability r17_workload_stability
        r18_thresholds r19_run_noise r20_ecosystems
    """,
    "repro.experts": """
        ScenarioValidation elicit_hierarchy validate_scenario Expert ExpertPanel
        aggregate_judgments aggregate_priorities default_panel
    """,
    "repro.mcda": """
        ElectreResult electre_i PrometheeResult promethee_ii RepairResult
        blend_toward_consistency repair_matrix AhpHierarchy AhpResult
        comparison_from_scores SAATY_VALUES PairwiseComparisonMatrix random_index
        snap_to_saaty SawResult simple_additive_weighting PerturbationOutcome
        SensitivityReport weight_sensitivity TopsisResult topsis
    """,
    "repro.metrics": """
        ConfusionMatrix ConfusionBatch safe_div_array Metric MetricFamily MetricInfo
        Orientation MetricRegistry default_registry core_candidates definitions
        curves
    """,
    "repro.obs": """
        Observability Tracer SpanRecord spans_from_chrome_trace TRACE_SCHEMA
        MetricsRegistry Counter Gauge Histogram MetricsDiff diff_dumps
        METRICS_SCHEMA DEFAULT_SECONDS_BUCKETS Profiler ProfileReport HotspotRow
    """,
    "repro.properties": """
        AssessmentContext MetricProperty OperatingPoint PropertyAssessment
        Boundedness ChanceCorrection Definedness Discriminance PrevalenceInvariance
        Repeatability RewardsDetection RewardsSilence PropertiesMatrix
        build_properties_matrix default_properties Acceptance Understandability
    """,
    "repro.reporting": """
        BenchTable ascii_chart bench_tables experiment_to_markdown
        format_markdown_table format_cell format_table refresh_doc
    """,
    "repro.scenarios": """
        AdequacyConfig AdequacyResult rank_metrics_for_scenario scenario_adequacy
        CostStructure GuidanceAnswers Recommendation recommend Scenario
        canonical_scenarios scenario_by_key
    """,
    "repro.serve": """
        DeficitRoundRobin QueuedJob JobSpec JobRecord JobQueue JOB_STATES
        ResultCache CampaignService ServiceConfig PoissonTrace TraceEvent
        build_trace
    """,
    "repro.stats": """
        PairedOutcomes mcnemar_exact paired_outcomes wilson_interval
        BootstrapSummary SeparationResult bootstrap_metric bootstrap_metric_batch
        bootstrap_metric_scalar intervals_separated percentile_interval
        separation_detail separation_fraction kendall_tau kendalls_w order_by_score
        rank_of rank_scores spearman_rho top_k_overlap
    """,
    "repro.tools": """
        Detection DetectionReport VulnerabilityDetectionTool DynamicInjector
        EnsembleTool ToolFamily all_families build_family family_names get_family
        register_family suite_for_ecosystem PatternScanner ScaMatcher
        dependency_mask is_dependency_unit SimulatedTool ToolProfile TaintAnalyzer
        ThresholdedTool ThresholdPoint optimal_threshold threshold_sweep
        real_tool_suite reference_suite simulated_pool
    """,
    "repro.workload": """
        corpus_units corpus_workload break_site extend_chain fix_site CodeUnit
        DEFAULT_ECOSYSTEM EcosystemProfile all_ecosystems ecosystem_names
        get_ecosystem register_ecosystem SinkSite Statement StatementKind
        SiteProfile Workload WorkloadConfig generate_workload
        generate_workload_scalar generate_workload_batch ShardColumns decode_columns
        materialize_workload supports_batch GroundTruth DEFAULT_SHARD_SIZE ShardPlan
        ShardSpec plan_shards shard_seed is_site_vulnerable taint_state_after
        vulnerable_sites TRAITS VulnerabilityTraits VulnerabilityType
    """,
}

#: The exports whose value is a module; every other export is not.
MODULE_EXPORTS = {
    "repro.definitions",
    "repro.metrics.curves",
    "repro.metrics.definitions",
    *(f"repro.bench.experiments.{name}" for name in MODULES.values()),
}

#: Runs in a fresh interpreter: resolve every export, optionally after
#: importing every module of the package first (which binds submodules onto
#: their packages the way any import elsewhere would).
SURFACE_PROBE = """
import importlib, json, pkgutil, sys, types

public = json.loads(sys.argv[1])
if sys.argv[2] == "after-submodules":
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
report = {"missing": [], "unlisted": [], "modules": []}
for package, names in public.items():
    module = importlib.import_module(package)
    listed = set(dir(module))
    for name in names:
        if name not in listed:
            report["unlisted"].append(f"{package}.{name}")
        try:
            value = getattr(module, name)
        except AttributeError:
            report["missing"].append(f"{package}.{name}")
            continue
        if isinstance(value, types.ModuleType):
            report["modules"].append(f"{package}.{name}")
print(json.dumps(report))
"""

#: Runs in a fresh interpreter: which ids each ``r*_*.py`` module registers.
REGISTRY_PROBE = """
import importlib, json, pathlib
import repro.bench.experiments as experiments
from repro.bench.engine import spec

registered = {}
for path in sorted(pathlib.Path(experiments.__file__).parent.glob("r*_*.py")):
    before = set(spec._REGISTRY)
    importlib.import_module(f"repro.bench.experiments.{path.stem}")
    registered[path.stem] = sorted(set(spec._REGISTRY) - before)
print(json.dumps(registered))
"""


def fresh_python(code: str, *argv: str):
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestPackageExports:
    @pytest.mark.parametrize("order", ["fresh", "after-submodules"])
    def test_every_public_name_resolves_and_is_listed(self, order):
        public = {package: names.split() for package, names in PUBLIC.items()}
        report = fresh_python(SURFACE_PROBE, json.dumps(public), order)
        assert report["missing"] == []
        assert report["unlisted"] == []
        assert set(report["modules"]) == MODULE_EXPORTS

    def test_package_all_keeps_the_public_surface(self):
        for package, names in PUBLIC.items():
            module = importlib.import_module(package)
            assert set(names.split()) <= set(module.__all__), package

    def test_resolved_names_are_stored_in_the_package(self):
        import repro.workload as workload

        value = workload.WorkloadConfig
        assert vars(workload)["WorkloadConfig"] is value

    def test_unknown_name_is_an_attribute_error(self):
        import repro.metrics as metrics

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            metrics.nope


class TestExperimentRegistry:
    def test_each_module_registers_its_own_id(self):
        registered = fresh_python(REGISTRY_PROBE)
        assert sorted(registered) == sorted(MODULES.values())
        for stem, ids in registered.items():
            number = re.match(r"r(\d+)_", stem).group(1)
            assert ids == [f"R{number}"], stem
            assert MODULES[f"R{number}"] == stem

    def test_experiment_ids_match_the_registered_specs(self):
        assert experiment_ids() == [s.experiment_id for s in all_specs()]

    def test_lookup_of_a_registered_id_imports_nothing(self, monkeypatch):
        spec = get_spec("R5")

        def no_import(name):
            raise AssertionError(f"imported {name}")

        monkeypatch.setattr(
            spec_module, "importlib", SimpleNamespace(import_module=no_import)
        )
        assert get_spec("r5") is spec


def _load_check_bench():
    loader = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_cold_starts_load_only_their_path():
    assert _load_check_bench().check_cold_start() == []
