"""repro — reproduction of "On the Metrics for Benchmarking Vulnerability
Detection Tools" (Antunes & Vieira, DSN 2015).

The library implements the paper's full pipeline:

1. **metrics** — the candidate metric catalog over confusion matrices;
2. **workload / tools / bench** — a synthetic benchmarking substrate:
   code workloads with injected vulnerabilities, real and simulated
   detection tools, and the campaign runner that scores them;
3. **properties** — the "characteristics of a good metric" made executable;
4. **scenarios** — use scenarios with cost structures and the analytical
   adequacy study;
5. **mcda / experts** — AHP (plus SAW and TOPSIS) driven by a simulated
   expert panel, validating the analytical selection;
6. **bench.experiments** — drivers R1..R11 regenerating every table and
   figure of the study (see DESIGN.md).

Quickstart::

    from repro import (
        WorkloadConfig, generate_workload, reference_suite, run_campaign,
        default_registry,
    )

    workload = generate_workload(WorkloadConfig(n_units=200, seed=7))
    campaign = run_campaign(reference_suite(seed=7), workload)
    for metric in default_registry():
        print(metric.symbol, campaign.metric_values(metric))

Each name is imported on first use (:mod:`repro._lazy`), so ``import repro``
itself loads no submodule.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_exports, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bench.campaign": (
            "CampaignResult", "ToolResult", "run_campaign", "score_report",
        ),
        "repro.bench.report": (
            "ScenarioReport", "ToolVerdict", "build_scenario_report",
        ),
        "repro.errors": (
            "ConfigurationError", "ElicitationError", "InconsistentJudgmentError",
            "McdaError", "MetricError", "ReproError", "ToolError",
            "UndefinedMetricError", "WorkloadError",
        ),
        "repro.experts": (
            "Expert", "ExpertPanel", "default_panel", "elicit_hierarchy",
            "validate_scenario",
        ),
        "repro.mcda": (
            "AhpHierarchy", "AhpResult", "PairwiseComparisonMatrix",
            "comparison_from_scores", "simple_additive_weighting", "topsis",
            "weight_sensitivity",
        ),
        "repro.metrics": (
            "ConfusionMatrix", "Metric", "MetricFamily", "MetricRegistry",
            "Orientation", "core_candidates", "default_registry", "definitions",
        ),
        "repro.properties": (
            "AssessmentContext", "PropertiesMatrix", "build_properties_matrix",
            "default_properties",
        ),
        "repro.scenarios": (
            "AdequacyConfig", "CostStructure", "Scenario", "canonical_scenarios",
            "rank_metrics_for_scenario", "scenario_adequacy", "scenario_by_key",
        ),
        "repro.tools": (
            "DynamicInjector", "PatternScanner", "SimulatedTool", "TaintAnalyzer",
            "ToolProfile", "VulnerabilityDetectionTool", "reference_suite",
        ),
        "repro.workload": (
            "CodeUnit", "GroundTruth", "SinkSite", "VulnerabilityType", "Workload",
            "WorkloadConfig", "generate_workload",
        ),
    },
)
__all__ = ["__version__", *_exports]
