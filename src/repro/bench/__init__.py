"""Benchmark harness: campaign runner, experiment engine and drivers."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bench.repeatability": ("RunNoiseSummary", "tool_run_noise"),
        "repro.bench.weighted": ("DEFAULT_SEVERITIES", "score_report_weighted"),
        "repro.bench.suite": ("SuiteResult", "ranking_stability", "run_suite"),
        "repro.bench.report": (
            "ScenarioReport", "ToolVerdict", "build_scenario_report",
        ),
        "repro.bench.pertype": (
            "PerTypeBreakdown", "breakdown_report", "campaign_breakdowns",
            "macro_average", "micro_average",
        ),
        "repro.bench.campaign": (
            "CampaignResult", "ToolResult", "run_campaign", "score_report",
        ),
        "repro.bench.streaming": (
            "CampaignAccumulator", "ShardCells", "StreamingCampaignResult",
            "evaluate_shard", "materialized_totals",
        ),
        "repro.bench.engine": (
            "ArtifactStore", "EngineRun", "ExperimentSpec", "RunContext",
            "RunManifest", "run_experiments",
        ),
        "repro.bench.result": ("DEFAULT_SEED", "ExperimentResult"),
    },
)
