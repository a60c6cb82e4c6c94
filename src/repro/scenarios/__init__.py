"""Use scenarios and analytical metric adequacy."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.scenarios.adequacy": (
            "AdequacyConfig", "AdequacyResult", "rank_metrics_for_scenario",
            "scenario_adequacy",
        ),
        "repro.scenarios.cost_model": ("CostStructure",),
        "repro.scenarios.guidance": ("GuidanceAnswers", "Recommendation", "recommend"),
        "repro.scenarios.scenarios": (
            "Scenario", "canonical_scenarios", "scenario_by_key",
        ),
    },
)
