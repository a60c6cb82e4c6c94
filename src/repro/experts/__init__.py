"""Simulated expert panels for the MCDA validation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experts.elicitation": (
            "ScenarioValidation", "elicit_hierarchy", "validate_scenario",
        ),
        "repro.experts.expert": ("Expert",),
        "repro.experts.panel": (
            "ExpertPanel", "aggregate_judgments", "aggregate_priorities",
            "default_panel",
        ),
    },
)
