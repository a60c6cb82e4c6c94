"""Characteristics of a good metric, made executable."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.properties.base": (
            "AssessmentContext", "MetricProperty", "OperatingPoint",
            "PropertyAssessment",
        ),
        "repro.properties.checks": (
            "Boundedness", "ChanceCorrection", "Definedness", "Discriminance",
            "PrevalenceInvariance", "Repeatability", "RewardsDetection",
            "RewardsSilence",
        ),
        "repro.properties.matrix": (
            "PropertiesMatrix", "build_properties_matrix", "default_properties",
        ),
        "repro.properties.qualitative": ("Acceptance", "Understandability"),
    },
)
