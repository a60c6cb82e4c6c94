"""Vulnerability detection tools: real detectors over the mini-IR plus
parametric simulated scanners."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.tools.base": (
            "Detection", "DetectionReport", "VulnerabilityDetectionTool",
        ),
        "repro.tools.dynamic_injector": ("DynamicInjector",),
        "repro.tools.ensemble": ("EnsembleTool",),
        "repro.tools.families": (
            "ToolFamily", "all_families", "build_family", "family_names", "get_family",
            "register_family", "suite_for_ecosystem",
        ),
        "repro.tools.pattern_scanner": ("PatternScanner",),
        "repro.tools.sca_matcher": (
            "ScaMatcher", "dependency_mask", "is_dependency_unit",
        ),
        "repro.tools.simulated": ("SimulatedTool", "ToolProfile"),
        "repro.tools.taint_analyzer": ("TaintAnalyzer",),
        "repro.tools.thresholded": (
            "ThresholdedTool", "ThresholdPoint", "optimal_threshold", "threshold_sweep",
        ),
        "repro.tools.suite": ("real_tool_suite", "reference_suite", "simulated_pool"),
    },
)
