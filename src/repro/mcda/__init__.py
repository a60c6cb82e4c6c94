"""Multi-criteria decision analysis: AHP, SAW, TOPSIS, sensitivity."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.mcda.electre": ("ElectreResult", "electre_i"),
        "repro.mcda.promethee": ("PrometheeResult", "promethee_ii"),
        "repro.mcda.repair": (
            "RepairResult", "blend_toward_consistency", "repair_matrix",
        ),
        "repro.mcda.ahp": ("AhpHierarchy", "AhpResult", "comparison_from_scores"),
        "repro.mcda.pairwise": (
            "SAATY_VALUES", "PairwiseComparisonMatrix", "random_index", "snap_to_saaty",
        ),
        "repro.mcda.saw": ("SawResult", "simple_additive_weighting"),
        "repro.mcda.sensitivity": (
            "PerturbationOutcome", "SensitivityReport", "weight_sensitivity",
        ),
        "repro.mcda.topsis": ("TopsisResult", "topsis"),
    },
)
