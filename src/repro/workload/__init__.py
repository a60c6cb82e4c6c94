"""Synthetic vulnerability-detection workloads (the benchmark substrate)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workload.corpus": ("corpus_units", "corpus_workload"),
        "repro.workload.mutations": ("break_site", "extend_chain", "fix_site"),
        "repro.workload.code_model": (
            "CodeUnit", "SinkSite", "Statement", "StatementKind",
        ),
        "repro.workload.ecosystems": (
            "DEFAULT_ECOSYSTEM", "EcosystemProfile", "all_ecosystems",
            "ecosystem_names", "get_ecosystem", "register_ecosystem",
        ),
        "repro.workload.generator": (
            "SiteProfile", "Workload", "WorkloadConfig", "generate_workload",
            "generate_workload_scalar",
        ),
        "repro.workload.columnar": (
            "generate_workload_batch", "ShardColumns", "decode_columns",
            "materialize_workload", "supports_batch",
        ),
        "repro.workload.ground_truth": ("GroundTruth",),
        "repro.workload.sharded": (
            "DEFAULT_SHARD_SIZE", "ShardPlan", "ShardSpec", "plan_shards", "shard_seed",
        ),
        "repro.workload.oracle": (
            "is_site_vulnerable", "taint_state_after", "vulnerable_sites",
        ),
        "repro.workload.taxonomy": (
            "TRAITS", "VulnerabilityTraits", "VulnerabilityType",
        ),
    },
)
