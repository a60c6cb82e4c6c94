"""Candidate metrics for benchmarking vulnerability detection tools.

Public surface:

- :class:`ConfusionMatrix` — the raw benchmark outcome.
- :class:`ConfusionBatch` — ``n`` matrices as columns, for vectorized kernels.
- :class:`Metric` and its catalog in :mod:`repro.metrics.definitions`.
- :class:`MetricRegistry`, :func:`default_registry`, :func:`core_candidates`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.confusion": ("ConfusionMatrix",),
        "repro.metrics.batch": ("ConfusionBatch", "safe_div_array"),
        "repro.metrics.base": ("Metric", "MetricFamily", "MetricInfo", "Orientation"),
        "repro.metrics.registry": (
            "MetricRegistry", "default_registry", "core_candidates",
        ),
        __name__: ("definitions", "curves"),
    },
)
