"""Bootstrap machinery for benchmark results.

A metric is only useful for tool selection if, under the sampling noise of a
finite workload, it still *separates* tools whose true quality differs — the
"discriminating" characteristic of a good metric.  This module provides the
resampling utilities behind experiment R7 (discriminative power) and the
repeatability property check in R2.

:func:`bootstrap_metric_batch` bootstraps one metric at several confusion
matrices (R7's eight tools, R2's operating points) in one batch.  Each
matrix draws its resamples from its own seed with one sized multinomial
(:func:`~repro.metrics.batch.resample_cells`); the blocks are stacked into
one :class:`~repro.metrics.batch.ConfusionBatch`, so the metric's vectorized
kernel (:meth:`~repro.metrics.base.Metric.compute_batch`) runs once, and the
matrices whose resamples are all defined are summarised together by
row-wise ``np.quantile``, ``mean`` and ``std``.  A matrix with an undefined
resample is summarised on its own.  :func:`bootstrap_metric` is the
one-matrix call.  The retired per-resample loop survives as
:func:`bootstrap_metric_scalar`, the reference implementation the benchmarks
and parity tests compare against.  Every path consumes each seed's bit
stream identically and reduces each matrix's values in the same order, so
they return byte-identical summaries for the same seeds.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._rng import rng_from_seed
from repro.errors import ConfigurationError
from repro.metrics.base import Metric
from repro.metrics.batch import ConfusionBatch, resample_cells
from repro.metrics.confusion import ConfusionMatrix

__all__ = [
    "BootstrapSummary",
    "SeparationResult",
    "bootstrap_metric",
    "bootstrap_metric_batch",
    "bootstrap_metric_scalar",
    "percentile_interval",
    "intervals_separated",
    "separation_detail",
    "separation_fraction",
]


@dataclass(frozen=True, slots=True)
class BootstrapSummary:
    """Distribution summary of a metric over bootstrap resamples."""

    metric_symbol: str
    point_estimate: float
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n_resamples: int
    n_defined: int
    """Number of resamples for which the metric was defined."""

    @property
    def defined_fraction(self) -> float:
        """Fraction of resamples where the metric had a finite value."""
        return self.n_defined / self.n_resamples if self.n_resamples else float("nan")

    @property
    def width(self) -> float:
        """Width of the confidence interval."""
        return self.ci_high - self.ci_low


def percentile_interval(
    values: Sequence[float] | np.ndarray, confidence: float = 0.95
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval over ``values`` (nan-free).

    Accepts any sequence; an existing float array is used as-is (no copy), so
    the bootstrap fast path pays for conversion exactly once.
    """
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence={confidence} must be in (0, 1)")
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ConfigurationError("cannot build an interval from no values")
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(array, [alpha, 1.0 - alpha])
    return float(low), float(high)


def _check_arguments(n_resamples: int, confidence: float) -> None:
    """Reject a bootstrap request before anything is drawn."""
    if n_resamples < 2:
        raise ConfigurationError(f"n_resamples={n_resamples} must be >= 2")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence={confidence} must be in (0, 1)")


def _summarize(
    metric: Metric,
    cm: ConfusionMatrix,
    values: np.ndarray,
    n_resamples: int,
    confidence: float,
) -> BootstrapSummary:
    """Fold per-resample metric values into a summary (shared by both paths)."""
    finite = values[np.isfinite(values)]
    point_estimate = metric.value_or_nan(cm)
    if finite.size == 0:
        nan = float("nan")
        return BootstrapSummary(
            metric_symbol=metric.symbol,
            point_estimate=point_estimate,
            mean=nan,
            std=nan,
            ci_low=nan,
            ci_high=nan,
            n_resamples=n_resamples,
            n_defined=0,
        )
    ci_low, ci_high = percentile_interval(finite, confidence)
    return BootstrapSummary(
        metric_symbol=metric.symbol,
        point_estimate=point_estimate,
        mean=float(finite.mean()),
        std=float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
        ci_low=ci_low,
        ci_high=ci_high,
        n_resamples=n_resamples,
        n_defined=int(finite.size),
    )


def bootstrap_metric(
    metric: Metric,
    cm: ConfusionMatrix,
    n_resamples: int = 200,
    confidence: float = 0.95,
    seed: int | np.random.Generator = 0,
) -> BootstrapSummary:
    """Bootstrap the sampling distribution of ``metric`` at ``cm``.

    Resamples the confusion matrix multinomially (same workload size, cells
    drawn from the observed proportions) and recomputes the metric.  Undefined
    resamples are dropped but counted, because frequent undefinedness is
    itself a finding (the R2 "definedness" property).

    The one-matrix call of :func:`bootstrap_metric_batch`; for the same
    ``seed`` the result is byte-identical to :func:`bootstrap_metric_scalar`.

    .. warning::
       Passing a ``Generator`` as ``seed`` makes the result depend on how far
       the generator has already advanced, i.e. on *call order*.  Experiments
       that must reproduce across execution backends (thread vs. process
       executors schedule work differently) should pass an explicit integer
       child seed — see :func:`repro._rng.derive_seed` — instead of sharing a
       stateful generator.
    """
    return bootstrap_metric_batch(metric, [cm], [seed], n_resamples, confidence)[0]


def bootstrap_metric_batch(
    metric: Metric,
    confusions: Sequence[ConfusionMatrix],
    seeds: Sequence[int | np.random.Generator],
    n_resamples: int = 200,
    confidence: float = 0.95,
) -> list[BootstrapSummary]:
    """Bootstrap ``metric`` at every matrix of ``confusions`` in one batch.

    Matrix ``i`` draws its resamples from ``seeds[i]`` exactly as
    :func:`bootstrap_metric` would, matrices in order, so summary ``i`` is
    byte-identical to ``bootstrap_metric(metric, confusions[i], n_resamples,
    confidence, seeds[i])``.  Only the metric kernel and the summaries of
    fully defined matrices run once over the whole batch.  Arguments are
    checked before anything is drawn.
    """
    _check_arguments(n_resamples, confidence)
    if len(seeds) != len(confusions):
        raise ConfigurationError(
            f"got {len(seeds)} seeds for {len(confusions)} matrices; "
            "need one seed per matrix"
        )
    if not confusions:
        return []
    cells = np.concatenate(
        [
            resample_cells(cm, n_resamples, rng_from_seed(seed))
            for cm, seed in zip(confusions, seeds)
        ]
    )
    values = metric.compute_batch(ConfusionBatch.from_cells(cells))
    values = values.reshape(len(confusions), n_resamples)
    # Each row is C-contiguous, so the row-wise reductions sum in exactly the
    # order the one-matrix reductions of ``_summarize`` do.
    complete = np.isfinite(values).all(axis=1)
    rows = values[complete]
    alpha = (1.0 - confidence) / 2.0
    lows, highs = np.quantile(rows, [alpha, 1.0 - alpha], axis=1)
    columns = zip(
        lows.tolist(),
        highs.tolist(),
        rows.mean(axis=1).tolist(),
        rows.std(axis=1, ddof=1).tolist(),
    )
    summaries = []
    for cm, row, is_complete in zip(confusions, values, complete.tolist()):
        if not is_complete:
            summaries.append(_summarize(metric, cm, row, n_resamples, confidence))
            continue
        ci_low, ci_high, mean, std = next(columns)
        summaries.append(
            BootstrapSummary(
                metric_symbol=metric.symbol,
                point_estimate=metric.value_or_nan(cm),
                mean=mean,
                std=std,
                ci_low=ci_low,
                ci_high=ci_high,
                n_resamples=n_resamples,
                n_defined=n_resamples,
            )
        )
    return summaries


def bootstrap_metric_scalar(
    metric: Metric,
    cm: ConfusionMatrix,
    n_resamples: int = 200,
    confidence: float = 0.95,
    seed: int | np.random.Generator = 0,
) -> BootstrapSummary:
    """Reference implementation of :func:`bootstrap_metric`: one resample and
    one scalar metric evaluation per Python-loop iteration.

    Kept (rather than deleted) so the equivalence of the vectorized path is a
    *tested* claim — see the parity tests and ``benchmarks/bench_engine.py``,
    which also uses this loop as the speedup baseline.
    """
    _check_arguments(n_resamples, confidence)
    rng = rng_from_seed(seed)
    values = np.array(
        [metric.value_or_nan(cm.resample(rng)) for _ in range(n_resamples)],
        dtype=float,
    )
    return _summarize(metric, cm, values, n_resamples, confidence)


def intervals_separated(a: BootstrapSummary, b: BootstrapSummary) -> bool:
    """Whether two bootstrap confidence intervals do not overlap.

    Non-overlap is the (conservative) separation criterion the
    discriminative-power experiment uses: a benchmark reader can tell the two
    tools apart on this metric without further statistics.
    """
    if any(
        math.isnan(value)
        for value in (a.ci_low, a.ci_high, b.ci_low, b.ci_high)
    ):
        return False
    return a.ci_low > b.ci_high or b.ci_low > a.ci_high


@dataclass(frozen=True, slots=True)
class SeparationResult:
    """Pairwise interval-separation census for one metric across tools.

    Pairs where either interval is NaN (the metric was undefined in every
    resample for that tool) are *counted and reported* instead of being
    silently folded into "not separated": an undefined interval says nothing
    about whether the tools differ, and hiding it understates both the
    metric's separation and its definedness problem.
    """

    n_tools: int
    n_separated: int
    n_defined_pairs: int
    n_undefined_pairs: int
    """Pairs skipped because at least one interval was NaN."""

    @property
    def n_pairs(self) -> int:
        """All tool pairs, defined or not."""
        return self.n_defined_pairs + self.n_undefined_pairs

    @property
    def fraction(self) -> float:
        """Separated fraction of *defined* pairs; NaN if no pair is defined."""
        if self.n_defined_pairs == 0:
            return float("nan")
        return self.n_separated / self.n_defined_pairs


def separation_detail(summaries: Sequence[BootstrapSummary]) -> SeparationResult:
    """Vectorized pairwise census over all ``n*(n-1)/2`` tool pairs."""
    n = len(summaries)
    if n < 2:
        raise ConfigurationError("separation needs at least two tools")
    lows = np.array([s.ci_low for s in summaries], dtype=float)
    highs = np.array([s.ci_high for s in summaries], dtype=float)
    defined = np.isfinite(lows) & np.isfinite(highs)
    i, j = np.triu_indices(n, k=1)
    pair_defined = defined[i] & defined[j]
    separated = (lows[i] > highs[j]) | (lows[j] > highs[i])
    return SeparationResult(
        n_tools=n,
        n_separated=int(np.count_nonzero(separated & pair_defined)),
        n_defined_pairs=int(np.count_nonzero(pair_defined)),
        n_undefined_pairs=int(np.count_nonzero(~pair_defined)),
    )


def separation_fraction(summaries: Sequence[BootstrapSummary]) -> float:
    """Fraction of tool pairs a metric separates (non-overlapping CIs).

    Computed over pairs whose intervals are both defined; NaN when no such
    pair exists.  Use :func:`separation_detail` to also see how many pairs
    were undefined.
    """
    return separation_detail(summaries).fraction
