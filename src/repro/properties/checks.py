"""Programmatic good-metric property checks.

Each check scores a metric in [0, 1] from evidence computed on the shared
:class:`~repro.properties.base.AssessmentContext` grid.  The scoring formulas
are simple and documented inline; their purpose is to *order* metrics by how
well they exhibit a characteristic, not to assign absolute grades.
"""

from __future__ import annotations

import math

import numpy as np

from repro.metrics.base import Metric
from repro.metrics.confusion import ConfusionMatrix
from repro.properties.base import (
    AssessmentContext,
    MetricProperty,
    OperatingPoint,
    PropertyAssessment,
)
from repro.stats.bootstrap import bootstrap_metric_batch

__all__ = [
    "Boundedness",
    "Definedness",
    "PrevalenceInvariance",
    "RewardsDetection",
    "RewardsSilence",
    "ChanceCorrection",
    "Discriminance",
    "Repeatability",
]


def _scale_for(metric: Metric, context: AssessmentContext) -> float:
    """A normalization scale for dispersion measures.

    The declared range when finite; otherwise the 90th percentile of the
    metric's absolute values over the grid (robust against the explosions of
    unbounded metrics such as DOR).
    """
    info = metric.info
    if math.isfinite(info.lower_bound) and math.isfinite(info.upper_bound):
        return info.upper_bound - info.lower_bound
    values = [
        abs(v)
        for cm in context.matrices()
        if math.isfinite(v := metric.value_or_nan(cm))
    ]
    if not values:
        return 1.0
    return max(float(np.quantile(values, 0.9)), 1e-9)


class Boundedness(MetricProperty):
    """Values live in a fixed, finite, known interval.

    A benchmark reader must be able to tell whether 0.73 is good without
    knowing the workload; unbounded metrics (DOR, likelihood ratios) fail
    outright, and any sampled violation of the declared range scores zero.
    """

    name = "bounded"
    description = "values confined to a known finite interval"

    def assess(self, metric: Metric, context: AssessmentContext) -> PropertyAssessment:
        """Score ``metric`` on this property (see the class docstring)."""
        info = metric.info
        if not (math.isfinite(info.lower_bound) and math.isfinite(info.upper_bound)):
            return PropertyAssessment(
                property_name=self.name,
                metric_symbol=metric.symbol,
                score=0.0,
                rationale="declared range is unbounded",
            )
        tolerance = 1e-9
        violations = 0
        total = 0
        for cm in context.matrices() + context.degenerate_matrices():
            value = metric.value_or_nan(cm)
            if not math.isfinite(value):
                continue
            total += 1
            if value < info.lower_bound - tolerance or value > info.upper_bound + tolerance:
                violations += 1
        score = 1.0 if violations == 0 else 0.0
        return PropertyAssessment(
            property_name=self.name,
            metric_symbol=metric.symbol,
            score=score,
            rationale=(
                "all sampled values inside the declared range"
                if violations == 0
                else f"{violations}/{total} sampled values escaped the declared range"
            ),
            evidence={"violations": float(violations), "sampled": float(total)},
        )


class Definedness(MetricProperty):
    """Has a value for (nearly) every benchmark outcome.

    Silent tools, flag-everything tools and skewed workloads are routine in
    vulnerability detection campaigns; a metric that is undefined there
    cannot anchor a benchmark report.  Degenerate outcomes are weighted as
    heavily as the whole regular grid because they are where the problem
    actually bites.
    """

    name = "defined"
    description = "defined for degenerate benchmark outcomes"

    def assess(self, metric: Metric, context: AssessmentContext) -> PropertyAssessment:
        """Score ``metric`` on this property (see the class docstring)."""
        regular = context.matrices()
        degenerate = context.degenerate_matrices()
        regular_defined = sum(1 for cm in regular if metric.is_defined(cm)) / len(regular)
        degenerate_defined = sum(1 for cm in degenerate if metric.is_defined(cm)) / len(
            degenerate
        )
        score = 0.5 * regular_defined + 0.5 * degenerate_defined
        return PropertyAssessment(
            property_name=self.name,
            metric_symbol=metric.symbol,
            score=score,
            rationale=(
                f"defined on {regular_defined:.0%} of the grid and "
                f"{degenerate_defined:.0%} of degenerate outcomes"
            ),
            evidence={
                "regular_defined": regular_defined,
                "degenerate_defined": degenerate_defined,
            },
        )


class PrevalenceInvariance(MetricProperty):
    """Measures the tool, not the workload mix.

    A tool's intrinsic quality is its (TPR, FPR) operating point; when only
    the workload's vulnerability rate changes, a faithful tool metric should
    not move.  Score is one minus the mean prevalence-induced swing,
    normalized by the metric's scale.
    """

    name = "prevalence-invariant"
    description = "insensitive to the workload's vulnerability rate"

    def assess(self, metric: Metric, context: AssessmentContext) -> PropertyAssessment:
        """Score ``metric`` on this property (see the class docstring)."""
        scale = _scale_for(metric, context)
        swings = []
        for point in context.operating_points:
            values = [
                v
                for prevalence in context.prevalences
                if math.isfinite(
                    v := metric.value_or_nan(point.matrix(prevalence, context.total_sites))
                )
            ]
            if len(values) >= 2:
                swings.append((max(values) - min(values)) / scale)
        mean_swing = float(np.mean(swings)) if swings else 1.0
        score = max(0.0, 1.0 - mean_swing)
        return PropertyAssessment(
            property_name=self.name,
            metric_symbol=metric.symbol,
            score=score,
            rationale=f"mean prevalence-induced swing is {mean_swing:.2f} of the metric scale",
            evidence={"mean_swing": mean_swing, "scale": scale},
        )


class _ResponsivenessShare(MetricProperty):
    """Shared machinery for the two orientation properties.

    On campaign-realistic matrices, flip one site from miss to detection
    (FN -> TP) and, separately, one site from false alarm to silence
    (FP -> TN), and measure the metric's mean goodness response to each.
    The *share* of total responsiveness on one side is that side's score:
    recall puts 100% of its responsiveness on the detection side, specificity
    100% on the silence side, F0.5 leans ~2:1 toward exactness, and so on.

    Negative mean response to an improving move (a pathological metric)
    clamps that side to zero before the shares are formed.
    """

    #: Which share this property reports: "detection" or "silence".
    side: str

    def _mean_responses(
        self, metric: Metric, context: AssessmentContext
    ) -> tuple[float, float]:
        """Mean goodness delta for (FN->TP, FP->TN) moves, clamped at 0."""
        rng = context.rng("responsiveness")
        detection_deltas: list[float] = []
        silence_deltas: list[float] = []
        total = 400.0
        for _ in range(250):
            prevalence = float(rng.uniform(0.05, 0.3))
            tpr = float(rng.uniform(0.2, 0.95))
            fpr = float(rng.uniform(0.005, 0.4))
            positives = prevalence * total
            cm = _integerize(
                ConfusionMatrix.from_rates(tpr, fpr, positives, total - positives)
            )
            before = metric.goodness(cm)
            if not math.isfinite(before):
                continue
            if cm.fn >= 1:
                after = metric.goodness(
                    ConfusionMatrix(cm.tp + 1, cm.fp, cm.fn - 1, cm.tn)
                )
                if math.isfinite(after):
                    detection_deltas.append(after - before)
            if cm.fp >= 1:
                after = metric.goodness(
                    ConfusionMatrix(cm.tp, cm.fp - 1, cm.fn, cm.tn + 1)
                )
                if math.isfinite(after):
                    silence_deltas.append(after - before)
        detection = max(0.0, float(np.mean(detection_deltas))) if detection_deltas else 0.0
        silence = max(0.0, float(np.mean(silence_deltas))) if silence_deltas else 0.0
        return detection, silence

    def assess(self, metric: Metric, context: AssessmentContext) -> PropertyAssessment:
        """Score ``metric`` on this property (see the class docstring)."""
        detection, silence = self._mean_responses(metric, context)
        total = detection + silence
        if total == 0:
            return PropertyAssessment(
                property_name=self.name,
                metric_symbol=metric.symbol,
                score=0.0,
                rationale="metric does not respond to either improving move",
            )
        share = detection / total if self.side == "detection" else silence / total
        return PropertyAssessment(
            property_name=self.name,
            metric_symbol=metric.symbol,
            score=share,
            rationale=(
                f"{share:.0%} of the metric's error-responsiveness is on the "
                f"{self.side} side"
            ),
            evidence={"detection_response": detection, "silence_response": silence},
        )


class RewardsDetection(_ResponsivenessShare):
    """How much of the metric's responsiveness rewards finding vulnerabilities.

    The property a "critical system" stakeholder weighs highest: a metric
    adequate there must move, hard, when a miss becomes a detection.
    """

    name = "rewards detection"
    description = "share of responsiveness on the miss/detection side"
    side = "detection"


class RewardsSilence(_ResponsivenessShare):
    """How much of the metric's responsiveness rewards suppressing alarms.

    The dual property, weighed highest by triage-bound teams drowning in
    false positives.
    """

    name = "rewards silence"
    description = "share of responsiveness on the false-alarm side"
    side = "silence"


class ChanceCorrection(MetricProperty):
    """Uninformed tools all look alike.

    A tool that flags sites at random (TPR == FPR) conveys no information,
    whatever its flagging rate.  A chance-corrected metric gives all such
    tools the same value; metrics that reward aggressive or silent guessing
    (accuracy at low prevalence being the notorious case) score low.
    """

    name = "chance-corrected"
    description = "scores all uninformed tools identically"

    def assess(self, metric: Metric, context: AssessmentContext) -> PropertyAssessment:
        """Score ``metric`` on this property (see the class docstring)."""
        scale = _scale_for(metric, context)
        values = []
        for rate in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            point = OperatingPoint(tpr=rate, fpr=rate)
            for prevalence in context.prevalences:
                value = metric.value_or_nan(point.matrix(prevalence, context.total_sites))
                if math.isfinite(value):
                    values.append(value)
        if len(values) < 2:
            return PropertyAssessment(
                property_name=self.name,
                metric_symbol=metric.symbol,
                score=0.0,
                rationale="metric undefined for uninformed tools",
            )
        swing = (max(values) - min(values)) / scale
        score = max(0.0, 1.0 - swing)
        return PropertyAssessment(
            property_name=self.name,
            metric_symbol=metric.symbol,
            score=score,
            rationale=f"uninformed tools span {swing:.2f} of the metric scale",
            evidence={"swing": swing, "n_values": float(len(values))},
        )


class Discriminance(MetricProperty):
    """Separates tools of genuinely different quality on a finite workload.

    Each pair confronts a tool with a strictly better one (TPR up 0.10, FPR
    down), materialized at a realistic prevalence and workload size.  The
    separation strength is the z-score of the metric difference under its
    bootstrap sampling noise; the score averages ``min(1, z / 3)`` over the
    pairs, so a metric whose difference sits three standard errors clear of
    noise on every pair scores 1.0.
    """

    name = "discriminating"
    description = "separates close tools under sampling noise"

    def assess(self, metric: Metric, context: AssessmentContext) -> PropertyAssessment:
        """Score ``metric`` on this property (see the class docstring)."""
        prevalence = 0.15
        pairs = [
            (
                OperatingPoint(tpr, fpr),
                OperatingPoint(tpr + 0.10, max(fpr - 0.05, fpr * 0.5)),
            )
            for fpr in (0.05, 0.2)
            for tpr in (0.5, 0.6, 0.7, 0.8)
        ]
        matrices, seeds = [], []
        for index, pair in enumerate(pairs):
            for role, point in zip(("weak", "strong"), pair):
                matrices.append(
                    _integerize(point.matrix(prevalence, context.total_sites))
                )
                seeds.append(context.stream_seed(f"disc:{index}:{role}"))
        summaries = bootstrap_metric_batch(
            metric, matrices, seeds, n_resamples=context.n_resamples
        )
        strengths = []
        for summary_weak, summary_strong in zip(summaries[::2], summaries[1::2]):
            noise = math.hypot(summary_weak.std, summary_strong.std)
            if (
                math.isfinite(summary_weak.mean)
                and math.isfinite(summary_strong.mean)
                and noise > 0
            ):
                z = abs(summary_strong.mean - summary_weak.mean) / noise
                strengths.append(min(1.0, z / 3.0))
            else:
                strengths.append(0.0)
        score = float(np.mean(strengths))
        return PropertyAssessment(
            property_name=self.name,
            metric_symbol=metric.symbol,
            score=score,
            rationale=(
                f"mean separation strength {score:.2f} over {len(pairs)} "
                "better-vs-worse tool pairs"
            ),
            evidence={"pairs": float(len(pairs)), "mean_strength": score},
        )


class Repeatability(MetricProperty):
    """Stable across re-runs of the benchmark on same-population workloads.

    Scored from the bootstrap standard deviation at representative operating
    points, normalized by the metric scale; the factor of 5 maps a
    typical-for-ratio-metrics normalized std of ~0.02 to a score of ~0.9.
    """

    name = "repeatable"
    description = "low variance across same-population workloads"

    def assess(self, metric: Metric, context: AssessmentContext) -> PropertyAssessment:
        """Score ``metric`` on this property (see the class docstring)."""
        scale = _scale_for(metric, context)
        point = OperatingPoint(tpr=0.7, fpr=0.1)
        matrices, seeds = [], []
        for index, prevalence in enumerate((0.05, 0.15, 0.35)):
            matrices.append(_integerize(point.matrix(prevalence, context.total_sites)))
            seeds.append(context.stream_seed(f"repeat:{index}"))
        summaries = bootstrap_metric_batch(
            metric, matrices, seeds, n_resamples=context.n_resamples
        )
        normalized_stds = [
            summary.std / scale for summary in summaries if math.isfinite(summary.std)
        ]
        if not normalized_stds:
            return PropertyAssessment(
                property_name=self.name,
                metric_symbol=metric.symbol,
                score=0.0,
                rationale="metric undefined under resampling",
            )
        mean_std = float(np.mean(normalized_stds))
        score = max(0.0, 1.0 - 5.0 * mean_std)
        return PropertyAssessment(
            property_name=self.name,
            metric_symbol=metric.symbol,
            score=score,
            rationale=f"mean normalized bootstrap std is {mean_std:.3f}",
            evidence={"mean_normalized_std": mean_std},
        )


def _integerize(cm: ConfusionMatrix) -> ConfusionMatrix:
    """Round an expected matrix to integer counts for resampling."""
    return ConfusionMatrix(
        tp=round(cm.tp), fp=round(cm.fp), fn=round(cm.fn), tn=round(cm.tn)
    )
