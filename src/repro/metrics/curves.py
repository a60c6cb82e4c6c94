"""Threshold-free ranking metrics: ROC and precision-recall analysis.

Fixed-threshold metrics judge a tool's *report*; ranking metrics judge its
*confidence ordering* — how well the tool separates vulnerable from safe
sites before any cut-off is chosen.  AUC-ROC and average precision are the
"seldom used in benchmarking" candidates from this family: they sidestep the
threshold choice entirely, at the price of requiring tools to expose
confidences and readers to understand ranking semantics.

Scoring convention: every analysis site gets the confidence the tool
attached to it, and sites the tool did not flag score 0 (below every real
report) — exactly a campaign's per-site score array
(:attr:`~repro.bench.campaign.ToolResult.scores`).  Every function takes
that array and the aligned bool array of oracle verdicts
(:attr:`~repro.bench.campaign.CampaignResult.vulnerable`).  Ties move
between confusion cells together, which produces the standard tie-aware
ROC (diagonal segments) and matches the probabilistic interpretation of
AUC.  The curves accumulate integer counts per distinct score in a Python
loop, so every point is the same float division whatever the input size.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "roc_points",
    "auc_roc",
    "pr_points",
    "average_precision",
]


def _grouped_by_score(
    scores: np.ndarray, vulnerable: np.ndarray
) -> list[tuple[float, int, int]]:
    """(score, positives, negatives) per distinct score, descending."""
    values, inverse = np.unique(scores, return_inverse=True)
    sites = np.bincount(inverse, minlength=values.shape[0])
    positives = np.bincount(inverse[vulnerable], minlength=values.shape[0])
    return list(
        zip(
            values[::-1].tolist(),
            positives[::-1].tolist(),
            (sites - positives)[::-1].tolist(),
        )
    )


def _columns(
    scores: np.ndarray, vulnerable: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(scores, vulnerable, positives)`` as aligned arrays; raises when
    there is nothing to rank."""
    scores = np.asarray(scores, dtype=float)
    vulnerable = np.asarray(vulnerable, dtype=bool)
    if scores.shape != vulnerable.shape:
        raise ConfigurationError(
            f"{scores.shape[0]} scores for {vulnerable.shape[0]} sites"
        )
    if not scores.shape[0]:
        raise ConfigurationError("no sites to rank")
    return scores, vulnerable, int(np.count_nonzero(vulnerable))


def roc_points(scores: np.ndarray, vulnerable: np.ndarray) -> list[tuple[float, float]]:
    """The ROC curve as (FPR, TPR) points, from (0, 0) to (1, 1).

    One point per distinct confidence threshold; tied sites enter together,
    so ties appear as diagonal segments.
    """
    scores, vulnerable, total_positives = _columns(scores, vulnerable)
    total_negatives = scores.shape[0] - total_positives
    if total_positives == 0 or total_negatives == 0:
        raise ConfigurationError(
            "ROC analysis needs both vulnerable and safe sites"
        )
    points = [(0.0, 0.0)]
    tp = fp = 0
    for _, positives, negatives in _grouped_by_score(scores, vulnerable):
        tp += positives
        fp += negatives
        points.append((fp / total_negatives, tp / total_positives))
    return points


def auc_roc(scores: np.ndarray, vulnerable: np.ndarray) -> float:
    """Area under the ROC curve (trapezoidal, tie-aware).

    Equals the probability that a uniformly random vulnerable site is
    scored above a uniformly random safe one (ties counted half) — the
    Mann-Whitney interpretation, asserted by the test suite.
    """
    points = roc_points(scores, vulnerable)
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def pr_points(scores: np.ndarray, vulnerable: np.ndarray) -> list[tuple[float, float]]:
    """The precision-recall curve as (recall, precision) points.

    One point per distinct threshold, recall-ascending.  The implicit
    starting point at recall 0 is not emitted (its precision is undefined).
    """
    scores, vulnerable, total_positives = _columns(scores, vulnerable)
    if total_positives == 0:
        raise ConfigurationError("PR analysis needs at least one vulnerable site")
    points = []
    tp = fp = 0
    for _, positives, negatives in _grouped_by_score(scores, vulnerable):
        tp += positives
        fp += negatives
        points.append((tp / total_positives, tp / (tp + fp)))
    return points


def average_precision(scores: np.ndarray, vulnerable: np.ndarray) -> float:
    """Average precision: precision integrated over recall steps.

    The step-wise AP used by retrieval benchmarks: each threshold's
    precision is weighted by the recall it adds.
    """
    points = pr_points(scores, vulnerable)
    ap = 0.0
    previous_recall = 0.0
    for recall, precision in points:
        ap += (recall - previous_recall) * precision
        previous_recall = recall
    return ap
