"""Paired statistical tests for tools benchmarked on the same workload.

Two tools in a campaign see the *same* analysis sites, so comparing them
with independent-sample machinery throws information away.  The right
primitive is the paired 2x2 table of per-site outcomes: sites only one tool
classified correctly are the discordant pairs, and McNemar's test asks
whether their split could be chance.  Wilson intervals cover the per-tool
proportions themselves.

The paired table is array code over a campaign's per-site columns: each
tool's flags (:attr:`~repro.bench.campaign.ToolResult.flags`) are compared
with the oracle verdicts
(:attr:`~repro.bench.campaign.CampaignResult.vulnerable`) and the four
cells are counted from the two per-site correctness masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.bench.campaign import ToolResult

__all__ = [
    "PairedOutcomes",
    "paired_outcomes",
    "mcnemar_exact",
    "wilson_interval",
]


@dataclass(frozen=True, slots=True)
class PairedOutcomes:
    """Per-site agreement table of two tools against ground truth.

    ``both_correct``/``both_wrong`` are the concordant counts;
    ``only_first``/``only_second`` count sites exactly one tool classified
    correctly (the discordant pairs McNemar's test runs on).
    """

    first_tool: str
    second_tool: str
    both_correct: int
    only_first: int
    only_second: int
    both_wrong: int

    @property
    def n_sites(self) -> int:
        """Total paired observations."""
        return self.both_correct + self.only_first + self.only_second + self.both_wrong

    @property
    def discordant(self) -> int:
        """Number of sites where exactly one tool was right."""
        return self.only_first + self.only_second


def paired_outcomes(
    first: "ToolResult", second: "ToolResult", vulnerable: np.ndarray
) -> PairedOutcomes:
    """Build the paired agreement table for two tools of one campaign.

    ``vulnerable`` is the campaign's per-site oracle verdict, aligned
    with both results' scores.
    """
    n_sites = int(vulnerable.shape[0])
    if first.scores.shape != (n_sites,) or second.scores.shape != (n_sites,):
        raise ConfigurationError(
            f"results cover different site lists: "
            f"{first.tool_name!r} scores {first.scores.shape[0]} sites, "
            f"{second.tool_name!r} {second.scores.shape[0]}, "
            f"ground truth {n_sites}"
        )
    first_correct = first.flags == vulnerable
    second_correct = second.flags == vulnerable
    both_correct = int(np.count_nonzero(first_correct & second_correct))
    only_first = int(np.count_nonzero(first_correct)) - both_correct
    only_second = int(np.count_nonzero(second_correct)) - both_correct
    return PairedOutcomes(
        first_tool=first.tool_name,
        second_tool=second.tool_name,
        both_correct=both_correct,
        only_first=only_first,
        only_second=only_second,
        both_wrong=n_sites - both_correct - only_first - only_second,
    )


def mcnemar_exact(outcomes: PairedOutcomes) -> float:
    """Exact McNemar test p-value (two-sided binomial on discordant pairs).

    Null hypothesis: a discordant site is equally likely to favour either
    tool.  With zero discordant pairs the tools are per-site
    indistinguishable and the p-value is 1.0 by convention.
    """
    n = outcomes.discordant
    if n == 0:
        return 1.0
    k = min(outcomes.only_first, outcomes.only_second)
    # Two-sided exact binomial: 2 * P[X <= k] = 2 * sum(C(n, i), i <= k) / 2**n,
    # capped at 1.  The tail stays an exact integer and the one true division
    # rounds once, so the p-value is correctly rounded however large n grows
    # (a float tail overflows past 2**1024, and 0.5**n underflows to 0).
    tail = coefficient = 1
    for i in range(k):
        coefficient = coefficient * (n - i) // (i + 1)
        tail += coefficient
    # The symmetric middle term is counted twice when n is even and the
    # split is exactly even; capping handles it.
    return min(1.0, (2 * tail) / (1 << n))


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The interval benchmark reports should put around per-tool recall or
    precision: unlike the normal approximation it behaves at the extremes
    (recall 1.0 on 50 positives is not "exactly 1.0 forever").
    """
    if trials <= 0:
        raise ConfigurationError(f"trials={trials} must be positive")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes={successes} must be within [0, trials={trials}]"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence={confidence} must be in (0, 1)")
    z = _normal_quantile(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return (max(0.0, center - margin), min(1.0, center + margin))


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Absolute error below 1.2e-9 over the open unit interval — far tighter
    than any benchmarking use needs, and free of a scipy dependency.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile argument {p} must be in (0, 1)")
    # Coefficients for the central and tail regions.
    a = (
        -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
        1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
        6.680131188771972e01, -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
        -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > 1 - p_low:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (
        ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    ) * q / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
