"""Bench R3 — regenerate the reference benchmarking campaign raw results.

Paper analogue: the campaign table (tool x TP/FP/FN/TN).  Shape claims: the
eight-tool suite spans the operating space the original campaigns reported —
a flag-everything scanner, precise-but-incomplete analyzers, quiet dynamic
testers.
"""

from __future__ import annotations

from repro.bench.experiments import r3_campaign
from repro.metrics import definitions as d


def test_bench_r3_campaign(benchmark, save_result):
    result = benchmark(r3_campaign.run)
    save_result("R3", result.render())
    print()
    print(result.render())

    campaign = result.data["campaign"]
    assert len(campaign.results) == 8
    assert 0.10 < campaign.prevalence < 0.20

    grep = campaign.confusion_for("SA-Grep")
    assert d.RECALL.compute(grep) == 1.0  # syntactic scanner misses nothing
    assert d.PRECISION.compute(grep) < 0.5  # and drowns in false alarms

    deep = campaign.confusion_for("SA-Deep")
    assert d.PRECISION.compute(deep) > 0.9  # taint analysis is precise
    assert d.RECALL.compute(deep) < 1.0  # but the depth budget loses flows

    probe = campaign.confusion_for("PT-Probe")
    assert d.RECALL.compute(probe) < 0.6  # black-box testing misses a lot
