"""Publish a scenario-appropriate benchmark report.

The end-to-end artifact the paper's guidance implies: run a campaign once,
then generate, per use scenario, the report a benchmark would publish — led
by the analytically selected metric, with bootstrap confidence intervals,
McNemar significance against the leader, projected field cost, and an
honest shortlist of statistically tied contenders.

Run:  python examples/publish_benchmark_report.py
"""

from __future__ import annotations

from repro import (
    WorkloadConfig,
    canonical_scenarios,
    generate_workload,
    reference_suite,
    run_campaign,
)
from repro.bench.report import build_scenario_report
from repro.workload.corpus import corpus_workload


def main() -> None:
    workload = generate_workload(
        WorkloadConfig(n_units=500, prevalence=0.15, seed=2015, name="publish")
    )
    campaign = run_campaign(reference_suite(seed=2015), workload)

    for scenario in canonical_scenarios():
        report = build_scenario_report(
            scenario, campaign, seed=2015, n_resamples=300
        )
        print(report.render())
        print()

    # The same machinery works on the hand-written corpus (14 sites —
    # the intervals will say so loudly).
    corpus = corpus_workload()
    corpus_campaign = run_campaign(reference_suite(seed=2015), corpus)
    report = build_scenario_report(
        canonical_scenarios()[0], corpus_campaign, seed=2015
    )
    print("--- corpus workload (tiny: watch the intervals widen) ---")
    print(report.render())


if __name__ == "__main__":
    main()
