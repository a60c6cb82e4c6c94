"""The benchmark as a regression detector.

A security team patches a vulnerability (or accidentally drops a sanitizer)
and wants the next campaign to say so with statistical confidence.  This
example uses the mutation operators to build fix and regression variants of
a workload, re-runs a tool, and checks — with McNemar's paired test —
whether the campaign can actually tell the variants apart, at two workload
sizes.  The punchline is the paper's repeatability concern in action: the
same change that is invisible at 300 sites is significant at 3000.

The same discipline applies to the benchmark infrastructure itself: pass
two ``--metrics-out`` dumps from ``python -m repro run`` and the example
diffs them instead, flagging cache-hit-rate drops and wall-time growth
between the runs.

Run:  python examples/regression_tracking.py
      python examples/regression_tracking.py before.json after.json
"""

from __future__ import annotations

import sys

from repro import WorkloadConfig, generate_workload
from repro.bench.campaign import run_campaign, score_report
from repro.metrics import definitions as d
from repro.reporting import format_table
from repro.stats import mcnemar_exact, paired_outcomes
from repro.tools import DynamicInjector, TaintAnalyzer
from repro.workload import break_site, fix_site


def analyze_change(n_units: int, n_mutations: int, seed: int) -> list[object]:
    """Fix some vulnerabilities, break some decoys, measure the delta."""
    workload = generate_workload(
        WorkloadConfig(
            n_units=n_units,
            prevalence=0.15,
            decoy_fraction=0.6,
            seed=seed,
            name=f"release-{n_units}",
        )
    )
    tool = TaintAnalyzer(name="scanner", max_chain_depth=4)

    # The "next release": fix the first k vulnerabilities, regress k decoys.
    mutated = workload
    fixed = 0
    for site in sorted(workload.truth.vulnerable):
        if fixed >= n_mutations:
            break
        mutated = fix_site(mutated, sorted(mutated.truth.vulnerable)[0])
        fixed += 1
    broken = 0
    for site in sorted(mutated.truth.sites):
        if broken >= n_mutations:
            break
        profile = mutated.profiles.get(site)
        if profile and not profile.vulnerable and profile.sanitizer_present:
            mutated = break_site(mutated, site)
            broken += 1

    before_report = tool.analyze(workload)
    before = score_report(before_report, workload.truth)
    after_report = tool.analyze(mutated)
    after = score_report(after_report, mutated.truth)

    # Can this campaign tell two *genuinely close* tools apart?  Compare
    # two dynamic testers whose payload dictionaries differ modestly —
    # the kind of gap a release-to-release tool upgrade produces.
    broad = DynamicInjector(name="broad", payload_coverage=0.9, seed=1)
    narrow = DynamicInjector(name="narrow", payload_coverage=0.75, seed=2)
    testers = run_campaign([broad, narrow], mutated)
    table = paired_outcomes(
        testers.result_for("broad"),
        testers.result_for("narrow"),
        testers.vulnerable,
    )
    p_value = mcnemar_exact(table)
    return [
        n_units,
        mutated.truth.n_sites,
        d.RECALL.value_or_nan(before),
        d.RECALL.value_or_nan(after),
        d.F1.value_or_nan(before),
        d.F1.value_or_nan(after),
        p_value,
    ]


def diff_metrics_dumps(before_path: str, after_path: str) -> None:
    """Diff two ``--metrics-out`` dumps and print the regression report."""
    from repro.obs import diff_dumps
    from repro.persist import load_json

    diff = diff_dumps(load_json(before_path), load_json(after_path))
    print(f"Engine metrics diff: {before_path} -> {after_path}")
    print()
    print(diff.render())


def main() -> None:
    if len(sys.argv) == 3:
        diff_metrics_dumps(sys.argv[1], sys.argv[2])
        return
    rows = [
        analyze_change(n_units=300, n_mutations=10, seed=3),
        analyze_change(n_units=3000, n_mutations=10, seed=3),
    ]
    print(
        format_table(
            headers=[
                "units",
                "sites",
                "recall before",
                "recall after",
                "F1 before",
                "F1 after",
                "broad-vs-narrow tester p (McNemar)",
            ],
            rows=rows,
            title="Release-to-release campaign deltas (10 fixes + 10 regressions)",
        )
    )
    print()
    print(
        "Read the last column: on the small campaign the two testers are\n"
        "not statistically distinguishable (p > 0.05); on the large one the\n"
        "same comparison is decisive. Size the workload for the deltas you\n"
        "need to detect."
    )


if __name__ == "__main__":
    main()
