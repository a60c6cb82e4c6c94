"""The committed reports in ``results/`` reproduce from the code.

R3–R7 and R12–R15 at their default parameters, run through one shared
:class:`~repro.bench.engine.context.RunContext` (so the reference campaign
is computed once, as in a suite run), must render byte-identical to
``results/r{n}.txt`` as the benchmarks save them: the rendered report plus
a trailing newline.  The reports print AUC, average precision, p-values
and per-class metrics to several digits, so a one-ulp drift in any tool
confidence, or a reordered sum, fails here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.engine.context import RunContext

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

EXPERIMENTS = ("R3", "R4", "R5", "R6", "R7", "R12", "R13", "R14", "R15")


@pytest.fixture(scope="module")
def context() -> RunContext:
    return RunContext()


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_committed_report_reproduces(context, experiment_id):
    committed = RESULTS_DIR / f"{experiment_id.lower()}.txt"
    rendered = context.experiment(experiment_id).render()
    assert rendered + "\n" == committed.read_text(encoding="utf-8")
