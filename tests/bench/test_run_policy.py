"""The run policy: which executor runs a task, on both engine rails.

:func:`~repro.bench.engine.runner.check_policy` derives the executor.
Left unset it is ``process`` when ``jobs > 1`` or a ``timeout`` is set,
and ``thread`` (every task inline on the calling thread) otherwise; an
explicit ``thread`` with either setting is rejected.  The generated-case
property holds the rule and the cells together: under any accepted
policy, every shard's cells equal an inline ``evaluate_shard`` of the
same columns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.engine.runner import check_policy
from repro.bench.engine.scheduler import run_experiments
from repro.bench.engine.shards import run_sharded_campaign
from repro.bench.streaming import evaluate_shard
from repro.errors import ConfigurationError
from repro.tools.families import suite_for_ecosystem
from repro.workload.sharded import plan_shards

REJECTED = "requires executor='process'"

#: The two settings only worker processes can honour.
NEEDS_PROCESSES = [
    pytest.param({"jobs": 2}, id="jobs"),
    pytest.param({"timeout": 5.0}, id="timeout"),
]


def expected_executor(
    jobs: int, timeout: float | None, executor: str | None
) -> str | None:
    """The executor the rule picks for a policy (``None``: rejected)."""
    needs_processes = jobs > 1 or timeout is not None
    if executor is None:
        return "process" if needs_processes else "thread"
    if executor == "thread" and needs_processes:
        return None
    return executor


class TestCheckPolicy:
    @pytest.mark.parametrize(
        "jobs,timeout,resolved",
        [
            (1, None, "thread"),
            (2, None, "process"),
            (1, 5.0, "process"),
            (3, 5.0, "process"),
        ],
    )
    def test_unset_executor_resolves(self, jobs, timeout, resolved):
        assert check_policy(jobs=jobs, timeout=timeout) == resolved

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_explicit_executor_is_kept(self, executor):
        assert check_policy(executor=executor) == executor


class TestThreadRejectedOnBothRails:
    @pytest.mark.parametrize("policy", NEEDS_PROCESSES)
    def test_experiments(self, policy):
        with pytest.raises(ConfigurationError, match=REJECTED):
            run_experiments(["R1"], executor="thread", **policy)

    @pytest.mark.parametrize("policy", NEEDS_PROCESSES)
    def test_shards(self, policy):
        with pytest.raises(ConfigurationError, match=REJECTED):
            run_sharded_campaign(
                scale=20, shard_size=10, executor="thread", **policy
            )


class TestGeneratedPolicies:
    @settings(max_examples=25, deadline=None)
    @given(
        jobs=st.integers(1, 3),
        executor=st.sampled_from([None, "thread", "process"]),
        timeout=st.sampled_from([None, 30.0]),
        retries=st.integers(0, 1),
        scale=st.integers(1, 150),
        shard_size=st.integers(10, 80),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_policy_resolves_and_cells_match_inline_evaluation(
        self, jobs, executor, timeout, retries, scale, shard_size, seed
    ):
        def run():
            return run_sharded_campaign(
                scale=scale, shard_size=shard_size, seed=seed, jobs=jobs,
                executor=executor, timeout=timeout, retries=retries,
            )

        resolved = expected_executor(jobs, timeout, executor)
        if resolved is None:
            with pytest.raises(ConfigurationError, match=REJECTED):
                run()
            return
        campaign = run()
        assert campaign.ok
        assert campaign.manifest.executor == resolved
        plan = plan_shards(scale=scale, shard_size=shard_size, seed=seed)
        tools = suite_for_ecosystem(seed=seed)
        records = campaign.manifest.records
        assert [record.index for record in records] == list(range(plan.n_shards))
        for record in records:
            assert record.cells == evaluate_shard(
                tools, plan.columns(record.index), record.index
            )
