"""Chaos runs are unchanged when the per-node reference scheduler drives them.

``run_chaos`` replays faults, repairs and heals through the scheduler;
with :class:`tests.scheduler.slurm_oracle.ReferenceScheduler` patched in
for :class:`~repro.scheduler.slurm.SlurmScheduler`, every run below must
produce the same document (jobs, series, heal report, availability).
"""

from dataclasses import replace

import pytest

from repro.chaos import ChaosConfig, run_chaos
from repro.core.scenario import ResiliencePolicySpec, frontier_spec
from repro.scheduler import slurm

from ..scheduler.slurm_oracle import ReferenceScheduler

#: 256 nodes in 16 groups; two nodes statically drained.
SPEC = frontier_spec().scaled(16, 8, 8)
SPEC = replace(SPEC, degradation=replace(
    SPEC.degradation, failure_scale=150.0, failed_nodes=(3, 130)))


def arms():
    yield "requeue", SPEC
    for policy in ("pack", "spread", "any"):
        yield f"heal-{policy}", replace(SPEC, resilience=ResiliencePolicySpec(
            spare_fraction=0.04, adaptive_checkpointing=True,
            replace_policy=policy))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("arm", [name for name, _ in arms()])
def test_chaos_document_matches_reference_scheduler(monkeypatch, arm, seed):
    spec = dict(arms())[arm]
    config = ChaosConfig(horizon_h=48.0, seed=seed, measure_fabric=seed == 0,
                         job_fractions=(0.25, 0.25, 0.5))
    fast = run_chaos(spec, config).to_doc()
    monkeypatch.setattr(slurm, "SlurmScheduler", ReferenceScheduler)
    reference = run_chaos(spec, config).to_doc()
    assert fast["n_events"] > 0
    assert fast == reference
