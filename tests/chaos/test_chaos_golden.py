"""Full-machine chaos documents, pinned byte for byte.

Each case replays one sampled timeline on the 9,472-node
``FRONTIER_SPEC`` and pins the sha256 of the canonical JSON of
``run_chaos(...).to_doc()``.  The healed cases use the perfbench
``chaos-heal-full`` configuration (60x FIT rates, 12 h, a 0.5% spare
pool, adaptive checkpoints, pack replacement, job fractions
0.25/0.25/0.5); the last case is the plain ``chaos --seed 3`` run.
Seeds 1535770042 and 1600552482 place a pending job, mid-event, on a
victim of that event that ``fail_node`` has not reached yet, so a
replay that reorders an event's failures or repairs moves their pins.

A change meant to keep chaos outputs must leave every pin unchanged;
never re-record them to make such a change pass.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.chaos import ChaosConfig, run_chaos
from repro.core.scenario import FRONTIER_SPEC, ResiliencePolicySpec

HEAL_SPEC = replace(
    FRONTIER_SPEC,
    degradation=replace(FRONTIER_SPEC.degradation, failure_scale=60.0),
    resilience=ResiliencePolicySpec(spare_fraction=0.005,
                                    adaptive_checkpointing=True,
                                    replace_policy="pack"))

GOLDEN = {
    "heal-seed0":
        "5b7390da653303cccfedbb66229a7430f595b1b5efa0f41f00ebc07c3313b077",
    "heal-seed1535770042":
        "a6a0e9e86dd177806913292303354dda9a354734b547dfd80e3e581e11958866",
    "heal-seed1600552482":
        "d0233a568f2586d3e9e3ce1295010a4e4e1efd742882a4807246c1c581e11edf",
    "plain-seed3":
        "440aca538e2dbab342fba3e62f206c81ca37270c4acd3c4a2f5910897db15293",
}


def case(name):
    if name == "plain-seed3":
        return FRONTIER_SPEC, ChaosConfig(seed=3)
    seed = int(name.removeprefix("heal-seed"))
    return HEAL_SPEC, ChaosConfig(horizon_h=12.0, seed=seed,
                                  measure_fabric=False,
                                  job_fractions=(0.25, 0.25, 0.5))


def doc_digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_machine_chaos_document_is_pinned(name):
    spec, config = case(name)
    doc = run_chaos(spec, config).to_doc()
    assert doc["n_events"] > 0
    assert doc_digest(doc) == GOLDEN[name]
