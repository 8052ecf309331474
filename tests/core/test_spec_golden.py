"""Golden pins for spec serialization and every content-hash id.

Spec files, sweep task ids, chaos/congest run ids, the congest ensemble
key and the congest scenario seed all hash ``MachineSpec.to_dict()``.
Optional knobs serialize only off their defaults, so that adding a knob
never renames an existing artifact.  The values below were recorded
before the off-default rule was consolidated into one helper; any
change to them orphans every artifact on disk.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.chaos import ChaosConfig, chaos_run_id
from repro.core.scenario import (CongestionSpec, MachineSpec,
                                 ResiliencePolicySpec, frontier_spec)
from repro.fabric.timeflow import CongestConfig, congest_run_id
from repro.sweep.plan import SweepTask, task_hash
from repro.sweep.probes import _congest_seed, congest_ensemble_key

FRONTIER = frontier_spec()


def _degraded(**knobs) -> MachineSpec:
    return replace(FRONTIER, degradation=replace(FRONTIER.degradation,
                                                 **knobs))


def _congested(**knobs) -> MachineSpec:
    return replace(FRONTIER, congestion=replace(FRONTIER.congestion,
                                                **knobs))


def _healing(**knobs) -> MachineSpec:
    return replace(FRONTIER, resilience=replace(FRONTIER.resilience,
                                                **knobs))


SPECS = {
    "frontier": FRONTIER,
    "family": replace(FRONTIER, family="aurora"),
    "failure_scale": _degraded(failure_scale=60.0),
    "fixed_checkpoint": _degraded(checkpoint_policy="fixed",
                                  checkpoint_interval_s=3600.0),
    "ecn_k": _congested(ecn_k=10),
    "incast_fanin": _congested(incast_fanin=4),
    "burst_duty": _congested(burst_duty=0.5),
    "spare_fraction": _healing(spare_fraction=0.005),
    "adaptive": _healing(adaptive_checkpointing=True),
    "combined": replace(
        FRONTIER, family="aurora",
        degradation=replace(FRONTIER.degradation, failure_scale=60.0,
                            checkpoint_policy="fixed",
                            checkpoint_interval_s=3600.0),
        congestion=CongestionSpec(ecn_k=10, burst_duty=0.5, incast_fanin=4),
        resilience=ResiliencePolicySpec(spare_fraction=0.005,
                                        adaptive_checkpointing=True)),
}

#: name -> (sha256(to_json), mpigraph task id, chaos run id, congest run
#: id, congest ensemble key, congest scenario seed).
PINS = {
    "frontier": (
        "11f5ea5726c6713e62208674846a22571a8cb589c9050d4043e95622ca371f3a",
        "a64fb20331f0b191", "f15b5e18a7c77fdf",
        "d6bcf23f9d649355", "b2d6f68fb5f03b14",
        6443379240430214538),
    "family": (
        "7de4a68472842b57965e0719b001328064b35e6d78b802bae379aa985d3e7a1e",
        "ff3851a65b83687a", "617348c0ab27a1e5",
        "b73a4f3d24c10cec", "a17e66bed98b5048",
        5818425728525772836),
    "failure_scale": (
        "0590e90a99ed227926b6d21b2bb5a06d97bcc1439bd02e6935c8c32cba2b29f4",
        "03d6530168da6243", "b43bacb65921834c",
        "a2c7d78c5299c918", "0a7d5891178bad6a",
        377928846328321717),
    "fixed_checkpoint": (
        "60b09f1e556cc9620ea20931ddc67cbf6d203d80778de77fa4f3a139dd48dc37",
        "73187c4852d5e728", "a14f52a8763adf46",
        "ed63620471027e6f", "70ef6528ff59e86b",
        4068917139219477557),
    "ecn_k": (
        "9eb51f3bfe6a41710138f2aa8a6e091f909f53576761a45ba85528891df11fb7",
        "ad064f55615c0d57", "ac6d53dc0dd94128",
        "ef08a0ce28a5121a", "b2d6f68fb5f03b14",
        6443379240430214538),
    "incast_fanin": (
        "2619a0a2fef116aed4b3246e880066a2b5639a46db72eacc1bb695ed390e6eae",
        "19c7d0a1ae59abe4", "ab8223be71b332a6",
        "5dfdac352cce86ad", "ce4ec592f08aab11",
        7433018327444051336),
    "burst_duty": (
        "f90a6ab0115bf75447b19f6ff0095b71a219ec37f5db543b6b282e0187e7a093",
        "019a19edb32d9fb8", "002641a4c3d35802",
        "d7e01c6220a21baa", "a0cadf81ea86abdd",
        5793159370221245934),
    "spare_fraction": (
        "6982decb1cde9caa73cfbfa92f8b33457875c59dba7c4defa8463ad380bcad38",
        "a26d18e0b2f377ed", "22113632fe28660b",
        "b75fc669d31b154f", "9c2bba8a21461a79",
        5626646598170905916),
    "adaptive": (
        "3eb963fbe94b9fa33eb36303a4b95fb8ab771ed251714ea036031081471af4f6",
        "0389e7719dc10b53", "ebe3fb74ceb285db",
        "0159b0f2a6d74abd", "f49f83622ffec7b1",
        8813475962143335384),
    "combined": (
        "17c078835e123e7b79d319aab33f4825cb48addf2657cd82d58d0213ccd37e7b",
        "f916dd1b52e53c11", "a4e8198a86a1f55c",
        "63a896f0feaff2d8", "0b06bd053b75d7d8",
        397265107223768044),
}


@pytest.mark.parametrize("name", sorted(SPECS))
class TestGoldenPins:
    def test_spec_json_hash(self, name):
        text = SPECS[name].to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == PINS[name][0]

    def test_spec_json_round_trips(self, name):
        assert MachineSpec.from_json(SPECS[name].to_json()) == SPECS[name]

    def test_task_id(self, name):
        assert task_hash(SPECS[name], "mpigraph", 0) == PINS[name][1]

    def test_chaos_run_id(self, name):
        assert chaos_run_id(SPECS[name], ChaosConfig()) == PINS[name][2]

    def test_congest_run_id(self, name):
        assert congest_run_id(SPECS[name], CongestConfig()) == PINS[name][3]

    def test_congest_ensemble_key_and_seed(self, name):
        task = SweepTask(spec=SPECS[name], probe="congest", seed=0)
        assert congest_ensemble_key(task) == PINS[name][4]
        assert _congest_seed(SPECS[name]) == PINS[name][5]


def test_default_frontier_task_id():
    assert task_hash(frontier_spec(), "mpigraph", 0) == "a64fb20331f0b191"


def test_adaptive_prior_scale_run_id():
    config = ChaosConfig(adaptive_prior_scale=4)
    assert chaos_run_id(FRONTIER, config) == "9bdb96de0a2e958a"
