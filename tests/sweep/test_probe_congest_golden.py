"""Golden values of the ``congest`` sweep probe.

``tests/fixtures/probe-congest.json`` holds ``probe_congest`` values
recorded for two small specs: the canonical Frontier spec (which the
probe reduces to its 8x4x4 validation geometry) and a 6x4x4 spec with
off-default ``ecn_k``, ``burst_duty`` and ``incast_fanin``.  The probe
seeds its scenario from the ECN-neutral spec content, so its values are
a pure function of the spec; any change to how it builds the network,
the incast or the engine config moves them.  The batched serve path
(:func:`evaluate_congest_ensemble`) must give the same values.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.scenario import CongestionSpec, frontier_spec
from repro.sweep.plan import SweepTask
from repro.sweep.probes import evaluate_congest_ensemble, probe_congest

GOLDEN = json.loads((Path(__file__).parents[1] / "fixtures"
                     / "probe-congest.json").read_text())

SPECS = {
    "frontier-default": frontier_spec(),
    "scaled-6x4x4-duty-fanin": replace(
        frontier_spec().scaled(6, 4, 4),
        congestion=CongestionSpec(ecn_k=10, burst_duty=0.5, incast_fanin=4)),
}


@pytest.mark.parametrize("name", sorted(SPECS))
class TestProbeCongestGolden:
    def test_spec_is_the_recorded_one(self, name):
        assert SPECS[name].to_dict() == GOLDEN[name]["spec"]

    def test_probe_values(self, name):
        # The probe ignores ``rng``: its scenario seeds from the spec.
        values = probe_congest(SPECS[name], np.random.default_rng(123))
        assert values == GOLDEN[name]["values"]

    def test_ensemble_values(self, name):
        task = SweepTask(spec=SPECS[name], probe="congest", seed=0)
        doc = evaluate_congest_ensemble([task])[task.task_id]
        assert doc["values"] == GOLDEN[name]["values"]
