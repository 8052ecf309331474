"""Golden digests of full-scale max-min solves.

``tests/fixtures/maxmin-phases.json`` holds, per solve, a sha256 of the
rates, the bottleneck links and the link utilisation (dtype, shape and
bytes) and the number of freeze events (``fabric.maxmin.iterations``)
of:

* four full-Frontier mpiGraph shift phases,
  ``flow_bandwidths(shift_pairs(k))`` on a network built with router
  seed 2023, one fresh network per phase;
* the one stacked block-diagonal solve of ``phase_bandwidths`` for a
  default-offset mpiGraph run on a 16x8x16 dragonfly (same seed), the
  solve :func:`~repro.microbench.mpigraph.simulate_mpigraph` makes.

Any change to the solver's float operations, its tie-breaking or its
event order moves a digest here.  Regenerate (only when the allocation
is meant to change) with
``PYTHONPATH=src python -m tests.fabric.test_maxmin_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro import obs
from repro.core.scenario import FRONTIER_SPEC
from repro.fabric import network
from repro.microbench.mpigraph import simulate_mpigraph

FIXTURE = Path(__file__).parents[1] / "fixtures" / "maxmin-phases.json"

SEED = 2023
SHIFTS = (512, 31, 5068, 32243)
STACK = (16, 8, 16)


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _counting(run):
    """``run()``'s max-min results and the freeze events they took."""
    solves = []
    real = network.maxmin_allocate

    def capture(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    obs.reset()
    obs.enable(tracing=False)
    try:
        with mock.patch.object(network, "maxmin_allocate", capture):
            run()
        events = obs.registry().snapshot()["fabric.maxmin.iterations"]["value"]
    finally:
        obs.disable()
        obs.reset()
    assert len(solves) == 1
    return solves[0], int(events)


def _entry(result, events: int) -> dict:
    return {"events": events,
            "sha256": {name: _digest(getattr(result, name))
                       for name in ("rates", "bottleneck_link",
                                    "link_utilisation")}}


def shift_entry(k: int) -> dict:
    net = FRONTIER_SPEC.build_network(rng=SEED)
    return _entry(*_counting(lambda: net.flow_bandwidths(net.shift_pairs(k))))


def stack_entry() -> dict:
    net = FRONTIER_SPEC.scaled(*STACK).build_network(rng=SEED)
    return _entry(*_counting(lambda: simulate_mpigraph(net)))


def golden_doc() -> dict:
    doc = {f"frontier-shift-{k}": shift_entry(k) for k in SHIFTS}
    doc["stack-{}x{}x{}".format(*STACK)] = stack_entry()
    return doc


@pytest.mark.parametrize("k", SHIFTS)
def test_full_frontier_phase_matches_golden(k):
    golden = json.loads(FIXTURE.read_text())[f"frontier-shift-{k}"]
    assert shift_entry(k) == golden


def test_stacked_mpigraph_solve_matches_golden():
    golden = json.loads(FIXTURE.read_text())["stack-{}x{}x{}".format(*STACK)]
    assert stack_entry() == golden


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_doc(), indent=2, sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE}")
