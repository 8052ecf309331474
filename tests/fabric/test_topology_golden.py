"""Golden digests of the built topologies' flat arrays.

``tests/fixtures/topology-arrays.json`` holds, per fabric config, the
link count and a sha256 of every :class:`~repro.fabric.topology.TopologyArrays`
array (dtype, shape and bytes).  Every path, utilisation row and
perfbench digest depends on the dense link order, so any change to how
the builders lay out links, capacities, kinds or the derived lookup
tables moves a digest here.  The ``sw_link`` entry pins the
switch-to-switch lookup: it is the digest of the dense ``(switch,
switch) -> link`` table rebuilt from the lookup's own tables
(:func:`~tests.fabric.topology_oracle.dense_from_tables`), and every
config's lookup must answer each switch pair as that table built
straight from the links does.

Regenerate (only when a layout change is intended) with
``PYTHONPATH=src python -m tests.fabric.test_topology_golden``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.scenario import AURORA_SPEC
from repro.fabric.dragonfly import DragonflyConfig, build_dragonfly
from repro.fabric.fattree import SUMMIT_FATTREE, FatTreeConfig, build_fattree

from .topology_oracle import (assert_lookup_matches, dense_from_tables,
                              dense_switch_links)

FIXTURE = Path(__file__).parents[1] / "fixtures" / "topology-arrays.json"

ARRAYS = ("capacities", "link_kind", "switch_group", "endpoint_switch",
          "link_src_code", "link_dst_code", "ep_up_link", "ep_down_link")

CONFIGS = {
    "frontier": DragonflyConfig(),
    "aurora": AURORA_SPEC.fabric_config(),
    "dragonfly-16x8x16": DragonflyConfig().scaled(16, 8, 16),
    "dragonfly-8x4x4": DragonflyConfig().scaled(8, 4, 4),
    "dragonfly-6x4x4": DragonflyConfig().scaled(6, 4, 4),
    "dragonfly-4x8x4": DragonflyConfig().scaled(4, 8, 4),
    # three lanes per pair over two switches: lanes 0 and 2 collide and
    # are summed into one link
    "dragonfly-3x2x1-lanes3": DragonflyConfig(
        groups=3, switches_per_group=2, endpoints_per_switch=1,
        global_links_per_pair=3),
    "summit-fattree": SUMMIT_FATTREE,
    "fattree-oversub2": FatTreeConfig(oversubscription=2.0),
}


def _build(config):
    if isinstance(config, DragonflyConfig):
        return build_dragonfly(config)
    return build_fattree(config)


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def topology_digests(config) -> dict:
    topo = _build(config)
    flat = topo.flat
    digests = {name: _digest(getattr(flat, name)) for name in ARRAYS}
    digests["sw_link"] = _digest(dense_from_tables(flat))
    return {"n_links": topo.n_links, "sha256": digests}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_flat_arrays_match_golden(name):
    golden = json.loads(FIXTURE.read_text())[name]
    assert topology_digests(CONFIGS[name]) == golden


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_switch_link_answers_every_pair(name):
    topo = _build(CONFIGS[name])
    assert_lookup_matches(topo.flat, dense_switch_links(topo.flat))


@pytest.mark.parametrize("name", ["dragonfly-16x8x16", "summit-fattree"])
def test_scalar_link_index_matches_switch_link(name):
    topo = _build(CONFIGS[name])
    n = len(topo.flat.switch_group)
    src, dst = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    want = topo.flat.switch_link(src, dst).tolist()
    got = [topo.link_index(("sw", a), ("sw", b))
           for a, b in zip(src.tolist(), dst.tolist())]
    assert got == want
    assert all(type(link) is int for link in got)


if __name__ == "__main__":
    doc = {name: topology_digests(cfg) for name, cfg in CONFIGS.items()}
    FIXTURE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
