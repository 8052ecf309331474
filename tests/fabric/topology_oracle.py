"""Per-link reference builders for the closed-form topology builders.

These are the original loops: one ``add_switch`` / ``add_endpoint`` /
``add_bidirectional`` call per switch, endpoint and cable, in the order
that defines the dense link index.  :func:`repro.fabric.dragonfly.
_materialise_dragonfly` and :func:`repro.fabric.fattree.
_materialise_fattree` must produce the same arrays.
"""

from __future__ import annotations

import numpy as np

from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.fattree import FatTreeConfig
from repro.fabric.topology import LinkKind, Topology


def reference_dragonfly(config: DragonflyConfig) -> Topology:
    topo = Topology()
    # switches and endpoints
    for g in range(config.groups):
        for s in range(config.switches_per_group):
            topo.add_switch(config.switch_id(g, s), group=g)
    for g in range(config.groups):
        for s in range(config.switches_per_group):
            sw = config.switch_id(g, s)
            for p in range(config.endpoints_per_switch):
                ep = config.endpoint_id(g, s, p)
                topo.add_endpoint(ep, sw)
                topo.add_bidirectional(("ep", ep), ("sw", sw),
                                       config.link_rate, LinkKind.L0)
    # intra-group: full mesh of switches, one cable per pair
    for g in range(config.groups):
        for a in range(config.switches_per_group):
            for b in range(a + 1, config.switches_per_group):
                topo.add_bidirectional(("sw", config.switch_id(g, a)),
                                       ("sw", config.switch_id(g, b)),
                                       config.link_rate, LinkKind.L1)
    # global: bundle of lanes per group pair, spread across switches
    pair_capacity: dict[tuple[int, int], float] = {}
    for g in range(config.groups):
        for h in range(g + 1, config.groups):
            for lane in range(config.global_links_per_pair):
                sg, sh = config.global_attach(g, h, lane)
                key = (config.switch_id(g, sg), config.switch_id(h, sh))
                pair_capacity[key] = pair_capacity.get(key, 0.0) + config.link_rate
    for (swa, swb), cap in pair_capacity.items():
        topo.add_bidirectional(("sw", swa), ("sw", swb), cap, LinkKind.L2)
    return topo


def reference_fattree(config: FatTreeConfig) -> Topology:
    topo = Topology()
    E, C = config.edge_switches, config.core_switches
    for e in range(E):
        topo.add_switch(e, group=e)
    core_group = E  # sentinel group for core level
    for c in range(C):
        topo.add_switch(E + c, group=core_group)
    for e in range(E):
        for p in range(config.endpoints_per_edge):
            ep = e * config.endpoints_per_edge + p
            topo.add_endpoint(ep, e)
            topo.add_bidirectional(("ep", ep), ("sw", e),
                                   config.link_rate, LinkKind.L0)
    # Each edge connects to every core with an equal share of its uplink.
    per_core = config.uplink_capacity_per_edge / C
    for e in range(E):
        for c in range(C):
            topo.add_bidirectional(("sw", e), ("sw", E + c),
                                   per_core, LinkKind.L1)
    return topo


FLAT_ARRAYS = ("capacities", "link_kind", "switch_group", "endpoint_switch",
               "link_src_code", "link_dst_code", "ep_up_link", "ep_down_link",
               "sw_link")


def assert_same_topology(built: Topology, reference: Topology) -> None:
    """Equal node tables, links (in order) and flat arrays, dtypes included."""
    assert built.n_switches == reference.n_switches
    assert built.n_endpoints == reference.n_endpoints
    assert built.links == reference.links
    for name in FLAT_ARRAYS:
        got, want = getattr(built.flat, name), getattr(reference.flat, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
