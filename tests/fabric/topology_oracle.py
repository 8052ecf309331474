"""Per-link reference builders for the closed-form topology builders.

These are the original loops: one ``add_switch`` / ``add_endpoint`` /
``add_bidirectional`` call per switch, endpoint and cable, in the order
that defines the dense link index.  :func:`repro.fabric.dragonfly.
_materialise_dragonfly` and :func:`repro.fabric.fattree.
_materialise_fattree` must produce the same arrays.

The dense ``(switch, switch) -> link`` table that
:meth:`~repro.fabric.topology.TopologyArrays.switch_link` replaced lives
here too, as the oracle for that lookup: :func:`dense_switch_links`
builds it from the link arrays, :func:`dense_from_tables` from the
lookup's own tables.
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
               "local_rank", "local_row", "local_links", "remote_keys",
               "remote_links")


def dense_switch_links(flat) -> np.ndarray:
    """The dense ``(n, n)`` int32 table of switch-to-switch link indices,
    ``-1`` where there is none, scattered from a flat view's per-link
    node codes (``n = len(switch_group)``)."""
    n = len(flat.switch_group)
    table = np.full((n, n), -1, dtype=np.int32)
    src, dst = flat.link_src_code, flat.link_dst_code
    swsw = np.flatnonzero(((src | dst) & 1) == 0)
    table[src[swsw] >> 1, dst[swsw] >> 1] = swsw
    return table


def dense_from_tables(flat) -> np.ndarray:
    """The same dense table rebuilt from ``switch_link``'s own tables:
    each group's block of ``local_links`` laid over its switches in rank
    order, then every ``remote_keys`` entry set to its ``remote_links``."""
    n = len(flat.switch_group)
    table = np.full((n, n), -1, dtype=np.int32)
    for group in np.unique(flat.switch_group[flat.switch_group >= 0]):
        members = np.flatnonzero(flat.switch_group == group)
        members = members[np.argsort(flat.local_rank[members])]
        k = len(members)
        start = flat.local_row[members[0]]
        table[np.ix_(members, members)] = \
            flat.local_links[start:start + k * k].reshape(k, k)
    src, dst = np.divmod(flat.remote_keys, n)
    table[src, dst] = flat.remote_links
    return table


def assert_lookup_matches(flat, dense: np.ndarray, rows: int = 256) -> None:
    """``flat.switch_link`` answers every switch pair as ``dense`` does,
    asked ``rows`` source switches at a time."""
    n = len(dense)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        src = np.repeat(np.arange(lo, hi), n)
        dst = np.tile(np.arange(n), hi - lo)
        got = flat.switch_link(src, dst)
        assert got.dtype == np.int64
        assert np.array_equal(got.reshape(hi - lo, n), dense[lo:hi])


def assert_same_topology(built: Topology, reference: Topology) -> None:
    """Equal node tables, links (in order) and flat arrays, dtypes included."""
    assert built.n_switches == reference.n_switches
    assert built.n_endpoints == reference.n_endpoints
    assert built.links == reference.links
    for name in FLAT_ARRAYS:
        got, want = getattr(built.flat, name), getattr(reference.flat, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert_lookup_matches(built.flat, dense_switch_links(reference.flat))
