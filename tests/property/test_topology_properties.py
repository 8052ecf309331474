"""Differential property tests: closed-form builders vs per-link oracles.

For generated small dragonfly geometries (any lane count, so colliding
lanes are summed) and fat trees (any oversubscription), the closed-form
builders must give the same links, in the same dense order, and the same
flat arrays as the per-link loops in ``tests/fabric/topology_oracle.py``.
For random hand-built topologies (gapped switch ids, uneven and sparse
group ids, mutation after ``flat``), the switch-to-switch lookup and
``link_index`` must answer as a scan of the link list does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.fabric.dragonfly import DragonflyConfig, _materialise_dragonfly
from repro.fabric.fattree import FatTreeConfig, _materialise_fattree
from repro.fabric.topology import LinkKind, Topology

from ..fabric.topology_oracle import (assert_lookup_matches,
                                      assert_same_topology, dense_from_tables,
                                      reference_dragonfly, reference_fattree)

RATES = st.sampled_from([25e9, 1.0, 1 / 3, 12.5e9, 0.1])


@st.composite
def dragonflies(draw):
    groups = draw(st.integers(min_value=2, max_value=6))
    switches = draw(st.integers(min_value=1, max_value=5))
    lanes = draw(st.integers(min_value=1, max_value=7))
    return DragonflyConfig(
        groups=groups, switches_per_group=switches,
        endpoints_per_switch=draw(st.integers(min_value=1, max_value=3)),
        link_rate=draw(RATES), global_links_per_pair=lanes,
        l1_ports=max(1, switches - 1),
        l2_ports=-(-(groups - 1) * lanes // switches))


@st.composite
def fat_trees(draw):
    return FatTreeConfig(
        edge_switches=draw(st.integers(min_value=1, max_value=6)),
        endpoints_per_edge=draw(st.integers(min_value=1, max_value=6)),
        link_rate=draw(RATES),
        oversubscription=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0])))


@settings(max_examples=60, deadline=None)
@given(dragonflies())
def test_dragonfly_builder_matches_oracle(cfg):
    assert_same_topology(_materialise_dragonfly(cfg), reference_dragonfly(cfg))


@settings(max_examples=60, deadline=None)
@given(fat_trees())
def test_fattree_builder_matches_oracle(cfg):
    assert_same_topology(_materialise_fattree(cfg), reference_fattree(cfg))


NODES = st.tuples(st.sampled_from(["sw", "ep"]), st.integers(0, 7))
OPS = st.one_of(
    st.tuples(st.just("switch"), st.integers(0, 7),
              st.sampled_from([0, 0, 1, 2, 1000])),
    st.tuples(st.just("endpoint"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("link"), NODES, NODES,
              st.sampled_from(list(LinkKind))),
    st.tuples(st.just("flat")))


def _reference_index(links, src, dst) -> int:
    """Scan of the link list: the index of ``src -> dst``, else -1."""
    return next((i for i, (s, d) in enumerate(links)
                 if (s, d) == (src, dst)), -1)


@settings(max_examples=200, deadline=None)
@given(st.lists(OPS, max_size=80))
def test_hand_built_lookup_matches_link_scan(ops):
    # switch/endpoint/link additions (rejected ones change nothing) with
    # flat views taken in between; every view keeps answering for the
    # links it was taken with
    topo = Topology()
    views = []
    for op in ops:
        try:
            if op[0] == "switch":
                topo.add_switch(op[1], group=op[2])
            elif op[0] == "endpoint":
                topo.add_endpoint(op[1], op[2])
            elif op[0] == "link":
                topo.add_link(op[1], op[2], 1e9, op[3])
            else:
                views.append((topo.flat, [(lk.src, lk.dst)
                                          for lk in topo.links]))
        except TopologyError:
            pass
    views.append((topo.flat, [(lk.src, lk.dst) for lk in topo.links]))
    for flat, links in views:
        n = len(flat.switch_group)
        dense = np.full((n, n), -1, dtype=np.int32)
        for i, (s, d) in enumerate(links):
            if s[0] == d[0] == "sw":
                dense[s[1], d[1]] = i
        assert_lookup_matches(flat, dense)
        assert np.array_equal(dense_from_tables(flat), dense)
    nodes = [(tag, i) for tag in ("sw", "ep") for i in range(-1, 9)]
    for src in nodes:
        for dst in nodes:
            assert topo.link_index(src, dst) == _reference_index(
                views[-1][1], src, dst)
