"""Differential property test: closed-form builders vs per-link oracles.

For generated small dragonfly geometries (any lane count, so colliding
lanes are summed) and fat trees (any oversubscription), the closed-form
builders must give the same links, in the same dense order, and the same
flat arrays as the per-link loops in ``tests/fabric/topology_oracle.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.dragonfly import DragonflyConfig, _materialise_dragonfly
from repro.fabric.fattree import FatTreeConfig, _materialise_fattree

from ..fabric.topology_oracle import (assert_same_topology,
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
