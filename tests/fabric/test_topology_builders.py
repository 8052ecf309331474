"""The closed-form fabric builders against their per-link oracles.

``tests/fabric/topology_oracle.py`` keeps the original builders, which
add one switch, endpoint and cable at a time; the closed-form builders
must give the same links in the same dense order, the same node tables
and the same flat arrays.
"""

import pytest

from repro.fabric.dragonfly import DragonflyConfig, _materialise_dragonfly
from repro.fabric.fattree import FatTreeConfig, _materialise_fattree

from .topology_oracle import (assert_same_topology, reference_dragonfly,
                              reference_fattree)

DRAGONFLIES = {
    "4x2x2": DragonflyConfig().scaled(4, 2, 2),
    "6x4x4": DragonflyConfig().scaled(6, 4, 4),
    "8x4x4": DragonflyConfig().scaled(8, 4, 4),
    "4x8x4": DragonflyConfig().scaled(4, 8, 4),
    # 3 lanes over 2 switches: lanes 0 and 2 share a switch pair
    "3x2x1-lanes3": DragonflyConfig(groups=3, switches_per_group=2,
                                    endpoints_per_switch=1,
                                    global_links_per_pair=3),
    # 7 lanes over 3 switches: three lanes land on switch 0's pair
    "3x3x2-lanes7": DragonflyConfig(groups=3, switches_per_group=3,
                                    endpoints_per_switch=2,
                                    global_links_per_pair=7, l2_ports=32),
    # six lanes summed one by one differ from 6 * 0.1 in the last bit
    "3x1x1-lanes6": DragonflyConfig(groups=3, switches_per_group=1,
                                    endpoints_per_switch=1, link_rate=0.1,
                                    global_links_per_pair=6),
    "2x1x1": DragonflyConfig(groups=2, switches_per_group=1,
                             endpoints_per_switch=1, global_links_per_pair=1),
    "fractional-rate": DragonflyConfig(groups=3, switches_per_group=2,
                                       endpoints_per_switch=2,
                                       link_rate=1 / 3,
                                       global_links_per_pair=5),
}

FAT_TREES = {
    "4x4": FatTreeConfig(4, 4),
    "8x6-oversub3": FatTreeConfig(edge_switches=8, endpoints_per_edge=6,
                                  oversubscription=3.0),
    "1x1": FatTreeConfig(edge_switches=1, endpoints_per_edge=1),
    "5x7-oversub2.5": FatTreeConfig(edge_switches=5, endpoints_per_edge=7,
                                    link_rate=1 / 7, oversubscription=2.5),
}


@pytest.mark.parametrize("name", sorted(DRAGONFLIES))
def test_dragonfly_matches_oracle(name):
    cfg = DRAGONFLIES[name]
    assert_same_topology(_materialise_dragonfly(cfg), reference_dragonfly(cfg))


@pytest.mark.parametrize("name", sorted(FAT_TREES))
def test_fattree_matches_oracle(name):
    cfg = FAT_TREES[name]
    assert_same_topology(_materialise_fattree(cfg), reference_fattree(cfg))


def test_colliding_lanes_are_summed_in_one_link():
    cfg = DRAGONFLIES["3x3x2-lanes7"]
    topo = _materialise_dragonfly(cfg)
    # lanes 0, 3 and 6 of pair (0, 1) all land on switches (1, 0)
    sa, sb = cfg.global_attach(0, 1, 0)
    assert {cfg.global_attach(0, 1, lane) for lane in (3, 6)} == {(sa, sb)}
    link = topo.link_between(("sw", cfg.switch_id(0, sa)),
                             ("sw", cfg.switch_id(1, sb)))
    assert link.capacity == 3 * cfg.link_rate
