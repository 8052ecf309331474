"""Non-blocking fat-tree (Clos) builder — Summit's EDR InfiniBand fabric.

Summit is the comparison system in Figure 6: a three-level non-blocking fat
tree of 100 Gb/s (12.5 GB/s) EDR links.  Because the tree is non-blocking,
every endpoint pair can sustain its full NIC rate simultaneously, which is
why Summit's mpiGraph histogram is one tight spike (~8.5 GB/s measured, 68%
of the 12.5 GB/s line rate) while Frontier's tapered dragonfly spreads from
3 to 17.5 GB/s.

The builder produces a two-level folded Clos (edge + core) with enough core
switches for full bisection; three-level behaviour at Summit's scale is
captured by the same non-blocking property, so two levels suffice for the
flow model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.fabric.cache import memoized_topology
from repro.fabric.topology import LinkKind, Topology, check_config_fields

__all__ = ["FatTreeConfig", "build_fattree", "SUMMIT_FATTREE"]


@dataclass(frozen=True)
class FatTreeConfig:
    """A folded-Clos description.

    ``oversubscription`` of 1.0 is non-blocking (Summit); >1 models a
    tapered tree (the paper notes a dragonfly behaves like a ~2:1
    oversubscribed fat tree).
    """

    edge_switches: int = 18
    endpoints_per_edge: int = 24
    link_rate: float = 12.5e9          # EDR: 100 Gb/s
    oversubscription: float = 1.0

    kind = "fattree"

    def __post_init__(self) -> None:
        check_config_fields(self, counts=("edge_switches", "endpoints_per_edge"),
                            positive=("link_rate", "oversubscription"))
        if self.edge_switches < 1 or self.endpoints_per_edge < 1:
            raise TopologyError("fat tree needs positive switch/endpoint counts")
        if self.oversubscription < 1.0:
            raise TopologyError("oversubscription must be >= 1.0")

    @property
    def total_endpoints(self) -> int:
        return self.edge_switches * self.endpoints_per_edge

    @property
    def uplink_capacity_per_edge(self) -> float:
        """Aggregate up-link capacity of one edge switch."""
        down = self.endpoints_per_edge * self.link_rate
        return down / self.oversubscription

    @property
    def core_switches(self) -> int:
        """One core plane per endpoint column, shrunk by the taper."""
        return max(1, round(self.endpoints_per_edge / self.oversubscription))


def build_fattree(config: FatTreeConfig) -> Topology:
    """Materialise the folded Clos as a :class:`Topology`.

    Switch ids: edges are ``0..E-1`` (group = edge index), cores are
    ``E..E+C-1`` (group = -1 is not allowed, so cores use group ``E`` to
    keep "same group" tests meaningful only for edges).  Builds are
    memoized per config (:func:`repro.fabric.cache.memoized_topology`).
    """
    return memoized_topology(config, _materialise_fattree)


def _materialise_fattree(config: FatTreeConfig) -> Topology:
    """The folded Clos's link arrays in closed form, in dense link order:
    for each endpoint, ep -> edge then edge -> ep (L0); then for each edge
    switch and each core, edge -> core then core -> edge (L1), every
    edge carrying an equal share of its uplink capacity per core."""
    E, C = config.edge_switches, config.core_switches
    ep_switch = np.repeat(np.arange(E), config.endpoints_per_edge)
    edge = (2 * np.arange(len(ep_switch)) + 1, 2 * ep_switch,
            config.link_rate, LinkKind.L0)
    e, c = np.divmod(np.arange(E * C), C)
    per_core = config.uplink_capacity_per_edge / C
    uplinks = (2 * e, 2 * (E + c), per_core, LinkKind.L1)
    # cores share the sentinel group E, so "same group" means same edge
    switch_group = np.concatenate((np.arange(E), np.full(C, E)))
    return Topology.from_cables(switch_group, ep_switch, (edge, uplinks))


#: A Summit-scale stand-in: 4,608 nodes x 1 usable EDR rail modeled as
#: 192 edge switches x 24 endpoints.  Non-blocking.
SUMMIT_FATTREE = FatTreeConfig(edge_switches=192, endpoints_per_edge=24)
