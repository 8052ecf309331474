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

from repro.errors import TopologyError
from repro.fabric.cache import memoized_topology
from repro.fabric.topology import LinkKind, Topology

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

    def __post_init__(self) -> None:
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


#: A Summit-scale stand-in: 4,608 nodes x 1 usable EDR rail modeled as
#: 192 edge switches x 24 endpoints.  Non-blocking.
SUMMIT_FATTREE = FatTreeConfig(edge_switches=192, endpoints_per_edge=24)
