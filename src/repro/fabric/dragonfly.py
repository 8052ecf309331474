"""Dragonfly topology builder (paper §3.2).

Frontier's Slingshot fabric is a three-hop dragonfly of 80 groups:
74 compute groups of 32 fully-connected switches (16 endpoints each — 128
nodes x 4 NICs per group), plus 5 I/O groups and 1 management group of 16
top-of-rack switches.  Each 64-port switch splits its ports 16 L0 (endpoints)
/ 32 L1 (intra-group) / 16 L2 (global).

Compute-to-compute group connections use a bundle of two QSFP-DD cables,
i.e. **4 x 200 Gb/s links per group pair**, which yields:

* global bandwidth per group: 73 peers x 4 links x 25 GB/s = 7.3 TB/s
* injection bandwidth per group: 512 endpoints x 25 GB/s = 12.8 TB/s
* the 57% global-to-injection *taper*
* total compute global bandwidth: C(74,2) x 4 x 25 GB/s = 270.1 TB/s
  (the paper's "270+270 TB/s")

The builder spreads each group pair's links across different switches so
every switch carries its fair share of global ports (<= 16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TopologyError
from repro.fabric.cache import memoized_topology
from repro.fabric.topology import LinkKind, Topology, check_config_fields

__all__ = ["DragonflyConfig", "build_dragonfly", "FRONTIER_DRAGONFLY"]


@dataclass(frozen=True)
class DragonflyConfig:
    """Parameters of a dragonfly fabric.

    The defaults describe one *compute-only* Frontier fabric.  Reduced-scale
    configurations (for flow-level simulation) should preserve the taper via
    :meth:`scaled`.
    """

    groups: int = 74
    switches_per_group: int = 32
    endpoints_per_switch: int = 16
    link_rate: float = 25e9             # bytes/s per direction per link
    global_links_per_pair: int = 4      # bundle size 2 => 2 cables x 2 links
    l1_ports: int = 32
    l2_ports: int = 16

    kind = "dragonfly"

    def __post_init__(self) -> None:
        check_config_fields(
            self, counts=("groups", "switches_per_group", "endpoints_per_switch",
                          "global_links_per_pair", "l1_ports", "l2_ports"),
            positive=("link_rate",))
        if self.groups < 2:
            raise TopologyError("a dragonfly needs at least two groups")
        if self.switches_per_group < 1 or self.endpoints_per_switch < 1:
            raise TopologyError("switches/endpoints per group must be positive")
        if self.global_links_per_pair < 1:
            raise TopologyError("global_links_per_pair must be >= 1: every group "
                                "pair needs a global link")
        if self.switches_per_group - 1 > self.l1_ports:
            raise TopologyError(
                f"{self.switches_per_group} switches per group need "
                f"{self.switches_per_group - 1} L1 ports, have {self.l1_ports}")
        per_switch_global = self.global_link_endpoints_per_group / self.switches_per_group
        if per_switch_global > self.l2_ports:
            raise TopologyError(
                f"global links need {per_switch_global:.1f} L2 ports per switch, "
                f"have {self.l2_ports}")

    # -- derived quantities (these are the Table 1 / §3.2 numbers) ---------

    @property
    def endpoints_per_group(self) -> int:
        return self.switches_per_group * self.endpoints_per_switch

    @property
    def total_endpoints(self) -> int:
        return self.groups * self.endpoints_per_group

    @property
    def total_switches(self) -> int:
        return self.groups * self.switches_per_group

    @property
    def global_link_endpoints_per_group(self) -> int:
        return (self.groups - 1) * self.global_links_per_pair

    @property
    def injection_bandwidth_per_group(self) -> float:
        """12.8 TB/s for a Frontier compute group."""
        return self.endpoints_per_group * self.link_rate

    @property
    def global_bandwidth_per_group(self) -> float:
        """7.3 TB/s for a Frontier compute group."""
        return self.global_link_endpoints_per_group * self.link_rate

    @property
    def taper(self) -> float:
        """Global-to-injection ratio; 57% on Frontier."""
        return self.global_bandwidth_per_group / self.injection_bandwidth_per_group

    @property
    def total_global_bandwidth(self) -> float:
        """270.1 TB/s per direction across all compute group pairs."""
        n_pairs = self.groups * (self.groups - 1) // 2
        return n_pairs * self.global_links_per_pair * self.link_rate

    def scaled(self, groups: int, switches_per_group: int,
               endpoints_per_switch: int) -> "DragonflyConfig":
        """A reduced-scale config that keeps the taper as close as possible.

        Chooses the bundle width so global/injection bandwidth stays near
        the full machine's 57%, which is what shapes the Figure 6 histogram.
        """
        if groups < 2 or switches_per_group < 1 or endpoints_per_switch < 1:
            raise TopologyError(
                f"a scaled dragonfly needs >= 2 groups and >= 1 switch and "
                f"endpoint each, got {groups}x{switches_per_group}x"
                f"{endpoints_per_switch}")
        target = self.taper
        inj = switches_per_group * endpoints_per_switch * self.link_rate
        per_pair = max(1, round(target * inj / ((groups - 1) * self.link_rate)))
        return DragonflyConfig(
            groups=groups,
            switches_per_group=switches_per_group,
            endpoints_per_switch=endpoints_per_switch,
            link_rate=self.link_rate,
            global_links_per_pair=per_pair,
            l1_ports=max(self.l1_ports, switches_per_group - 1),
            l2_ports=max(self.l2_ports,
                         -(-per_pair * (groups - 1) // switches_per_group)),
        )

    # -- identity helpers ---------------------------------------------------

    def switch_id(self, group: int, local: int) -> int:
        return group * self.switches_per_group + local

    def group_of_switch(self, switch: int) -> int:
        return switch // self.switches_per_group

    def endpoint_id(self, group: int, local_switch: int, port: int) -> int:
        return (group * self.endpoints_per_group
                + local_switch * self.endpoints_per_switch + port)

    def global_attach(self, g: int, h: int, lane: int) -> tuple[int, int]:
        """Switches (local indices in g and h) hosting lane ``lane`` of pair (g,h).

        Deterministic round-robin spreading: lane l of the (g,h) bundle lands
        on switch ``(peer * width + l) % S`` in each group, so global ports
        are distributed nearly evenly over a group's switches.
        """
        if g == h:
            raise TopologyError("no global links within a group")
        if not 0 <= lane < self.global_links_per_pair:
            raise TopologyError(f"lane {lane} out of range")
        s = self.switches_per_group
        return ((h * self.global_links_per_pair + lane) % s,
                (g * self.global_links_per_pair + lane) % s)


def build_dragonfly(config: DragonflyConfig) -> Topology:
    """Materialise the dragonfly as a :class:`Topology`.

    Parallel global lanes that land on the same switch pair (possible at
    reduced scale) are aggregated into a single link of summed capacity.
    Builds are memoized per config
    (:func:`repro.fabric.cache.memoized_topology`).
    """
    return memoized_topology(config, _materialise_dragonfly)


def _materialise_dragonfly(config: DragonflyConfig) -> Topology:
    """The dragonfly's link arrays in closed form, in the dense link order
    every path, utilisation row and digest depends on:

    * L0: for each endpoint, ep -> sw then sw -> ep;
    * L1: for each group, the upper-triangle switch pairs ``a < b``, both
      directions;
    * L2: for each group pair ``g < h``, one cable per distinct lane in
      lane order, both directions.  Lanes ``l`` and ``l + S`` of a pair
      land on the same switches (``S`` switches per group), so only the
      first ``min(lanes, S)`` are distinct, each carrying the rates of
      every lane that collides with it, summed in lane order.
    """
    G, S = config.groups, config.switches_per_group
    lanes, rate = config.global_links_per_pair, config.link_rate
    n_sw = G * S
    sw_code = 2 * np.arange(n_sw)
    ep_switch = np.repeat(np.arange(n_sw), config.endpoints_per_switch)
    edge = (2 * np.arange(len(ep_switch)) + 1, sw_code[ep_switch],
            rate, LinkKind.L0)
    a, b = np.triu_indices(S, 1)
    first = sw_code[::S, None]
    local = ((first + 2 * a).ravel(), (first + 2 * b).ravel(),
             rate, LinkKind.L1)
    g, h = (x[:, None] for x in np.triu_indices(G, 1))
    lane = np.arange(min(lanes, S))
    swa = g * S + (h * lanes + lane) % S
    swb = h * S + (g * lanes + lane) % S
    collided = (lanes - 1 - lane) // S + 1
    lane_capacity = np.cumsum(np.full(collided.max(), float(rate)))[collided - 1]
    glob = (2 * swa.ravel(), 2 * swb.ravel(),
            np.tile(lane_capacity, len(swa)), LinkKind.L2)
    return Topology.from_cables(np.repeat(np.arange(G), S), ep_switch,
                                (edge, local, glob))


#: The full-scale compute fabric (74 groups): 2,368 switches, 37,888
#: endpoints and 170,792 directed links, built in closed form in tens of
#: milliseconds.
FRONTIER_DRAGONFLY = DragonflyConfig()
