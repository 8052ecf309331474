"""The Slingshot Fabric Manager (paper §3.4.2).

"HPE Slingshot switches boot without any configuration applied, and it is
up to the Slingshot Fabric Manager to send port configuration and routing
instructions to each Slingshot switch.  The fabric manager periodically
sweeps all the switches in the fabric to search for failures or changes to
the topology and sends updated routing tables to all affected network
switches."

The model drives the router's failed-link set: cables fail (both
directions), sweeps discover them, routing tables are pushed, and traffic
keeps flowing over surviving lanes / Valiant detours — verified by the
test suite and the failure-recovery benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, TopologyError
from repro.fabric.network import SlingshotNetwork
from repro.fabric.topology import LinkKind

__all__ = ["FabricManager"]


@dataclass
class FabricManager:
    """Configures switches, sweeps for failures, pushes routes."""

    network: SlingshotNetwork
    configured: bool = False
    sweeps_performed: int = 0
    routes_pushed: int = 0
    #: cable failures that have happened but not yet been discovered
    _undiscovered: set[int] = field(default_factory=set)
    #: all currently-failed links (discovered and routed around)
    failed_links: set[int] = field(default_factory=set)

    def boot(self) -> int:
        """Initial configuration push: switches boot unconfigured."""
        if self.configured:
            raise ConfigurationError("fabric is already configured")
        self.configured = True
        self.routes_pushed += self.network.topology.n_switches
        return self.network.topology.n_switches

    # -- failures ------------------------------------------------------------

    def _links_between(self, sw_a: int, sw_b: int) -> list[int]:
        topo = self.network.topology
        out = []
        for a, b in ((sw_a, sw_b), (sw_b, sw_a)):
            link = topo.link_between(("sw", a), ("sw", b))
            if link is not None:
                out.append(link.index)
        if not out:
            raise TopologyError(f"no cable between switches {sw_a} and {sw_b}")
        return out

    def fail_cable(self, sw_a: int, sw_b: int) -> list[int]:
        """A cable dies (both directions).  Nothing reroutes until a sweep
        discovers it — the window where jobs see errors."""
        indices = self._links_between(sw_a, sw_b)
        self._undiscovered.update(indices)
        return indices

    def restore_cable(self, sw_a: int, sw_b: int) -> None:
        """Maintenance replaced the cable; the next sweep re-enables it."""
        for idx in self._links_between(sw_a, sw_b):
            self.failed_links.discard(idx)
            self._undiscovered.discard(idx)
            self.network.router.enable_link(idx)

    def sweep(self) -> int:
        """One periodic sweep: discover failures, push updated routes to
        affected switches.  Returns how many new failures were handled."""
        if not self.configured:
            raise ConfigurationError("sweep before boot: switches are blank")
        self.sweeps_performed += 1
        newly = list(self._undiscovered)
        self._undiscovered.clear()
        affected_switches: set[int] = set()
        for idx in newly:
            self.failed_links.add(idx)
            self.network.router.disable_link(idx)
            link = self.network.topology.link(idx)
            for node in (link.src, link.dst):
                if node[0] == "sw":
                    affected_switches.add(node[1])
        self.routes_pushed += len(affected_switches)
        return len(newly)

    # -- health ---------------------------------------------------------------

    def degraded_global_capacity(self) -> float:
        """Fraction of global (L2) capacity currently failed."""
        topo = self.network.topology
        flat = topo.flat
        total = sum(flat.capacities[flat.link_kind == 2].tolist())  # L2
        lost = sum(topo.link(i).capacity for i in self.failed_links
                   if topo.link(i).kind is LinkKind.L2)
        return lost / total if total else 0.0

    def fabric_is_routable(self, sample_pairs: int = 16) -> bool:
        """Spot-check that representative endpoint pairs still route."""
        n = self.network.config.total_endpoints
        stride = max(1, n // sample_pairs)
        try:
            for src in range(0, n, stride):
                dst = (src + n // 2 + 1) % n
                if dst != src:
                    self.network.router.path(src, dst, register=False)
        except Exception:
            return False
        return True
