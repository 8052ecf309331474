"""Per-hop latency model for the Slingshot fabric.

Calibrated against Table 5's isolated numbers: an 8-byte round-robin
two-sided ping-pong averages 2.6 us with a 4.8 us 99th percentile across a
9,400-node job.  The model decomposes one-way latency as

``host overhead + switches * per-switch + cable flight + size / link rate``

with cable flight depending on link kind (short copper L0/L1 inside a
group, ~30 m optics for L2).  The 99th percentile comes from the longest
(Valiant) paths plus queueing jitter, handled by the GPCNeT simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fabric.topology import LinkKind, Topology

__all__ = ["LatencyModel"]


@dataclass(frozen=True)
class LatencyModel:
    """One-way MPI message latency decomposition.

    ``host_overhead_s`` covers both ends' software + NIC processing (with
    OS-bypass "HPC Ethernet" mode, §3.1.4); ``per_switch_s`` is Slingshot's
    switch traversal; flight times use 5 ns/m.
    """

    host_overhead_s: float = 1.04e-6
    per_switch_s: float = 0.35e-6
    l0_cable_s: float = 10e-9    # ~2 m in-rack
    l1_cable_s: float = 20e-9    # ~4 m intra-group copper
    l2_cable_s: float = 150e-9   # ~30 m optical
    link_rate: float = 25e9

    def cable_delay(self, kind: LinkKind) -> float:
        if kind is LinkKind.L0:
            return self.l0_cable_s
        if kind is LinkKind.L1:
            return self.l1_cable_s
        return self.l2_cable_s

    def path_latency(self, topo: Topology, path: list[int],
                     size_bytes: float = 8.0) -> float:
        """One-way latency of a message along ``path`` (link index list)."""
        flat = topo.flat
        delay = [self.cable_delay(kind) for kind in LinkKind]  # by ordinal
        switches = 0
        flight = 0.0
        for idx in path:
            flight += delay[flat.link_kind[idx]]
            if not flat.link_dst_code[idx] & 1:     # into a switch
                switches += 1
        serialisation = size_bytes / self.link_rate
        return (self.host_overhead_s + switches * self.per_switch_s
                + flight + serialisation)

    def analytic_latency(self, *, local_hops: int, global_hops: int,
                         size_bytes: float = 8.0) -> float:
        """Latency without a materialised topology (full-scale estimates).

        ``local_hops`` counts L1 traversals, ``global_hops`` L2 traversals;
        the two endpoint L0 hops are implicit.
        """
        switches = 1 + local_hops + global_hops  # each hop lands on a switch
        flight = (2 * self.l0_cable_s + local_hops * self.l1_cable_s
                  + global_hops * self.l2_cable_s)
        return (self.host_overhead_s + switches * self.per_switch_s
                + flight + size_bytes / self.link_rate)

    def average_minimal_latency(self, size_bytes: float = 8.0,
                                groups: int = 74,
                                switches_per_group: int = 32) -> float:
        """Expected one-way latency of a random pair under minimal routing.

        Path-shape probabilities for a uniformly random endpoint pair in a
        large dragonfly: the destination is almost surely in another group;
        the source/destination switches coincide with their gateway switch
        with probability 1/S each.
        """
        p_other_group = (groups - 1) / groups
        p_extra_local = 1 - 1 / switches_per_group
        return self._blended_latency(p_other_group, p_extra_local, size_bytes)

    def _blended_latency(self, p_other: float, p_extra: float,
                         size_bytes: float) -> float:
        total = 0.0
        # same group: 0 or 1 local hop
        total += (1 - p_other) * (
            (1 - p_extra) * self.analytic_latency(local_hops=0, global_hops=0,
                                                  size_bytes=size_bytes)
            + p_extra * self.analytic_latency(local_hops=1, global_hops=0,
                                              size_bytes=size_bytes))
        # other group: 1 global hop, 0..2 local hops
        for a in (0, 1):
            for b in (0, 1):
                p = (p_extra if a else 1 - p_extra) * (p_extra if b else 1 - p_extra)
                total += p_other * p * self.analytic_latency(
                    local_hops=a + b, global_hops=1, size_bytes=size_bytes)
        return total
