"""Fabric network facades.

:class:`FabricNetwork` bundles a materialised topology, a router, the
latency model, and the max-min flow solver behind one object that the
micro-benchmarks (:mod:`repro.microbench`) and the MPI layer
(:mod:`repro.mpi`) drive.  :class:`SlingshotNetwork` (Frontier's
dragonfly) and :class:`FatTreeNetwork` (Summit's Clos, the Figure 6
comparison system) share the flow-level machinery through it and differ
only in topology construction, routing, and the full-scale analytic
helpers.

Because materialising the full 9,472-node fabric is expensive, the facade
supports *reduced-scale* instantiation (taper preserved, see
:meth:`DragonflyConfig.scaled`) for flow-level experiments, alongside
*analytic* full-scale estimates for latency and collective numbers.
Topology construction is memoized per config (see
:func:`repro.fabric.cache.memoized_topology`); use
:func:`repro.fabric.cache.clear_fabric_caches` to reset it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.fabric.batchroute import BatchPaths
from repro.fabric.collectives import allreduce_latency, alltoall_per_node_bandwidth
from repro.fabric.dragonfly import DragonflyConfig, build_dragonfly
from repro.fabric.fattree import FatTreeConfig, build_fattree
from repro.fabric.latency import LatencyModel
from repro.fabric.maxmin import MaxMinResult, maxmin_allocate
from repro.fabric.routing import FatTreeRouter, Router, RoutingPolicy
from repro.fabric.topology import Topology
from repro.rng import RngLike

__all__ = ["FabricNetwork", "SlingshotNetwork", "FatTreeNetwork",
           "STACK_LINK_SLOTS"]

#: Protocol efficiency of a single stream relative to line rate: headers,
#: credits, and software overheads.  17.5/25 GB/s for intra-group pairs in
#: Figure 6 corresponds to ~0.70.
STREAM_EFFICIENCY = 0.70

#: Most link slots (phases x links) one stacked plan-and-solve holds:
#: :meth:`FabricNetwork.phase_bandwidths` splits a longer stack to bound
#: its working set.  2^19 keeps a whole mpiGraph run on a 16x8x16
#: fabric (~30 offsets x 6,192 links) in one stack and holds three
#: full-Frontier phases, whose per-call cost is already amortised.
STACK_LINK_SLOTS = 1 << 19


@dataclass(frozen=True)
class FlowResult:
    """Per-flow achieved bandwidth, annotated with its endpoints."""

    src: int
    dst: int
    bandwidth: float


class FabricNetwork:
    """Shared flow-level machinery: topology + router + max-min solver."""

    #: Span/label tag naming the topology family (subclasses override).
    topology_label = "fabric"

    def __init__(self, config, topology: Topology, router,
                 latency: LatencyModel | None = None,
                 nics_per_node: int = 1):
        self.config = config
        self.topology = topology
        self.router = router
        self.latency = latency if latency is not None else LatencyModel()
        if nics_per_node < 1:
            raise ConfigurationError("nodes need at least one NIC")
        #: endpoints per node: node ``i`` injects through endpoints
        #: ``[i * nics_per_node, (i + 1) * nics_per_node)``.
        self.nics_per_node = nics_per_node
        #: nodes currently taken out of service via :meth:`disable_node`.
        self.disabled_nodes: set[int] = set()

    # -- failure / repair -----------------------------------------------------
    #
    # The uniform fault surface the chaos engine (:mod:`repro.chaos`) and
    # the degradation sweeps drive.  Everything funnels through the
    # router's ``disable_link``/``enable_link`` so path LRU and batch
    # planner state are invalidated identically on failure *and* repair,
    # for both the Slingshot and fat-tree backends.

    def disable_link(self, index: int) -> None:
        """Fail one link; the routers route around it (FM sweep, §3.4.2)."""
        self.router.disable_link(index)
        obs.counter("fabric.links_disabled").inc()

    def enable_link(self, index: int) -> None:
        """Return a repaired link to service (invalidates the same caches)."""
        self.router.enable_link(index)
        obs.counter("fabric.links_enabled").inc()

    @property
    def disabled_links(self) -> frozenset[int]:
        return frozenset(self.router.disabled)

    def node_endpoints(self, node: int) -> range:
        """The fabric endpoints a node injects through."""
        n_nodes = self.config.total_endpoints // self.nics_per_node
        if not 0 <= node < n_nodes:
            raise ConfigurationError(
                f"no node {node}: fabric carries {n_nodes} nodes at "
                f"{self.nics_per_node} NICs per node")
        return range(node * self.nics_per_node,
                     (node + 1) * self.nics_per_node)

    def disable_node(self, node: int) -> None:
        """Fail a whole node: every edge link of its endpoints goes down.

        Traffic *to or from* the node now raises ``RoutingError``; traffic
        between surviving nodes re-routes as usual.  Idempotent.
        """
        if node in self.disabled_nodes:
            return
        flat = self.topology.flat
        for ep in self.node_endpoints(node):
            self.router.disable_link(int(flat.ep_up_link[ep]))
            self.router.disable_link(int(flat.ep_down_link[ep]))
        self.disabled_nodes.add(node)
        obs.counter("fabric.nodes_disabled").inc()

    def enable_node(self, node: int) -> None:
        """Return a repaired node's edge links to service.  Idempotent."""
        if node not in self.disabled_nodes:
            return
        flat = self.topology.flat
        for ep in self.node_endpoints(node):
            self.router.enable_link(int(flat.ep_up_link[ep]))
            self.router.enable_link(int(flat.ep_down_link[ep]))
        self.disabled_nodes.discard(node)
        obs.counter("fabric.nodes_enabled").inc()

    # -- flow-level bandwidth ------------------------------------------------

    def flow_bandwidths(self, pairs,
                        demand_per_flow: float | None = None,
                        chunk: int | None = None
                        ) -> tuple[list[FlowResult], MaxMinResult]:
        """Max-min fair rates for simultaneous endpoint-pair flows.

        ``demand_per_flow`` defaults to the protocol-limited single-stream
        rate (70% of line rate); pass ``None``-> default, or a number to
        override (e.g. float('inf') for fully elastic flows).

        Routing goes through the router's batch planner
        (``router.paths``); ``chunk`` is forwarded to it (``chunk=1``
        reproduces the historical scalar loop exactly).  This is the
        one-phase case of :meth:`phase_bandwidths`.
        """
        if len(pairs) == 0:
            raise ConfigurationError("no flows given")
        ends = np.asarray(pairs, dtype=np.int64)
        stacked = self.phase_bandwidths(ends[None], demand_per_flow,
                                        chunk=chunk)
        result = MaxMinResult(stacked.rates[0], stacked.link_utilisation[0],
                              stacked.bottleneck_link[0])
        flows = list(map(FlowResult, ends[:, 0].tolist(), ends[:, 1].tolist(),
                         result.rates.tolist()))
        return flows, result

    def phase_bandwidths(self, phases,
                         demand_per_flow: float | None = None,
                         chunk: int | None = None) -> MaxMinResult:
        """Max-min rates for ``P`` independent phases of simultaneous flows.

        ``phases`` is a ``(P, n, 2)`` stack of endpoint pairs; the flows
        of one phase share the fabric, different phases do not.  Returns
        a :class:`MaxMinResult` whose ``rates`` and ``bottleneck_link``
        are ``(P, n)`` arrays and ``link_utilisation`` is ``(P, n_links)``,
        each row bit-identical to ``flow_bandwidths(phases[p])`` run
        phase after phase on this network (RNG and final router load
        included).

        The whole stack is planned in one batch-planner call and solved
        as one block-diagonal max-min problem: capacities tiled ``P``
        times and phase ``p``'s link ids offset by ``p * n_links``.  A
        stack above :data:`STACK_LINK_SLOTS` phase-links is split into
        consecutive sub-stacks.
        """
        stack = np.asarray(phases, dtype=np.int64)
        if stack.ndim != 3 or stack.shape[2] != 2 or stack.size == 0:
            raise ConfigurationError(
                "phases must be a non-empty (P, n, 2) stack of flows")
        n_phases, n = stack.shape[:2]
        if demand_per_flow is None:
            demand_per_flow = STREAM_EFFICIENCY * self.config.link_rate
        capacities = self.topology.capacities()
        n_links = len(capacities)
        per_stack = max(1, STACK_LINK_SLOTS // n_links)
        rates = np.empty((n_phases, n))
        utilisation = np.empty((n_phases, n_links))
        bottleneck = np.empty((n_phases, n), dtype=np.int64)
        with obs.span("fabric.flow_bandwidths", n_flows=n,
                      n_phases=n_phases, topology=self.topology_label,
                      policy=self.router.label):
            for lo in range(0, n_phases, per_stack):
                part = stack[lo:lo + per_stack]
                k = len(part)
                self.router.reset_load()
                paths = self.router.paths(part, chunk=chunk)
                caps = capacities
                if k > 1:
                    # block-diagonal: phase p owns links [p * L, (p + 1) * L)
                    shift = np.repeat(np.repeat(np.arange(k) * n_links, n),
                                      paths.lengths())
                    paths = BatchPaths(paths.indices + shift, paths.indptr)
                    caps = np.tile(capacities, k)
                result = maxmin_allocate(
                    caps, paths, np.full(k * n, float(demand_per_flow)))
                rates[lo:lo + k] = result.rates.reshape(k, n)
                utilisation[lo:lo + k] = result.link_utilisation.reshape(
                    k, n_links)
                links = result.bottleneck_link.reshape(k, n)
                bottleneck[lo:lo + k] = np.where(links >= 0, links % n_links,
                                                 -1)
        obs.counter("fabric.paths_computed").inc(n_phases * n)
        obs.histogram("fabric.link_utilisation").observe_many(
            utilisation.ravel())
        obs.histogram("fabric.flow_bandwidth_bytes_per_s").observe_many(
            rates.ravel())
        return MaxMinResult(rates, utilisation, bottleneck)

    def shift_pairs(self, offset_endpoints: int) -> np.ndarray:
        """mpiGraph's pattern as ``(N, 2)`` endpoint pairs: endpoint i
        sends to endpoint (i+k) mod N."""
        n = self.config.total_endpoints
        if not 0 < offset_endpoints < n:
            raise ConfigurationError("shift offset must be in (0, n_endpoints)")
        src = np.arange(n, dtype=np.int64)
        return np.stack([src, (src + offset_endpoints) % n], axis=1)

    def shift_pattern(self, offset_endpoints: int,
                      demand_per_flow: float | None = None,
                      chunk: int | None = None) -> list[FlowResult]:
        """One flow per endpoint of :meth:`shift_pairs`, with its rate."""
        flows, _ = self.flow_bandwidths(self.shift_pairs(offset_endpoints),
                                        demand_per_flow, chunk=chunk)
        return flows

    # -- latency -------------------------------------------------------------

    def p2p_latency(self, src_ep: int, dst_ep: int,
                    size_bytes: float = 8.0) -> float:
        path = self.router.path(src_ep, dst_ep, register=False)
        return self.latency.path_latency(self.topology, path, size_bytes)

    def latency_sample(self, n_pairs: int = 200, size_bytes: float = 8.0,
                       rng: RngLike = None) -> np.ndarray:
        """One-way latencies of random distinct endpoint pairs."""
        from repro.rng import as_generator
        gen = as_generator(rng)
        n = self.config.total_endpoints
        out = []
        for _ in range(n_pairs):
            s = int(gen.integers(n))
            d = int(gen.integers(n - 1))
            if d >= s:
                d += 1
            out.append(self.p2p_latency(s, d, size_bytes))
        return np.asarray(out)


class SlingshotNetwork(FabricNetwork):
    """A materialised Slingshot dragonfly with routing and flow allocation."""

    topology_label = "dragonfly"

    def __init__(self, config: DragonflyConfig,
                 policy: RoutingPolicy = RoutingPolicy.UGAL,
                 latency: LatencyModel | None = None,
                 rng: RngLike = None, nics_per_node: int = 1):
        topology = build_dragonfly(config)
        super().__init__(config, topology,
                         Router(topology, config, policy, rng=rng), latency,
                         nics_per_node=nics_per_node)

    # -- full-scale analytic results ------------------------------------------

    def allreduce_latency(self, n_ranks: int, size_bytes: float = 8.0) -> float:
        return allreduce_latency(n_ranks, size_bytes=size_bytes,
                                 latency=self.latency,
                                 groups=self.config.groups,
                                 switches_per_group=self.config.switches_per_group)

    def alltoall_bandwidth(self, nodes: int | None = None, **kw):
        return alltoall_per_node_bandwidth(self.config, nodes=nodes, **kw)


class FatTreeNetwork(FabricNetwork):
    """Summit's non-blocking Clos with ECMP routing (comparison system)."""

    topology_label = "fattree"

    def __init__(self, config: FatTreeConfig, rng: RngLike = None,
                 latency: LatencyModel | None = None,
                 nics_per_node: int = 1):
        topology = build_fattree(config)
        super().__init__(config, topology,
                         FatTreeRouter(topology, config, rng=rng), latency,
                         nics_per_node=nics_per_node)
