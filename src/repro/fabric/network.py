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

from functools import partial
from typing import NamedTuple

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
from repro.rng import RngLike, as_generator

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


def _phase_stack(phases) -> np.ndarray:
    """``phases`` as an int64 ``(P, n, 2)`` array; anything else raises.

    Endpoint ids must already be integers: a float or bool id is an
    error, not something to truncate onto another endpoint.
    """
    stack = np.asarray(phases)
    if stack.ndim != 3 or stack.shape[2] != 2 or stack.size == 0:
        raise ConfigurationError(
            "phases must be a non-empty (P, n, 2) stack of flows")
    if stack.dtype.kind not in "iu":
        raise ConfigurationError(
            f"endpoint ids must be integers, got dtype {stack.dtype}")
    return stack.astype(np.int64, copy=False)


def _is_int(value) -> bool:
    """A Python or NumPy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class FlowResult(NamedTuple):
    """Per-flow achieved bandwidth, annotated with its endpoints."""

    src: int
    dst: int
    bandwidth: float


#: Builds a :class:`FlowResult` from one ``(src, dst, bandwidth)`` tuple
#: without the keyword-argument handling of ``FlowResult(...)``.
_new_flow_result = partial(tuple.__new__, FlowResult)


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
        one-phase case of :meth:`phase_bandwidths`, returning the link
        utilisation and bottleneck links that it does not keep.
        """
        if len(pairs) == 0:
            raise ConfigurationError("no flows given")
        stack = _phase_stack(np.asarray(pairs)[None])
        with self._span(stack.shape[1], 1):
            result = self._solve_stack(stack, demand_per_flow, chunk)
        ends = stack[0]
        flows = list(map(_new_flow_result, zip(
            ends[:, 0].tolist(), ends[:, 1].tolist(), result.rates.tolist())))
        return flows, result

    def phase_bandwidths(self, phases,
                         demand_per_flow: float | None = None,
                         chunk: int | None = None) -> np.ndarray:
        """Max-min rates for ``P`` independent phases of simultaneous flows.

        ``phases`` is a ``(P, n, 2)`` stack of endpoint pairs; the flows
        of one phase share the fabric, different phases do not.  Returns
        the ``(P, n)`` rates, each row bit-identical to
        ``flow_bandwidths(phases[p])`` run phase after phase on this
        network (RNG and final router load included).  Link utilisation
        and bottlenecks are not kept: each sub-stack's utilisation feeds
        the ``fabric.link_utilisation`` histogram and is dropped.

        The whole stack is planned in one batch-planner call and solved
        as one block-diagonal max-min problem: capacities tiled ``P``
        times and phase ``p``'s link ids offset by ``p * n_links``.  A
        stack above :data:`STACK_LINK_SLOTS` phase-links is split into
        consecutive sub-stacks.
        """
        stack = _phase_stack(phases)
        n_phases, n = stack.shape[:2]
        per_stack = max(1, STACK_LINK_SLOTS // self.topology.n_links)
        rates = np.empty((n_phases, n))
        with self._span(n, n_phases):
            for lo in range(0, n_phases, per_stack):
                part = stack[lo:lo + per_stack]
                rates[lo:lo + len(part)] = self._solve_stack(
                    part, demand_per_flow, chunk).rates.reshape(len(part), n)
        return rates

    def _span(self, n_flows: int, n_phases: int):
        return obs.span("fabric.flow_bandwidths", n_flows=n_flows,
                        n_phases=n_phases, topology=self.topology_label,
                        policy=self.router.label)

    def _solve_stack(self, part: np.ndarray, demand_per_flow: float | None,
                     chunk: int | None) -> MaxMinResult:
        """Plan and solve a ``(k, n, 2)`` sub-stack as one block-diagonal
        max-min problem, phase ``p`` owning links ``[p * L, (p + 1) * L)``;
        the result's arrays are phase-major over those block link ids."""
        if demand_per_flow is None:
            demand_per_flow = STREAM_EFFICIENCY * self.config.link_rate
        k, n = part.shape[:2]
        capacities = self.topology.capacities()
        self.router.reset_load()
        paths = self.router.paths(part, chunk=chunk)
        if k > 1:
            shift = np.repeat(np.repeat(np.arange(k) * len(capacities), n),
                              paths.lengths())
            paths = BatchPaths(paths.indices + shift, paths.indptr)
            capacities = np.tile(capacities, k)
        result = maxmin_allocate(capacities, paths,
                                 np.full(k * n, float(demand_per_flow)))
        obs.counter("fabric.paths_computed").inc(k * n)
        obs.histogram("fabric.link_utilisation").observe_many(
            result.link_utilisation)
        obs.histogram("fabric.flow_bandwidth_bytes_per_s").observe_many(
            result.rates)
        return result

    def shift_pairs(self, offset_endpoints: int) -> np.ndarray:
        """mpiGraph's pattern as ``(N, 2)`` endpoint pairs: endpoint i
        sends to endpoint (i+k) mod N."""
        n = self.config.total_endpoints
        if not _is_int(offset_endpoints):
            raise ConfigurationError(
                f"shift offset must be an integer, got {offset_endpoints!r}")
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
        if not _is_int(n_pairs) or n_pairs < 0:
            raise ConfigurationError(
                f"n_pairs must be an integer >= 0, got {n_pairs!r}")
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
