"""Routing policies over the fabric topologies.

Dragonfly routing (paper §3.2): a *direct* network uses **minimal** paths
(at most source-group hop, one global hop, destination-group hop — the
"three-hop dragonfly") plus **non-minimal** paths through a random
intermediate group (Valiant) to spread adversarial traffic.  Production
Slingshot uses adaptive **UGAL**-style selection: take the minimal path
unless its global link looks congested, otherwise divert — at the price of
consuming *two* global hops, which is why all-global traffic sees half the
nominal global bandwidth (§4.2.2's 3 GB/s floor).

Fat-tree routing is ECMP up/down: any core switch reaches any edge, chosen
per-flow by load or hash.

Both routers share one base, :class:`_RouterBase`: the load tracker,
path cache, failed-link set, cached batch state and the operations over
them (:meth:`~_RouterBase.reset_load`, :meth:`~_RouterBase.disable_link`,
:meth:`~_RouterBase.paths`, :meth:`~_RouterBase.path`, ...).  Each
subclass supplies only its label (the policy name, or ``"ecmp"``), its
batch state and planner call, and ``_select``: the scalar UGAL / Valiant
/ minimal body for :class:`Router`, the ECMP body for
:class:`FatTreeRouter`.

Routers are *stateful load balancers*: each returned path increments a
per-link flow counter used by subsequent UGAL/ECMP decisions.  Call
:meth:`~_RouterBase.reset_load` between independent experiments.

**Path caching**: unregistered queries (``register=False`` — latency
probes, reachability checks) are served from a per-router LRU keyed on
``(src, dst, label)``.  Registered paths are never cached: they mutate
the load tracker and adaptive decisions must see live loads.  The cache
is invalidated whenever router state changes (``reset_load``,
``disable_link``, ``enable_link``); a cached path can therefore only
differ from a fresh one in load-based tie-breaks between equal-length
candidates, which leaves hop counts and latency unchanged.

**Batch planning**: :meth:`~_RouterBase.paths` plans a whole traffic
phase at once through the vectorised engine in
:mod:`repro.fabric.batchroute`, returning a
:class:`~repro.fabric.batchroute.BatchPaths` CSR set.  ``chunk=1``
reproduces the scalar ``path()`` loop exactly (the equivalence oracle);
the default chunk trades UGAL load-feedback staleness for throughput.
The scalar ``path()`` stays the right tool for single probes and
latency estimates.
"""

from __future__ import annotations

import enum

import numpy as np

from repro import obs
from repro.errors import RoutingError
from repro.fabric import batchroute
from repro.fabric.batchroute import DEFAULT_BATCH_CHUNK, BatchPaths
from repro.fabric.cache import LruCache
from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.topology import LinkKind, Topology
from repro.rng import RngLike, as_generator

__all__ = ["RoutingPolicy", "Router", "FatTreeRouter", "PATH_CACHE_SIZE",
           "DEFAULT_BATCH_CHUNK", "BatchPaths"]

#: Per-router LRU capacity for unregistered path queries.
PATH_CACHE_SIZE = 4096


class RoutingPolicy(enum.Enum):
    MINIMAL = "minimal"
    VALIANT = "valiant"
    UGAL = "ugal"


class _LoadTracker:
    """Per-link assigned-flow counters shared by the routers."""

    def __init__(self, n_links: int):
        self.counts = np.zeros(n_links, dtype=np.int64)

    def add_path(self, path: list[int]) -> None:
        np.add.at(self.counts, path, 1)

    def load(self, idx: int) -> int:
        return int(self.counts[idx])

    def reset(self) -> None:
        self.counts[:] = 0


class _RouterBase:
    """The state and operations both routers share.

    A subclass supplies :attr:`label` (path-cache key and span tag), its
    batch state and planner call (``_new_batch_state``/``_plan``) and
    ``_select``, the scalar path choice for one flow.
    """

    label: str

    def __init__(self, topo: Topology, config, rng: RngLike = None):
        self.topo = topo
        self.config = config
        self.rng = as_generator(rng)
        self._load = _LoadTracker(topo.n_links)
        self._path_cache = LruCache(maxsize=PATH_CACHE_SIZE)
        self._batch_state = None
        #: links the fabric manager has routed around (failed cables)
        self.disabled: set[int] = set()

    def reset_load(self) -> None:
        self._load.reset()
        self._path_cache.clear()

    @property
    def link_loads(self) -> np.ndarray:
        return self._load.counts.copy()

    def disable_link(self, index: int) -> None:
        """Route around a failed link (the Fabric Manager's job, §3.4.2)."""
        if not 0 <= index < self.topo.n_links:
            raise RoutingError(f"no link {index}")
        self.disabled.add(index)
        self._path_cache.clear()
        self._batch_state = None

    def enable_link(self, index: int) -> None:
        self.disabled.discard(index)
        self._path_cache.clear()
        self._batch_state = None

    def paths(self, pairs, *, chunk: int | None = None,
              register: bool = True) -> BatchPaths:
        """Plan every ``(src, dst)`` flow of a traffic phase at once.

        Vectorised counterpart of calling :meth:`path` in a loop; returns
        a :class:`~repro.fabric.batchroute.BatchPaths` CSR set in input
        order.  ``chunk`` bounds how stale the UGAL load feedback may get
        (default :func:`~repro.fabric.batchroute.auto_chunk`; ``chunk=1``
        is bit-identical to the scalar loop, and minimal, Valiant and
        ECMP paths are identical at any chunk).  With ``register=False``
        nothing is charged to the load tracker and results bypass the
        path cache.

        ``pairs`` may also be a ``(P, n, 2)`` stack of independent
        phases: the paths are phase-major and equal those of ``P``
        sequential ``reset_load(); paths(phase)`` calls, each phase
        starting from the load at call time (the default chunk is sized
        per phase).
        """
        n_flows = batchroute.phase_flows(pairs)
        if chunk is None:
            chunk = batchroute.auto_chunk(n_flows)
        if chunk < 1:
            raise RoutingError(f"chunk must be >= 1, got {chunk}")
        state = self._batch_state
        if state is None or state.flat is not self.topo.flat:
            state = self._batch_state = self._new_batch_state()
        with obs.span("fabric.batch_route", n_flows=n_flows, chunk=chunk,
                      policy=self.label):
            return self._plan(state, pairs, chunk, register)

    def path(self, src_ep: int, dst_ep: int, *, register: bool = True) -> list[int]:
        """Select a path (list of link indices) for one flow.

        With ``register=True`` the path's links are charged to the load
        tracker so later adaptive picks see this flow.  Disabled (failed)
        links are routed around where the fabric allows it.  Unregistered
        queries are served from the per-router LRU path cache (see the
        module docstring for why that is load-safe).
        """
        if src_ep == dst_ep:
            raise RoutingError("source and destination endpoints coincide")
        if not register:
            key = (src_ep, dst_ep, self.label)
            cached = self._path_cache.get(key)
            if cached is not None:
                obs.counter("fabric.path_cache.hits").inc()
                return list(cached)
            obs.counter("fabric.path_cache.misses").inc()
        path = self._select(src_ep, dst_ep)
        self.topo.validate_path(path)
        if any(i in self.disabled for i in path):  # pragma: no cover - guard
            raise RoutingError("internal: selected path crosses a failed link")
        if register:
            self._load.add_path(path)
        else:
            self._path_cache.put(key, tuple(path))
        return path

    def _edge_link(self, node_a, node_b) -> int:
        link = self.topo.link_between(node_a, node_b)
        if link is None:
            raise RoutingError(f"no link {node_a}->{node_b}")
        if link.index in self.disabled:
            raise RoutingError(f"link {node_a}->{node_b} is failed")
        return link.index


class Router(_RouterBase):
    """Dragonfly router implementing minimal / Valiant / UGAL path selection."""

    def __init__(self, topo: Topology, config: DragonflyConfig,
                 policy: RoutingPolicy = RoutingPolicy.UGAL,
                 rng: RngLike = None):
        super().__init__(topo, config, rng)
        self.policy = policy
        self._gateways = self._index_gateways()

    @property
    def label(self) -> str:
        return self.policy.value

    def _index_gateways(self) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
        """(src_group, dst_group) -> [(link_idx, src_switch, dst_switch)]."""
        gw: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for link in self.topo.links:
            if link.kind is not LinkKind.L2:
                continue
            sa, sb = link.src[1], link.dst[1]
            ga = self.topo.group_of_switch(sa)
            gb = self.topo.group_of_switch(sb)
            gw.setdefault((ga, gb), []).append((link.index, sa, sb))
        return gw

    def _new_batch_state(self) -> batchroute.DragonflyBatchState:
        return batchroute.DragonflyBatchState(
            self.topo, self.config, self._gateways, self.disabled)

    def _plan(self, state, pairs, chunk: int, register: bool) -> BatchPaths:
        # looked up at call time, so wrappers of the module attribute see it
        return batchroute.plan_dragonfly(self, state, pairs, chunk=chunk,
                                         register=register)

    def _select(self, src_ep: int, dst_ep: int) -> list[int]:
        """Inter-group flows take minimal, Valiant or UGAL paths; failed
        links are detoured intra-group via an intermediate switch and
        inter-group via surviving bundle lanes or a Valiant detour."""
        g_src = self.topo.group_of_endpoint(src_ep)
        g_dst = self.topo.group_of_endpoint(dst_ep)
        if g_src == g_dst:
            obs.counter("fabric.routes.local").inc()
            return self._local_path(src_ep, dst_ep)
        try:
            minimal = self._minimal_path(src_ep, dst_ep)
        except RoutingError:
            # every direct lane between the groups is down: detour
            obs.counter("fabric.routes.failover_valiant").inc()
            return self._valiant_path(src_ep, dst_ep)
        if self.policy is RoutingPolicy.MINIMAL:
            obs.counter("fabric.routes.minimal").inc()
            return minimal
        if self.policy is RoutingPolicy.VALIANT:
            obs.counter("fabric.routes.valiant").inc()
            return self._valiant_path(src_ep, dst_ep)
        # UGAL-L approximation: divert when the minimal path's most loaded
        # link carries more than twice the Valiant candidate's.
        valiant = self._valiant_path(src_ep, dst_ep)
        min_load = max((self._load.load(i) for i in minimal), default=0)
        val_load = max((self._load.load(i) for i in valiant), default=0)
        if min_load <= 2 * val_load + 1:
            obs.counter("fabric.routes.ugal_minimal").inc()
            return minimal
        obs.counter("fabric.routes.ugal_diverted").inc()
        return valiant

    def _local_path(self, src_ep: int, dst_ep: int) -> list[int]:
        """Within a group: at most one L1 hop (switches fully connected)."""
        sw_s = self.topo.switch_of_endpoint(src_ep)
        sw_d = self.topo.switch_of_endpoint(dst_ep)
        path = [self._edge_link(("ep", src_ep), ("sw", sw_s))]
        path += self._switch_segment(sw_s, sw_d)
        path.append(self._edge_link(("sw", sw_d), ("ep", dst_ep)))
        return path

    def _pick_gateway(self, g_src: int, g_dst: int) -> tuple[int, int, int]:
        """Least-loaded *surviving* global link between two groups."""
        candidates = [c for c in self._gateways.get((g_src, g_dst), [])
                      if c[0] not in self.disabled]
        if not candidates:
            raise RoutingError(f"groups {g_src} and {g_dst} have no "
                               "surviving direct links")
        loads = [self._load.load(idx) for idx, _, _ in candidates]
        best = int(np.argmin(loads))
        return candidates[best]

    def _switch_segment(self, sw_from: int, sw_to: int) -> list[int]:
        """Intra-group segment: empty if same switch, else one L1 hop —
        or two hops via an intermediate switch if the direct cable failed."""
        if sw_from == sw_to:
            return []
        try:
            return [self._edge_link(("sw", sw_from), ("sw", sw_to))]
        except RoutingError:
            group = self.topo.group_of_switch(sw_from)
            for mid in self.topo.switches_in_group(group):
                if mid in (sw_from, sw_to):
                    continue
                try:
                    return [self._edge_link(("sw", sw_from), ("sw", mid)),
                            self._edge_link(("sw", mid), ("sw", sw_to))]
                except RoutingError:
                    continue
            raise RoutingError(
                f"switches {sw_from} and {sw_to} are disconnected")

    def _minimal_path(self, src_ep: int, dst_ep: int) -> list[int]:
        sw_s = self.topo.switch_of_endpoint(src_ep)
        sw_d = self.topo.switch_of_endpoint(dst_ep)
        g_src = self.topo.group_of_switch(sw_s)
        g_dst = self.topo.group_of_switch(sw_d)
        glink, gw_s, gw_d = self._pick_gateway(g_src, g_dst)
        path = [self._edge_link(("ep", src_ep), ("sw", sw_s))]
        path += self._switch_segment(sw_s, gw_s)
        path.append(glink)
        path += self._switch_segment(gw_d, sw_d)
        path.append(self._edge_link(("sw", sw_d), ("ep", dst_ep)))
        return path

    def _valiant_path(self, src_ep: int, dst_ep: int) -> list[int]:
        """Route via a random intermediate group (two global hops).

        The intermediate group is drawn uniformly (one ``rng.random()``
        per flow — the batch planner draws the same stream in one
        vectorised call); on failure the remaining groups are retried in
        rotation order so a fabric with failed bundles still finds a
        detour if one exists.
        """
        sw_s = self.topo.switch_of_endpoint(src_ep)
        sw_d = self.topo.switch_of_endpoint(dst_ep)
        g_src = self.topo.group_of_switch(sw_s)
        g_dst = self.topo.group_of_switch(sw_d)
        choices = [g for g in range(self.config.groups) if g not in (g_src, g_dst)]
        if not choices:
            return self._minimal_path(src_ep, dst_ep)
        start = int(self.rng.random() * len(choices))
        order = [choices[(start + t) % len(choices)] for t in range(len(choices))]
        for g_mid in order:
            try:
                l1, gw_s, mid_in = self._pick_gateway(g_src, int(g_mid))
                l2, mid_out, gw_d = self._pick_gateway(int(g_mid), g_dst)
                path = [self._edge_link(("ep", src_ep), ("sw", sw_s))]
                path += self._switch_segment(sw_s, gw_s)
                path.append(l1)
                path += self._switch_segment(mid_in, mid_out)
                path.append(l2)
                path += self._switch_segment(gw_d, sw_d)
                path.append(self._edge_link(("sw", sw_d), ("ep", dst_ep)))
                return path
            except RoutingError:
                continue
        raise RoutingError(
            f"no surviving route from group {g_src} to {g_dst}")

    # -- path metrics ----------------------------------------------------------

    def switch_hops(self, path: list[int]) -> int:
        """Number of switch-to-switch hops in a path (paper's hop counting)."""
        return sum(1 for i in path
                   if self.topo.link(i).kind in (LinkKind.L1, LinkKind.L2))

    def global_hops(self, path: list[int]) -> int:
        return sum(1 for i in path if self.topo.link(i).kind is LinkKind.L2)


class FatTreeRouter(_RouterBase):
    """ECMP up/down routing on the folded Clos.

    ECMP uplink picks only depend on flows sharing the same source edge
    switch, so batch paths match the scalar loop at *any* chunk size.
    Failed uplinks are routed around; failed edge or down links raise.
    """

    label = "ecmp"

    def _new_batch_state(self) -> batchroute.FatTreeBatchState:
        return batchroute.FatTreeBatchState(self.topo, self.config,
                                            self.disabled)

    def _plan(self, state, pairs, chunk: int, register: bool) -> BatchPaths:
        return batchroute.plan_fattree(self, state, pairs, chunk=chunk,
                                       register=register)

    def _select(self, src_ep: int, dst_ep: int) -> list[int]:
        sw_s = self.topo.switch_of_endpoint(src_ep)
        sw_d = self.topo.switch_of_endpoint(dst_ep)
        path = [self._edge_link(("ep", src_ep), ("sw", sw_s))]
        if sw_s != sw_d:
            # pick the least-loaded surviving core plane
            E = self.config.edge_switches
            ups = [link for link in self.topo.out_links(("sw", sw_s))
                   if link.dst[0] == "sw" and link.dst[1] >= E
                   and link.index not in self.disabled]
            if not ups:
                raise RoutingError(
                    f"edge switch {sw_s} has no surviving uplinks")
            loads = [self._load.load(link.index) for link in ups]
            up = ups[int(np.argmin(loads))]
            core = up.dst
            down = self.topo.link_between(core, ("sw", sw_d))
            if down is None:
                raise RoutingError(f"core {core} does not reach edge {sw_d}")
            if down.index in self.disabled:
                # the matching downlink died: steer flows off this core
                # plane by disabling its uplink too (fabric-manager move)
                raise RoutingError(
                    f"core {core} link to edge {sw_d} is failed; disable "
                    f"uplink {up.index} to route around the plane")
            path += [up.index, down.index]
        path.append(self._edge_link(("sw", sw_d), ("ep", dst_ep)))
        return path
