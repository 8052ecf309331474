"""Vectorised batch routing engine over the fabric topologies.

The scalar routers (:mod:`repro.fabric.routing`) plan one flow at a time
through Python dict lookups — fine for latency probes, ruinous for
full-machine traffic phases where every endpoint injects simultaneously.
This module plans a whole phase at once on the flat-array topology views
(:class:`repro.fabric.topology.TopologyArrays`).  Both fabrics run one
planning loop (input and failed-link checks, edge links, phase-major
chunks, load charging, CSR output); each supplies only its per-chunk
routing step, and the dragonfly also its up-front local fill and Valiant
draws.  On the dragonfly:

* pairs are classified local / inter-group with array ops, and edge links
  are gathered in bulk;
* gateway selection is *sequential-equivalent*: the scalar router picks
  the least-loaded surviving global link (ties to insertion order) and
  immediately charges the chosen path, so later picks see earlier ones.
  Registered batch picks reproduce that exactly with a grouped
  water-fill — for each ordered group pair the sequence of sequential
  picks is the lexicographically smallest ``k`` elements of the multiset
  ``{(load[c] + s, c) : s >= 0}``, and the ``t``-th of them has a closed
  form over the row's sorted loads (O(candidates) per request, no sort
  over ``k``) — which is exact because an L2 link's load is only ever
  changed by flows routed through its own ordered group pair;
* the UGAL minimal-vs-Valiant decision runs in *chunked rounds*: within
  a chunk, decisions see the load snapshot at round start (gateway links
  see their water-filled pick-time load), and the chosen paths are
  charged in one ``bincount`` before the next round.  ``chunk=1``
  reproduces the scalar router's sequential semantics exactly and is the
  equivalence oracle used by the tests; larger chunks trade load-feedback
  staleness for throughput.  Minimal and Valiant policies have no
  cross-pair decision feedback, so their batch paths match the scalar
  router's at *any* chunk size;
* Valiant intermediate groups consume the router RNG flow-by-flow in
  scalar call order, so the RNG stream stays aligned with the scalar
  router across chunk sizes.

**Phase stacks.**  Both planners also accept ``P`` equal-length phases
at once, pairs shaped ``(P, n, 2)``; a single ``(n, 2)`` phase is the
``P = 1`` case of the same loop.  Each phase keeps its own load row of
a ``(P, n_links)`` array, every row starting from the router's load at
call time, and chunk ``j`` of every phase is planned in one loop
iteration (the chunk size is still per phase).  Requests of different
phases never share a water-fill group, and the Valiant draws are taken
up front in phase-major flow order, so a stack's paths, the RNG state
and the final load (the last phase's row) are bit-identical to ``P``
sequential ``reset_load(); paths(phase)`` calls.

Failed links are honoured the same way the scalar router honours them:
gateway candidates are filtered per ordered group pair, minimal routing
fails over to Valiant when a bundle is fully down, and intra-group
segments detour through an intermediate switch.  One deliberate
divergence: the scalar router retries *other* intermediate groups when an
intra-group segment inside a Valiant detour is disconnected (only
possible when a group's L1 mesh is partitioned); the batch engine raises
instead.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import RoutingError, TopologyError

__all__ = ["BatchPaths", "DEFAULT_BATCH_CHUNK", "auto_chunk", "phase_flows"]

#: Default UGAL round size for explicit callers: small enough that
#: adaptive decisions see reasonably fresh loads, large enough to
#: amortise the array ops.
DEFAULT_BATCH_CHUNK = 64


def auto_chunk(n_flows: int) -> int:
    """Adaptive UGAL round size: ~8 feedback rounds per phase.

    Small phases keep near-sequential load feedback (a 128-flow ablation
    run gets chunk 16); machine-scale phases amortise the array ops
    (2,048 flows get chunk 256), capped so feedback never goes fully
    stale.
    """
    return min(512, max(16, n_flows // 8))

# Column layout of the fixed-width path matrix (-1 = unused slot).  A
# row read left to right, skipping -1, is the flow's link-index path:
# [up edge | segment a | global 1 | mid segment | global 2 | segment b | down edge]
_W = 10
_UP, _SEG_A, _GL1, _SEG_M, _GL2, _SEG_B, _DOWN = 0, 1, 3, 4, 6, 7, 9

#: Sentinel load for padded gateway-table slots; far above any real count.
_PAD_LOAD = np.int64(1) << 40


class BatchPaths:
    """An immutable CSR set of flow paths.

    Flow ``f`` traverses ``indices[indptr[f]:indptr[f + 1]]`` in order.
    This is the zero-copy interchange format between the batch planners,
    :func:`repro.fabric.maxmin.maxmin_allocate` (which builds its sparse
    incidence straight from these arrays), and the load tracker.
    """

    __slots__ = ("indices", "indptr")

    def __init__(self, indices: np.ndarray, indptr: np.ndarray):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "BatchPaths":
        """Compress a fixed-width path matrix (-1 padded) to CSR."""
        valid = matrix >= 0
        return cls(matrix[valid], np.concatenate(
            ([0], np.cumsum(valid.sum(axis=1)))))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def lengths(self) -> np.ndarray:
        """Per-flow hop counts."""
        return np.diff(self.indptr)

    def path(self, flow: int) -> list[int]:
        """Flow ``flow``'s path as a plain link-index list."""
        return self.indices[self.indptr[flow]:self.indptr[flow + 1]].tolist()

    def to_lists(self) -> list[list[int]]:
        """Every path as a list of lists (test/debug convenience)."""
        return [self.path(f) for f in range(len(self))]


def phase_flows(pairs) -> int:
    """Flows per phase of one ``(n, 2)`` phase or a ``(P, n, 2)`` stack."""
    shape = np.shape(pairs)
    return shape[1] if len(shape) == 3 else len(pairs)


def _as_pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray, int]:
    """Normalise ``[(src, dst), ...]``, an ``(n, 2)`` array or a
    ``(P, n, 2)`` stack to phase-major columns plus the phase count."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim == 3 and arr.shape[2] == 2:
        n_phases, arr = arr.shape[0], arr.reshape(-1, 2)
    elif arr.ndim == 2 and arr.shape[1] == 2:
        n_phases = 1
    else:
        raise RoutingError("pairs must be a sequence of (src, dst) tuples")
    return (np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1]),
            n_phases)


def _phase_loads(counts: np.ndarray, n_phases: int) -> np.ndarray:
    """``(P, n_links)`` load rows, each a copy of the router's ``counts``.

    A single phase charges the router's own array through a view, so its
    load is live as it is charged, as with a one-phase planner.
    """
    return counts[None] if n_phases == 1 else np.tile(counts, (n_phases, 1))


def _charge(loads: np.ndarray, block: np.ndarray, phase: np.ndarray) -> None:
    """Charge each row of a ``-1``-padded path block to its phase's load."""
    valid = block >= 0
    if valid.any():
        n_links = loads.shape[1]
        flat = loads.reshape(-1)
        flat += np.bincount((block + (phase * n_links)[:, None])[valid],
                            minlength=flat.size)


def _check_endpoints(flat, eps: np.ndarray) -> None:
    if eps.size == 0:
        return
    n = len(flat.endpoint_switch)
    bad = (eps < 0) | (eps >= n)
    if not bad.any():
        bad = flat.endpoint_switch[eps] < 0
    if bad.any():
        raise TopologyError(
            f"unknown endpoint {int(eps[np.flatnonzero(bad)[0]])}")


def _grouped_waterfill(table: np.ndarray, loads: np.ndarray, pid: np.ndarray,
                       order: np.ndarray, register: bool,
                       phase: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sequential-equivalent least-loaded picks for one chunk of requests.

    ``table`` is a padded ``(n_pids, m)`` candidate-link table, ``loads``
    the per-link load snapshot, ``pid`` the candidate-row id per request,
    and ``order`` the global flow order (requests of one pid are served
    in ascending ``order``).  With ``phase`` given, ``loads`` is a
    ``(P, n_links)`` stack and each request reads its own phase's row;
    requests of different phases never share a group.  Returns, aligned
    with the request arrays: the picked candidate column, the pick-time
    implied load, and the picked link index.  ``register=False``
    (unregistered queries) gives every request the plain snapshot argmin,
    matching a scalar router that never charges the load tracker.
    """
    key = pid if phase is None else phase * len(table) + pid
    sort = np.lexsort((order, key))
    skey = key[sort]
    starts = np.empty(len(skey), dtype=bool)
    starts[0], starts[1:] = True, skey[1:] != skey[:-1]
    grp = np.cumsum(starts) - 1
    rank = np.arange(len(skey)) - np.flatnonzero(starts)[grp]
    if not register:
        rank = np.zeros_like(rank)
    upid = pid[sort][starts]

    links = table[upid]                                   # (p, m)
    m = links.shape[1]
    clipped = np.clip(links, 0, None)
    if phase is not None:
        clipped = (phase[sort][starts][:, None], clipped)
    cand_loads = np.where(links >= 0, loads[clipped], _PAD_LOAD)
    # The t-th sequential pick of a row is the t-th lexicographically
    # smallest (load + s, candidate) over s >= 0, in closed form.  With
    # the row's loads sorted, Ls[0] <= ... <= Ls[m-1], the level Ls[i] is
    # reached after brk[i] = sum_{j<i} (Ls[i] - Ls[j]) picks; rank t
    # fills at level lam = Ls[i] + (t - brk[i]) // (i + 1) for the last i
    # with brk[i] <= t, and takes the ((t - brk[i]) % (i + 1))-th
    # lowest-column candidate whose load is <= lam.
    by_load = np.sort(cand_loads, axis=1)
    brk = np.arange(m) * by_load - (np.cumsum(by_load, axis=1) - by_load)
    req_brk = brk[grp]                                    # (n, m)
    i = (req_brk <= rank[:, None]).sum(axis=1) - 1
    over = rank - req_brk[np.arange(len(rank)), i]
    level = by_load[grp, i] + over // (i + 1)
    filled = np.cumsum(cand_loads[grp] <= level[:, None], axis=1)
    cand_req = np.argmax(filled > (over % (i + 1))[:, None], axis=1)

    out_cand = np.empty_like(cand_req)
    out_cand[sort] = cand_req
    out_implied = np.empty(len(pid), dtype=np.int64)
    out_implied[sort] = level
    out_link = np.empty(len(pid), dtype=np.int64)
    out_link[sort] = table[pid[sort], cand_req]
    return out_cand, out_implied, out_link


class _BatchState:
    """Static planning tables for one (topology, disabled-set) epoch.

    Everything here depends only on the materialised topology and the
    router's failed-link set, not on loads, so the router caches one
    instance until ``disable_link`` / ``enable_link`` invalidates it.
    """

    def __init__(self, topo, config, disabled: set[int]):
        self.topo = topo
        self.flat = topo.flat
        self.config = config
        self.disabled_mask = np.zeros(topo.n_links, dtype=bool)
        if disabled:
            self.disabled_mask[np.fromiter(disabled, dtype=np.int64,
                                           count=len(disabled))] = True


def _plan_phases(router, state: _BatchState, pairs, chunk: int,
                 register: bool, width: int, setup) -> BatchPaths:
    """The planning loop both fabrics share; paths are phase-major.

    Checks the pairs, lays the edge links into the first and last
    columns of a ``-1``-padded ``(flows, width)`` path matrix ``M`` and
    runs the phase-major chunk loop.  The fabric's
    ``setup(src, dst, M, phase, loads)`` does its load-independent work
    and returns ``(routed, step)``: the mask of flows that need a routing
    step, and ``step(rows)``, which plans one chunk's such rows into ``M``.
    """
    src, dst, n_phases = _as_pair_arrays(pairs)
    n = len(src) // max(n_phases, 1)
    flat = state.flat
    _check_endpoints(flat, src)
    _check_endpoints(flat, dst)
    if (src == dst).any():
        raise RoutingError("source and destination endpoints coincide")
    if n == 0:
        return BatchPaths(np.empty(0, np.int64), np.zeros(1, np.int64))

    up = flat.ep_up_link[src]
    down = flat.ep_down_link[dst]
    if (up < 0).any() or (down < 0).any():
        raise RoutingError("an endpoint has no edge link")
    edge_dead = state.disabled_mask[up] | state.disabled_mask[down]
    if edge_dead.any():
        f = int(np.flatnonzero(edge_dead)[0])
        raise RoutingError(
            f"edge link of endpoint pair ({int(src[f])}, {int(dst[f])}) "
            "is failed")
    M = np.full((len(src), width), -1, dtype=np.int64)
    M[:, 0] = up
    M[:, -1] = down
    counts = router._load.counts
    loads = _phase_loads(counts, n_phases)
    phase = np.repeat(np.arange(n_phases), n)
    routed, step = setup(src, dst, M, phase, loads)

    n_chunks = 0
    offsets = np.arange(n_phases)[:, None] * n
    for lo in range(0, n, chunk):
        # chunk j of every phase, phase-major
        rows = (offsets + np.arange(lo, min(lo + chunk, n))).ravel()
        n_chunks += n_phases
        todo = rows[routed[rows]]
        if todo.size:
            step(todo)
        if register:
            _charge(loads, M[rows], phase[rows])
    if register and n_phases > 1:
        counts[:] = loads[-1]

    paths = BatchPaths.from_matrix(M)
    state.topo.validate_paths(paths.indices, paths.indptr)
    if state.disabled_mask[paths.indices].any():  # pragma: no cover - guard
        raise RoutingError("internal: selected path crosses a failed link")
    obs.counter("fabric.batch_route.flows").inc(len(src))
    obs.counter("fabric.batch_route.chunks").inc(n_chunks)
    return paths


class DragonflyBatchState(_BatchState):
    """Gateway tables and segment detours for the dragonfly planner."""

    def __init__(self, topo, config, gateways: dict, disabled: set[int]):
        super().__init__(topo, config, disabled)
        G = config.groups
        self.n_groups = G
        surviving: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        width = 1
        for pair, cands in gateways.items():
            alive = [c for c in cands if c[0] not in disabled]
            if alive:
                surviving[pair] = alive
                width = max(width, len(alive))
        #: padded per-ordered-pair gateway tables, indexed by ga * G + gb
        self.gw_link = np.full((G * G, width), -1, dtype=np.int64)
        self.gw_src = np.full((G * G, width), -1, dtype=np.int64)
        self.gw_dst = np.full((G * G, width), -1, dtype=np.int64)
        self.pair_ok = np.zeros((G, G), dtype=bool)
        for (ga, gb), alive in surviving.items():
            row = ga * G + gb
            for col, (link, sa, sb) in enumerate(alive):
                self.gw_link[row, col] = link
                self.gw_src[row, col] = sa
                self.gw_dst[row, col] = sb
            self.pair_ok[ga, gb] = True

        off_diag = ~np.eye(G, dtype=bool)
        #: no failures anywhere: every Valiant mid is feasible, skip checks
        self.all_ok = not disabled and bool(self.pair_ok[off_diag].all())
        self._segments: dict[tuple[int, int], tuple[int, ...]] = {}

    # -- intra-group switch segments ------------------------------------

    def segment_cols(self, frm: np.ndarray, to: np.ndarray) -> np.ndarray:
        """(n, 2) link-index columns for intra-group segments (-1 padded)."""
        out = np.full((len(frm), 2), -1, dtype=np.int64)
        idx = np.flatnonzero(frm != to)
        if idx.size == 0:
            return out
        direct = self.flat.sw_link[frm[idx], to[idx]].astype(np.int64)
        good = (direct >= 0) & ~self.disabled_mask[np.clip(direct, 0, None)]
        out[idx[good], 0] = direct[good]
        for i in idx[~good]:
            seg = self._segment_detour(int(frm[i]), int(to[i]))
            out[i, :len(seg)] = seg
        return out

    def _segment_detour(self, sw_from: int, sw_to: int) -> tuple[int, ...]:
        """Two-hop detour around a failed direct cable (memoized)."""
        key = (sw_from, sw_to)
        seg = self._segments.get(key)
        if seg is None:
            seg = self._compute_detour(sw_from, sw_to)
            self._segments[key] = seg
        return seg

    def _compute_detour(self, sw_from: int, sw_to: int) -> tuple[int, ...]:
        # Mirrors Router._switch_segment: first live intermediate switch
        # in ascending order within the group.
        def live(a: int, b: int) -> int | None:
            link = self.flat.sw_link[a, b]
            if link >= 0 and not self.disabled_mask[link]:
                return int(link)
            return None

        group = int(self.flat.switch_group[sw_from])
        for mid in self.topo.switches_in_group(group):
            if mid in (sw_from, sw_to):
                continue
            first, second = live(sw_from, mid), live(mid, sw_to)
            if first is not None and second is not None:
                obs.counter("fabric.batch_route.segment_fallbacks").inc()
                return (first, second)
        raise RoutingError(f"switches {sw_from} and {sw_to} are disconnected")


def plan_dragonfly(router, state: DragonflyBatchState, pairs, *,
                   chunk: int, register: bool = True) -> BatchPaths:
    """Plan every flow of a traffic phase, or of a ``(P, n, 2)`` stack of
    phases, on a dragonfly (see module doc); paths are phase-major."""
    from repro.fabric.routing import RoutingPolicy

    policy = router.policy
    n_routed = dict.fromkeys(("local", "minimal", "valiant", "ugal_minimal",
                              "ugal_diverted", "failover_valiant"), 0)

    def setup(src, dst, M, phase, loads):
        flat = state.flat
        sw_s = flat.endpoint_switch[src]
        sw_d = flat.endpoint_switch[dst]
        g_s = flat.switch_group[sw_s]
        g_d = flat.switch_group[sw_d]
        G = state.n_groups
        val_is_min = G <= 2      # no intermediate groups: Valiant == minimal
        local = g_s == g_d
        li = np.flatnonzero(local)
        if li.size:
            # Local paths are load-independent: fill all rows up front;
            # they still register chunk-by-chunk, interleaved with
            # inter-group flows, so adaptive decisions see them in
            # scalar order.
            M[li, _SEG_A:_SEG_A + 2] = state.segment_cols(sw_s[li], sw_d[li])
        n_routed["local"] = int(li.size)

        # Valiant intermediate groups: Router._valiant_path draws one
        # rng.random() per flow and rotates from that start.  Which flows
        # draw depends only on the policy and the surviving group pairs,
        # so every draw is taken here in one call, in phase-major flow
        # order: rng.random(a) then rng.random(b) is the stream of
        # rng.random(a + b), which keeps the batch RNG-aligned with the
        # scalar router at every chunk size and phase count.
        if val_is_min:
            draws = np.zeros(len(src), dtype=bool)
        elif policy is RoutingPolicy.MINIMAL:
            draws = ~local & ~state.pair_ok[g_s, g_d]
        else:
            draws = ~local
        start = np.zeros(len(src), dtype=np.int64)
        if draws.any():
            start[draws] = (router.rng.random(int(draws.sum()))
                            * (G - 2)).astype(np.int64)

        def step(ii):
            _plan_inter_chunk(state, M, ii, phase[ii], sw_s, sw_d, g_s, g_d,
                              start, loads, policy, val_is_min, register,
                              n_routed)
        return ~local, step

    paths = _plan_phases(router, state, pairs, chunk, register, _W, setup)
    if policy is RoutingPolicy.UGAL:
        keys = ("local", "ugal_minimal", "ugal_diverted", "failover_valiant")
    elif policy is RoutingPolicy.VALIANT:
        keys = ("local", "valiant", "failover_valiant")
    else:
        keys = ("local", "minimal", "failover_valiant")
    for key in keys:
        if n_routed[key]:
            obs.counter(f"fabric.routes.{key}").inc(n_routed[key])
    return paths


def _plan_inter_chunk(state: DragonflyBatchState, M: np.ndarray,
                      ii: np.ndarray, ph: np.ndarray, sw_s, sw_d, g_s, g_d,
                      start: np.ndarray, loads: np.ndarray, policy,
                      val_is_min: bool, register: bool,
                      n_routed: dict) -> None:
    """Plan one chunk's inter-group flows into rows ``ii`` of ``M``.

    ``ph`` is each row's phase (its row of ``loads``), ``start`` the
    pre-drawn Valiant rotation start per row.
    """
    from repro.fabric.routing import RoutingPolicy

    G = state.n_groups
    gs, gd = g_s[ii], g_d[ii]
    feas = state.pair_ok[gs, gd]
    if val_is_min and not feas.all():
        a, b = (int(x) for x in (gs[~feas][0], gd[~feas][0]))
        raise RoutingError(
            f"groups {a} and {b} have no surviving direct links")

    # Which flows need which candidate?  The scalar router's throwaway
    # minimal computation under the VALIANT policy is pure (no load or
    # RNG effect), so it is skipped here.
    if policy is RoutingPolicy.VALIANT and not val_is_min:
        need_min = np.zeros(len(ii), dtype=bool)
    else:
        need_min = feas
    if val_is_min:
        need_val = np.zeros(len(ii), dtype=bool)
    elif policy is RoutingPolicy.MINIMAL:
        need_val = ~feas
    else:
        need_val = np.ones(len(ii), dtype=bool)

    vi = np.flatnonzero(need_val)
    mids = np.empty(len(vi), dtype=np.int64)
    if len(vi):
        m = G - 2
        first = start[ii[vi]]
        lo = np.minimum(gs[vi], gd[vi])
        hi = np.maximum(gs[vi], gd[vi])
        # position -> group id over range(G) minus the two excluded ids
        mids = first + (first >= lo)
        mids += mids >= hi
        if not state.all_ok:
            ok = state.pair_ok[gs[vi], mids] & state.pair_ok[mids, gd[vi]]
            for slot in np.flatnonzero(~ok):
                a, b = int(gs[vi[slot]]), int(gd[vi[slot]])
                for t in range(1, m):
                    p = (int(first[slot]) + t) % m
                    g_mid = p + (p >= lo[slot])
                    g_mid += g_mid >= hi[slot]
                    if state.pair_ok[a, g_mid] and state.pair_ok[g_mid, b]:
                        mids[slot] = g_mid
                        break
                else:
                    raise RoutingError(
                        f"no surviving route from group {a} to {b}")

    # Gateway picks for all three request streams in one water-fill.
    mi = np.flatnonzero(need_min)
    nm, nv = len(mi), len(vi)
    pid = np.concatenate((gs[mi] * G + gd[mi],
                          gs[vi] * G + mids,
                          mids * G + gd[vi]))
    order = np.concatenate((ii[mi], ii[vi], ii[vi]))
    cand, implied, _link = _grouped_waterfill(
        state.gw_link, loads, pid, order, register,
        phase=np.concatenate((ph[mi], ph[vi], ph[vi])))
    gl = state.gw_link[pid, cand]
    gw_a = state.gw_src[pid, cand]
    gw_b = state.gw_dst[pid, cand]

    rows_min = rows_val = None
    if nm:
        rows_min = np.full((nm, _W), -1, dtype=np.int64)
        sel = ii[mi]
        rows_min[:, _UP] = M[sel, _UP]
        rows_min[:, _SEG_A:_SEG_A + 2] = state.segment_cols(sw_s[sel],
                                                            gw_a[:nm])
        rows_min[:, _GL1] = gl[:nm]
        rows_min[:, _SEG_B:_SEG_B + 2] = state.segment_cols(gw_b[:nm],
                                                            sw_d[sel])
        rows_min[:, _DOWN] = M[sel, _DOWN]
    if nv:
        rows_val = np.full((nv, _W), -1, dtype=np.int64)
        sel = ii[vi]
        l1, l2 = gl[nm:nm + nv], gl[nm + nv:]
        rows_val[:, _UP] = M[sel, _UP]
        rows_val[:, _SEG_A:_SEG_A + 2] = state.segment_cols(sw_s[sel],
                                                            gw_a[nm:nm + nv])
        rows_val[:, _GL1] = l1
        rows_val[:, _SEG_M:_SEG_M + 2] = state.segment_cols(gw_b[nm:nm + nv],
                                                            gw_a[nm + nv:])
        rows_val[:, _GL2] = l2
        rows_val[:, _SEG_B:_SEG_B + 2] = state.segment_cols(gw_b[nm + nv:],
                                                            sw_d[sel])
        rows_val[:, _DOWN] = M[sel, _DOWN]

    failover = int((~feas).sum())
    if policy is RoutingPolicy.MINIMAL or val_is_min:
        if nm:
            M[ii[mi]] = rows_min
        if nv:
            M[ii[vi]] = rows_val
        if policy is RoutingPolicy.MINIMAL:
            n_routed["minimal"] += nm
        elif policy is RoutingPolicy.VALIANT:
            n_routed["valiant"] += nm
        else:
            n_routed["ugal_minimal"] += nm
        n_routed["failover_valiant"] += failover
        return

    if policy is RoutingPolicy.VALIANT:
        M[ii[vi]] = rows_val
        n_routed["valiant"] += int(feas.sum())
        n_routed["failover_valiant"] += failover
        return

    # UGAL: compare the most-loaded link of each candidate.  Gateway
    # columns use their water-filled pick-time load; every other link
    # uses the round-start snapshot.  At chunk=1 both equal the live
    # counts, reproducing the scalar decision exactly.
    if nm == 0:
        M[ii] = rows_val
        n_routed["failover_valiant"] += failover
        return
    min_loads = np.where(rows_min >= 0,
                         loads[ph[mi, None], np.clip(rows_min, 0, None)], -1)
    min_loads[:, _GL1] = implied[:nm]
    min_load = min_loads.max(axis=1)
    val_loads = np.where(rows_val >= 0,
                         loads[ph[vi, None], np.clip(rows_val, 0, None)], -1)
    val_loads[:, _GL1] = implied[nm:nm + nv]
    val_loads[:, _GL2] = implied[nm + nv:]
    val_load = val_loads.max(axis=1)

    # need_val is all-ones for UGAL, so valiant rows align with ii.
    take_min = min_load <= 2 * val_load[mi] + 1
    M[ii[mi[take_min]]] = rows_min[take_min]
    M[ii[mi[~take_min]]] = rows_val[mi[~take_min]]
    infeasible = np.flatnonzero(~feas)
    M[ii[infeasible]] = rows_val[infeasible]
    n_routed["ugal_minimal"] += int(take_min.sum())
    n_routed["ugal_diverted"] += int((~take_min).sum())
    n_routed["failover_valiant"] += failover


class FatTreeBatchState(_BatchState):
    """Uplink tables for the ECMP planner.

    Failed uplinks are dropped from the candidate tables (the scalar
    router filters the same ordered list, so water-filled picks stay
    sequential-equivalent); failed edge or down links raise at plan time,
    mirroring the scalar router.
    """

    def __init__(self, topo, config, disabled: set[int]):
        super().__init__(topo, config, disabled)
        E = config.edge_switches
        uplinks: list[list[int]] = []
        cores: list[list[int]] = []
        width = 1
        for e in range(E):
            ups = [link for link in topo.out_links(("sw", e))
                   if link.dst[0] == "sw" and link.dst[1] >= E
                   and link.index not in disabled]
            uplinks.append([link.index for link in ups])
            cores.append([link.dst[1] for link in ups])
            width = max(width, len(ups))
        #: padded (E, width) uplink link-index / core-switch tables
        self.up_link = np.full((E, width), -1, dtype=np.int64)
        self.up_core = np.full((E, width), -1, dtype=np.int64)
        for e in range(E):
            self.up_link[e, :len(uplinks[e])] = uplinks[e]
            self.up_core[e, :len(cores[e])] = cores[e]
        self.has_uplink = self.up_link[:, 0] >= 0


def plan_fattree(router, state: FatTreeBatchState, pairs, *,
                 chunk: int, register: bool = True) -> BatchPaths:
    """Plan every flow of a traffic phase, or of a ``(P, n, 2)`` stack of
    phases, on the folded Clos (ECMP); paths are phase-major."""
    flat = state.flat

    def setup(src, dst, M, phase, loads):
        sw_s = flat.endpoint_switch[src]
        sw_d = flat.endpoint_switch[dst]

        def step(ci):
            edges = sw_s[ci]
            if not state.has_uplink[edges].all():
                e = int(edges[~state.has_uplink[edges]][0])
                raise RoutingError(
                    f"edge switch {e} has no surviving uplinks")
            cand, _implied, up = _grouped_waterfill(
                state.up_link, loads, edges, ci, register, phase=phase[ci])
            core = state.up_core[edges, cand]
            downlink = flat.sw_link[core, sw_d[ci]].astype(np.int64)
            if (downlink < 0).any():
                at = int(np.flatnonzero(downlink < 0)[0])
                raise RoutingError(
                    f"core {('sw', int(core[at]))} does not reach edge "
                    f"{int(sw_d[ci][at])}")
            if state.disabled_mask[downlink].any():
                at = int(np.flatnonzero(state.disabled_mask[downlink])[0])
                raise RoutingError(
                    f"core {('sw', int(core[at]))} link to edge "
                    f"{int(sw_d[ci][at])} is failed; disable uplink "
                    f"{int(up[at])} to route around the plane")
            M[ci, 1] = up
            M[ci, 2] = downlink
        return sw_s != sw_d, step

    return _plan_phases(router, state, pairs, chunk, register, 4, setup)
