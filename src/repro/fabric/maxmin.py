"""Max-min fair bandwidth allocation by progressive filling.

Given link capacities and a set of flows (each a list of link indices), the
classic water-filling algorithm raises every unfrozen flow's rate at the
same speed; when a link saturates, all flows crossing it freeze at their
current rate.  The result is the unique max-min fair allocation, which is a
good steady-state model for credit-based, congestion-controlled fabrics
like Slingshot (and for InfiniBand under static routing).

The implementation is event-driven over a link-major incidence (each
link's flows, ascending) and applies the freeze events in *rounds*: a
round takes the links with the lowest saturation levels from a blocked
minimum index, groups equal levels into events, and applies the longest
run of them that provably happens in the sequential event order (no
event touches a later event's links, and no touched link's level can
drop, by rounding, to a later event's level), with one
``np.subtract.at`` that charges every link the same float subtractions
in the same order as one event at a time.  One full-Frontier mpiGraph
shift phase (37,888 flows over 170,792 links, ~2,300-3,000 freeze events
in ~130-170 rounds) solves in ~0.09-0.12 s on one core of a shared
2-vCPU VM, against 0.15-0.19 s one event at a time.

Independent phases of flows solve as one problem: tile the capacities
``P`` times and offset phase ``p``'s link ids by ``p * n_links``
(:meth:`repro.fabric.network.FabricNetwork.phase_bandwidths` does this
for a whole mpiGraph run).  The problem is block-diagonal, so each
phase's freeze events, levels and per-link sums are those of its lone
solve and the rates, bottlenecks and utilisation are byte-equal; equal
levels of different phases merge into one event, which is where the
stack saves its per-event cost.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import SimulationError

__all__ = ["maxmin_allocate", "MaxMinResult"]


class MaxMinResult:
    """Allocation produced by :func:`maxmin_allocate`."""

    def __init__(self, rates: np.ndarray, link_utilisation: np.ndarray,
                 bottleneck_link: np.ndarray):
        #: bytes/s per flow, max-min fair
        self.rates = rates
        #: fraction of each link's capacity in use
        self.link_utilisation = link_utilisation
        #: index of the link that froze each flow (-1 if the flow was never
        #: constrained, which can only happen for flows with empty paths)
        self.bottleneck_link = bottleneck_link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MaxMinResult(n_flows={len(self.rates)}, "
                f"max_util={self.link_utilisation.max():.3f})")


#: Links per block of the saturation-level minimum index: a round reads
#: the blocks with the lowest minima, and re-minimises a block only when
#: a changed link made it stale and a round reaches it.
_BLOCK = 64

#: Blocks a round's candidate window starts at; each round doubles it
#: when it applied every candidate event and halves it when it applied
#: under half of them.
_WINDOW = 16

#: ``2**-50 = 8u`` (``u = 2**-53``, the float64 unit roundoff): while
#: some of a link's ``n`` active flows freeze at levels no higher than
#: its own, its computed level ``t`` stays above ``t * (1 - 4 n**3 u)``
#: (each event loses at most ``(n**2 + 3) u`` relative to the rounding
#: of ``head / n`` and of its ``k < n`` subtractions, and at most ``n``
#: events touch it); twice that is the margin a round keeps.
_DRIFT = 2.0 ** -50


def _as_csr(paths) -> tuple[np.ndarray, np.ndarray]:
    """``(indices, indptr)`` of a CSR path set or of per-flow link lists."""
    if hasattr(paths, "indptr"):
        return (np.asarray(paths.indices, dtype=np.int64),
                np.asarray(paths.indptr, dtype=np.int64))
    lens = np.fromiter((len(p) for p in paths), dtype=np.int64,
                       count=len(paths))
    indptr = np.concatenate(([0], np.cumsum(lens)))
    indices = np.fromiter(chain.from_iterable(paths), dtype=np.int64,
                          count=int(indptr[-1]))
    return indices, indptr


def _gather(indptr: np.ndarray, rows: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Positions of CSR ``rows``' entries, row after row, and row lengths."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.arange(lens.sum()) - np.repeat(ends - lens - starts, lens), lens


def _next_live(active: np.ndarray, order: np.ndarray, ptr: int) -> int:
    """First position ``>= ptr`` of ``order`` naming an active flow (or
    ``len(order)``), searched in doubling windows: linear in the
    positions skipped."""
    step = 64
    while ptr < len(order):
        live = np.flatnonzero(active[order[ptr:ptr + step]])
        if live.size:
            return ptr + int(live[0])
        ptr += step
        step *= 2
    return len(order)


def maxmin_allocate(capacities: Sequence[float],
                    paths,
                    demands: Sequence[float] | None = None,
                    max_iterations: int | None = None) -> MaxMinResult:
    """Compute the max-min fair rate for each flow.

    Parameters
    ----------
    capacities:
        Per-link capacity in bytes/s (dense link indexing); each must be
        positive (``inf`` is an unconstrained link).
    paths:
        One link-index list per flow, or a CSR path set (anything with
        ``indices``/``indptr``, e.g. the batch planner's
        :class:`~repro.fabric.batchroute.BatchPaths`); lists are
        compacted to CSR once.  A path crosses each link at most once.
        A flow with an empty path is unconstrained (rate = demand or
        +inf).
    demands:
        Optional per-flow rate caps (e.g. the sender's injection limit),
        each ``>= 0`` (``inf`` = elastic).  ``None`` means every flow is
        elastic.
    max_iterations:
        Most freeze events before the solve gives up (default: one per
        link and flow, more than a solve can take).

    Bad input (a NaN or non-positive capacity, a NaN or negative demand,
    a link index outside ``[0, len(capacities))``, a path that repeats a
    link) raises :class:`~repro.errors.SimulationError`.

    Invariants (asserted by the property tests):

    * feasibility: for every link, the sum of crossing rates <= capacity;
    * saturation: every flow's bottleneck link is fully utilised;
    * fairness: no flow can be raised without lowering a flow whose rate is
      already lower or equal.
    """
    n_links = len(capacities)
    cap = np.asarray(capacities, dtype=np.float64)
    if not np.all(cap > 0):  # NaN fails too
        raise SimulationError("all link capacities must be positive")
    f_indices, f_indptr = _as_csr(paths)
    n_flows = len(f_indptr) - 1
    if n_flows == 0:
        return MaxMinResult(np.zeros(0), np.zeros(n_links), np.zeros(0, dtype=np.int64))
    if f_indices.size and (f_indices.min() < 0 or f_indices.max() >= n_links):
        raise SimulationError(
            f"a path crosses a link outside [0, {n_links})")

    dem = (np.full(n_flows, np.inf) if demands is None
           else np.asarray(demands, dtype=np.float64))
    if dem.shape != (n_flows,):
        raise SimulationError("demands must have one entry per flow")
    if not np.all(dem >= 0):  # NaN fails too
        raise SimulationError("demands must be non-negative numbers")

    # link-major incidence, flows ascending within each link: one sort
    # of the distinct (link, flow) keys; a repeated link repeats a key
    lens = np.diff(f_indptr)
    cols = np.repeat(np.arange(n_flows), lens)
    keys = f_indices * n_flows
    keys += cols
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise SimulationError("a path crosses the same link twice")
    nnz_flow = np.remainder(keys, n_flows, out=keys)
    #: flows per link, plus a spare link ``n_links`` that pads
    #: ``path_links``: it starts unused, goes negative, and never saturates
    n_active = np.bincount(f_indices, minlength=n_links + 1)
    indptr = np.concatenate(([0], np.cumsum(n_active)))

    rates = np.zeros(n_flows)
    bottleneck = np.full(n_flows, -1, dtype=np.int64)
    # Flows with no links are only demand-limited.
    active = lens > 0
    if np.any(~active & ~np.isfinite(dem)):
        raise SimulationError("unbounded allocation: a flow has no "
                              "constraining link and no demand cap")
    rates[~active] = dem[~active]

    limit = max_iterations if max_iterations is not None else n_links + n_flows + 1
    iterations = rounds = 0
    # Event-driven water filling.  Every active flow's rate is the common
    # water level (all start at zero and rise at the same speed), so the
    # fill is a sequence of freeze events at increasing levels: a link
    # saturates at level (capacity - frozen traffic) / active flows, a
    # demand cap binds when the level reaches it.  Each round reads only
    # the lowest blocks of ``t_sat``'s per-block minima and touches only
    # the frozen flows' own links — never a full O(n_links) scan.
    n_active = n_active.astype(np.float64)
    #: how far below its level a link's level can round while some of
    #: its flows freeze (see ``_DRIFT``; its first flow count bounds n)
    slack = 1.0 - n_active * n_active * n_active * _DRIFT
    width = int(lens.max())
    path_links = np.full((n_flows, width), n_links, dtype=np.int64)
    path_links[cols, np.arange(f_indices.size)
               - np.repeat(f_indptr[:-1], lens)] = f_indices
    del cols

    #: capacity not yet claimed by frozen flows
    head_cap = np.append(cap, np.inf)
    n_blocks = n_links // _BLOCK + 1
    blocks = np.full((n_blocks, _BLOCK), np.inf)
    #: saturation level per link (a view of ``blocks``; inf once frozen)
    t_sat = blocks.reshape(-1)[:n_links + 1]
    t_sat[:] = np.where(n_active > 0,
                        head_cap / np.maximum(n_active, 1.0), np.inf)
    block_min = blocks.min(axis=1)
    stale = np.zeros(n_blocks, dtype=bool)
    #: scratch: candidate link -> its event in a round, else -1
    link_event = np.full(n_links + 1, -1, dtype=np.int32)
    #: scratch: flow -> its first candidate in a round, else ``n_links``
    first_key = np.full(n_flows, n_links, dtype=np.int64)
    window = _WINDOW
    # Demand-cap events in ascending order; the pointer skips flows that
    # a link froze first, but only once the level reaches its demand.
    # Infinite demands sort last and never fire.
    cap_order = np.argsort(dem, kind="stable")
    by_demand = dem[cap_order]
    cap_ptr = 0
    n_remaining = int(active.sum())
    with obs.span("fabric.maxmin_allocate", n_flows=n_flows, n_links=n_links):
        while n_remaining:
            if iterations >= limit:
                raise SimulationError("max-min allocation did not converge")
            rounds += 1
            # the window's cutoff: the ``window``-th lowest block minimum,
            # once every block at or below it is exact
            while True:
                n_finite = int(np.isfinite(block_min).sum())
                if not n_finite:
                    hi = t_link = np.inf
                    break
                w = min(window, n_finite) - 1
                hi = np.partition(block_min, w)[w]
                hot = (block_min <= hi).nonzero()[0]
                lagging = hot[stale[hot]]
                if not lagging.size:
                    t_link = block_min[hot].min()
                    break
                stale[lagging] = False
                block_min[lagging] = blocks[lagging].min(axis=1)
            if cap_ptr < n_flows and by_demand[cap_ptr] <= t_link:
                cap_ptr = _next_live(active, cap_order, cap_ptr)
            # ``t_cap`` is the next cap level, or a lower bound of it
            # while the pointer still names a frozen flow
            t_cap = by_demand[cap_ptr] if cap_ptr < n_flows else np.inf
            level = min(t_link, t_cap)
            if not np.isfinite(level):  # pragma: no cover - defensive
                raise SimulationError("unbounded allocation: a flow has no "
                                      "constraining link and no demand cap")
            flows = np.zeros(0, dtype=np.int64)
            n_events = 1
            if t_link <= t_cap:
                # candidates: every link at or below the cutoff, ascending
                # by level, then link index
                hi = min(hi, t_cap)
                row, col = (blocks[hot] <= hi).nonzero()
                cand = hot[row] * _BLOCK + col
                lv = t_sat[cand]
                order = np.argsort(lv, kind="stable")
                cand, lv = cand[order], lv[order]
                new = np.empty(len(lv), dtype=bool)
                new[0], new[1:] = True, lv[1:] != lv[:-1]
                ev = np.cumsum(new) - 1
                levels = lv[new]
                # one event per distinct level, all below the next cap
                n_cand = max(1, int(np.searchsorted(levels, t_cap)))
                levels = levels[:n_cand]
                keep = int(np.searchsorted(ev, n_cand))
                cand, ev = cand[:keep], ev[:keep]
                # each active flow on a candidate freezes at its first
                # candidate (lowest level, then lowest link index), so
                # the flows come in event order ...
                pos, per = _gather(indptr, cand)
                flows = nnz_flow[pos]
                key = np.repeat(np.arange(len(cand)), per)
                live = active[flows]
                flows, key = flows[live], key[live]
                np.minimum.at(first_key, flows, key)
                first = first_key[flows] == key
                flows, key = flows[first], key[first]
                first_key[flows] = n_links
                f_event = ev[key]
                # ... unless an earlier event touches a later event's
                # link, or a link it touches could round down to a later
                # level: the run stops before the first such event
                if n_cand > 1:
                    hops = np.take(path_links, flows, axis=0).ravel()
                    floor = t_sat[hops] * slack[hops]
                    near = (floor <= levels[-1]).nonzero()[0]
                    hops, floor = hops[near], floor[near]
                    hop_event = f_event[near // width]
                    link_event[cand] = ev
                    other = link_event[hops] != hop_event
                    link_event[cand] = -1
                    stop = np.maximum(hop_event[other] + 1,
                                      np.searchsorted(levels, floor[other]))
                    n_events = min(int(stop.min(initial=n_cand)),
                                   limit - iterations)
                    run = int(np.searchsorted(f_event, n_events))
                    flows, key = flows[:run], key[:run]
                    f_event = f_event[:run]
                window = (min(2 * window, n_blocks) if n_events == n_cand
                          else max(1, window // 2) if 2 * n_events < n_cand
                          else window)
                active[flows] = False
                bottleneck[flows] = cand[key]
            if t_cap <= t_link:
                # a one-event round: the demand caps bind at ``level``
                end = int(np.searchsorted(by_demand, level, side="right"))
                capped = cap_order[cap_ptr:end]
                capped = capped[active[capped]]
                active[capped] = False
                flows = np.concatenate((flows, capped))
                cap_ptr = end
            iterations += n_events
            # The events' flows are charged in event order; every flow of
            # one event freezes at its level (a capped flow's demand is
            # the level), so each link sees the float subtractions of a
            # one-event-at-a-time fill, in its order.
            f_level = level if n_events == 1 else levels[f_event]
            rates[flows] = f_level
            n_remaining -= len(flows)
            changed = path_links[flows].ravel()
            np.subtract.at(head_cap, changed, f_level if n_events == 1
                           else np.repeat(f_level, width))
            np.subtract.at(n_active, changed, 1.0)
            left = np.maximum(head_cap[changed], 0.0)
            head_cap[changed] = left
            active_left = n_active[changed]
            # A saturated link lies on its frozen flows' paths, so this
            # update also retires it (no active flow left: inf).  A
            # block's minimum is a lower bound: a changed link makes it
            # stale (the next round that reaches the block re-minimises
            # it), and it is lowered where rounding drops a changed link
            # under it.
            block = changed // _BLOCK
            stale[block] = True
            t_sat[changed] = fresh = np.where(
                active_left > 0, left / np.maximum(active_left, 1.0), np.inf)
            low = fresh < block_min[block]
            if low.any():
                np.minimum.at(block_min, block[low], fresh[low])
    obs.counter("fabric.maxmin.solves").inc()
    obs.counter("fabric.maxmin.iterations").inc(iterations)
    obs.counter("fabric.maxmin.rounds").inc(rounds)

    # per-link sums in ascending flow order, as a CSR ``A @ rates`` adds
    flow_per_link = np.zeros(n_links)
    np.add.at(flow_per_link, f_indices, np.repeat(rates, lens))
    if np.any(flow_per_link > cap * (1 + 1e-9)):
        raise SimulationError("allocation exceeded a link capacity")
    return MaxMinResult(rates, flow_per_link / cap, bottleneck)
