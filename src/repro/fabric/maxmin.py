"""Max-min fair bandwidth allocation by progressive filling.

Given link capacities and a set of flows (each a list of link indices), the
classic water-filling algorithm raises every unfrozen flow's rate at the
same speed; when a link saturates, all flows crossing it freeze at their
current rate.  The result is the unique max-min fair allocation, which is a
good steady-state model for credit-based, congestion-controlled fabrics
like Slingshot (and for InfiniBand under static routing).

The implementation is event-driven over a sparse link x flow incidence
matrix: each freeze event touches only the frozen flows' links and the
blocks of a blocked minimum index over the links' saturation levels.
One full-Frontier mpiGraph shift phase (37,888 flows over 170,792 links,
~2,700 freeze events) solves in ~0.14 s on one core of a shared 2-vCPU
VM.

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
from scipy import sparse

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


#: Links per block of the saturation-level minimum index: each freeze
#: event scans one minimum per block, then re-minimises only the blocks
#: whose links it changed.
_BLOCK = 128


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

    # link x flow incidence, flows ascending within each link row
    lens = np.diff(f_indptr)
    cols = np.repeat(np.arange(n_flows), lens)
    A = sparse.csr_matrix((np.ones(f_indices.size), (f_indices, cols)),
                          shape=(n_links, n_flows))
    if A.nnz != f_indices.size:
        raise SimulationError("a path crosses the same link twice")

    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    bottleneck = np.full(n_flows, -1, dtype=np.int64)
    # Flows with no links are only demand-limited.
    linkless = lens == 0
    if np.any(linkless & ~np.isfinite(dem)):
        raise SimulationError("unbounded allocation: a flow has no "
                              "constraining link and no demand cap")
    rates[linkless] = dem[linkless]
    active[linkless] = False

    limit = max_iterations if max_iterations is not None else n_links + n_flows + 1
    iterations = 0
    # Event-driven water filling.  Every active flow's rate is the common
    # water level (all start at zero and rise at the same speed), so the
    # fill is a sequence of freeze events at increasing levels: a link
    # saturates at level (capacity - frozen traffic) / active flows, a
    # demand cap binds when the level reaches it.  Each event only
    # touches the frozen flows' own links: the next level is a minimum
    # over per-block minima of ``t_sat``, and only the blocks holding a
    # changed link are re-minimised — never a full O(n_links) scan.
    indptr, nnz_flow = A.indptr, A.indices
    nnz_link = np.repeat(np.arange(n_links), np.diff(indptr))
    #: active flows per link, plus a spare link ``n_links`` that pads
    #: ``path_links``: it starts unused, goes negative, and never saturates
    n_active = np.bincount(nnz_link[active[nnz_flow]],
                           minlength=n_links + 1).astype(np.float64)
    path_links = np.full((n_flows, int(lens.max())), n_links, dtype=np.int64)
    path_links[cols, np.arange(f_indices.size)
               - np.repeat(f_indptr[:-1], lens)] = f_indices

    #: capacity not yet claimed by frozen flows
    head_cap = np.append(cap, np.inf)
    n_blocks = n_links // _BLOCK + 1
    blocks = np.full((n_blocks, _BLOCK), np.inf)
    #: saturation level per link (a view of ``blocks``; inf once frozen)
    t_sat = blocks.reshape(-1)[:n_links + 1]
    t_sat[:] = np.where(n_active > 0,
                        head_cap / np.maximum(n_active, 1.0), np.inf)
    block_min = blocks.min(axis=1)
    touched = np.zeros(n_blocks, dtype=bool)
    # Demand-cap events in ascending order; the pointer skips flows that
    # a link froze first.  Infinite demands sort last and never fire.
    cap_order = np.argsort(dem, kind="stable")
    by_demand = dem[cap_order]
    cap_ptr = 0
    n_remaining = int(active.sum())
    with obs.span("fabric.maxmin_allocate", n_flows=n_flows, n_links=n_links):
        for _ in range(limit):
            if n_remaining == 0:
                break
            iterations += 1
            while cap_ptr < n_flows and not active[cap_order[cap_ptr]]:
                cap_ptr += 1
            t_cap = by_demand[cap_ptr] if cap_ptr < n_flows else np.inf
            t_link = block_min.min()
            level = min(t_link, t_cap)
            if not np.isfinite(level):  # pragma: no cover - defensive
                raise SimulationError("unbounded allocation: a flow has no "
                                      "constraining link and no demand cap")
            frozen = []
            if t_link <= t_cap:
                hot = (block_min == t_link).nonzero()[0]
                row, col = (blocks[hot] == t_link).nonzero()
                sat = hot[row] * _BLOCK + col
                if len(sat) == 1:
                    # one saturated link: its row holds each flow once
                    links = sat[0]
                    flows = nnz_flow[indptr[links]:indptr[links + 1]]
                    flows = flows[active[flows]]
                else:
                    # Ascending link order, so a flow's bottleneck is its
                    # lowest-index saturated link (ties included): the
                    # first occurrence of each flow in the links' rows.
                    pos, per_link = _gather(indptr, sat)
                    flows = nnz_flow[pos]
                    live = active[flows]
                    flows, first = np.unique(flows[live], return_index=True)
                    links = np.repeat(sat, per_link)[live][first]
                active[flows] = False
                bottleneck[flows] = links
                frozen.append(flows)
            if t_cap <= t_link:
                end = int(np.searchsorted(by_demand, level, side="right"))
                capped = cap_order[cap_ptr:end]
                capped = capped[active[capped]]
                active[capped] = False
                frozen.append(capped)
                cap_ptr = end
            # Every flow of one event freezes at the level (a capped
            # flow's demand is the level), so the order in which its
            # links are charged cannot change a float sum.
            frozen = np.concatenate(frozen)
            rates[frozen] = level
            n_remaining -= len(frozen)
            changed = path_links[frozen].ravel()
            np.subtract.at(head_cap, changed, level)
            np.subtract.at(n_active, changed, 1.0)
            left = np.maximum(head_cap[changed], 0.0)
            head_cap[changed] = left
            active_left = n_active[changed]
            t_sat[changed] = np.where(
                active_left > 0, left / np.maximum(active_left, 1.0), np.inf)
            # A saturated link lies on its frozen flows' paths, so this
            # update also retires it (no active flow left: inf).
            touched[changed // _BLOCK] = True
            refresh = touched.nonzero()[0]
            touched[refresh] = False
            block_min[refresh] = blocks[refresh].min(axis=1)
        else:
            raise SimulationError("max-min allocation did not converge")
    obs.counter("fabric.maxmin.solves").inc()
    obs.counter("fabric.maxmin.iterations").inc(iterations)

    flow_per_link = A @ rates
    if np.any(flow_per_link > cap * (1 + 1e-9)):
        raise SimulationError("allocation exceeded a link capacity")
    return MaxMinResult(rates, flow_per_link / cap, bottleneck)
