"""Topology-aware job placement (paper §3.4.2).

Slurm on Frontier is dragonfly-aware:

* **small jobs** (fitting one group's 128 nodes) are *packed* tightly into
  a single group to keep traffic off the tapered global links;
* **large jobs** are *spread* evenly over as many groups as possible to
  maximise the number of global links (and hence global bandwidth)
  reachable by minimal routing.

:func:`place_job` implements both policies plus the AUTO rule that picks
between them the way the paper describes, and :func:`allocation_stats`
computes the network consequences (groups spanned, per-node global
bandwidth available to minimal routing).
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import PlacementError
from repro.fabric.dragonfly import DragonflyConfig

__all__ = ["PlacementPolicy", "place_job", "allocation_stats", "AllocationStats"]

NODES_PER_GROUP = 128  # 32 switches x 16 endpoints / 4 NICs per node


class PlacementPolicy(enum.Enum):
    PACK = "pack"
    SPREAD = "spread"
    AUTO = "auto"       # Slurm's behaviour: pack small, spread large


def is_count(value) -> bool:
    """A whole number (``bool`` is an ``int`` but never a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def place_job(n_nodes: int, free_nodes: np.ndarray,
              policy: PlacementPolicy = PlacementPolicy.AUTO,
              nodes_per_group: int = NODES_PER_GROUP) -> np.ndarray:
    """Choose ``n_nodes`` from ``free_nodes`` according to the policy.

    ``free_nodes`` is a 1-D integer array (or sequence) of distinct,
    non-negative free node ids in any order.  PACK takes the smallest
    group that fits the whole job, else fills the fullest groups first;
    SPREAD deals nodes round-robin over the groups, lowest group first.
    Within a group the lowest-numbered nodes go first, and ties between
    equally-full groups go to the lowest group id, so the result depends
    only on which nodes are free, never on their order.

    Returns a new ascending int64 array; raises :class:`PlacementError`
    when the request cannot be satisfied or an argument is malformed.
    """
    if not is_count(n_nodes):
        raise PlacementError(
            f"job node count must be an integer, got {n_nodes!r}")
    if not is_count(nodes_per_group) or nodes_per_group < 1:
        raise PlacementError(
            f"nodes_per_group must be a positive integer, "
            f"got {nodes_per_group!r}")
    if not isinstance(policy, PlacementPolicy):
        raise PlacementError(f"unknown placement policy {policy!r}")
    free = np.asarray(free_nodes)
    if free.ndim != 1:
        raise PlacementError(
            f"free node ids must be a 1-D array, got shape {free.shape}")
    if free.size and free.dtype.kind not in "iu":
        raise PlacementError(
            f"free node ids must be integers, got dtype {free.dtype}")
    # One normalisation sorts the free nodes; group g is then the
    # ascending run nodes[bounds[g]:bounds[g + 1]].  (A stable sort is
    # linear on the scheduler's already-sorted input.)
    nodes = np.sort(free.astype(np.int64, copy=False), kind="stable")
    if len(nodes) and nodes[0] < 0:
        raise PlacementError(f"negative free node id {nodes[0]}")
    if (nodes[1:] == nodes[:-1]).any():
        raise PlacementError("free node ids must be distinct")
    if n_nodes < 1:
        raise PlacementError("job must request at least one node")
    if n_nodes > len(nodes):
        raise PlacementError(
            f"requested {n_nodes} nodes but only {len(nodes)} are free")
    if policy is PlacementPolicy.AUTO:
        policy = (PlacementPolicy.PACK if n_nodes <= nodes_per_group
                  else PlacementPolicy.SPREAD)
    obs.counter("scheduler.placement_decisions").inc()
    obs.counter(f"scheduler.placements.{policy.value}").inc()

    if n_nodes == len(nodes):
        return nodes
    low, high = int(nodes[0]) // nodes_per_group, \
        int(nodes[-1]) // nodes_per_group
    if low == high:
        # one group: either policy takes its lowest nodes (a copy: a
        # view would keep the whole free array alive)
        return nodes[:n_nodes].copy()
    # Group bounds by binary search over the group ids between the
    # lowest and the highest free node's (empty groups take nothing
    # under either policy), or over the ids present when that range
    # would outnumber the free nodes.
    groups = (np.arange(low, high + 2) if high - low < len(nodes)
              else np.append(np.unique(nodes // nodes_per_group), high + 1))
    bounds = np.searchsorted(nodes, groups * nodes_per_group)
    starts = bounds[:-1]
    sizes = bounds[1:] - starts

    if policy is PlacementPolicy.PACK:
        # Prefer a single group that can hold the whole job (tightest
        # fit: the smallest such group), else fill fullest-free-first to
        # minimise the number of groups spanned.  Ties: lowest group id
        # (argmin and the stable argsort keep the first).
        fits = np.flatnonzero(sizes >= n_nodes)
        if len(fits):
            start = starts[fits[np.argmin(sizes[fits])]]
            return nodes[start:start + n_nodes].copy()
        order = np.argsort(-sizes, kind="stable")
        fill = sizes[order]
        need = n_nodes - (np.cumsum(fill) - fill)   # when each group's turn comes
        take = np.empty_like(sizes)
        take[order] = np.minimum(fill, np.maximum(need, 0))
    else:
        # SPREAD: round-robin one node at a time over the groups, lowest
        # group first -- in closed form.  Filling every group up to the
        # i-th smallest group size takes covered[i] nodes; the job stops
        # below the first such level k that covers more than n_nodes:
        # full rounds over the groups still open, then one extra node
        # from each of the lowest-numbered groups that still have one.
        ordered = np.sort(sizes)
        behind = np.arange(len(sizes) - 1, -1, -1)   # groups after each, by size
        covered = np.cumsum(ordered) + behind * ordered
        k = int(covered.searchsorted(n_nodes, side="right"))
        level, rest = ((int(ordered[k - 1]), n_nodes - int(covered[k - 1]))
                       if k else (0, n_nodes))
        # k < len(sizes), since n_nodes < len(nodes) = covered[-1]
        rounds, extra = divmod(rest, len(sizes) - k)
        rounds += level
        take = np.minimum(sizes, rounds)
        take[np.flatnonzero(sizes > rounds)[:extra]] += 1
    # output slot j of group g's run reads nodes[starts[g] + j - taken[g]]
    taken = np.cumsum(take) - take
    return nodes[np.repeat(starts - taken, take) + np.arange(n_nodes)]


@dataclass(frozen=True)
class AllocationStats:
    """Network-facing properties of a node allocation."""

    n_nodes: int
    groups_spanned: int
    max_nodes_in_group: int
    intra_group_fraction: float        # of all node pairs
    global_bandwidth_per_node: float   # bytes/s reachable by minimal routing

    @property
    def is_single_group(self) -> bool:
        return self.groups_spanned == 1


def allocation_stats(nodes: np.ndarray, config: DragonflyConfig | None = None,
                     nodes_per_group: int = NODES_PER_GROUP) -> AllocationStats:
    """Compute the placement quality metrics the paper's policy optimises.

    ``nodes`` is an array or sequence of node ids.  ``config`` accepts
    anything :func:`repro.core.scenario.resolve_dragonfly` does — a
    :class:`DragonflyConfig`, a ``MachineSpec``, a machine, or ``None``
    for the canonical Frontier fabric.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(nodes) == 0:
        raise PlacementError("empty allocation")
    # Lazy: repro.core.scenario is downstream of the scheduler package in
    # the import graph (core.machine imports scheduler.slurm).
    from repro.core.scenario import resolve_dragonfly
    cfg = resolve_dragonfly(config)
    counts = np.unique(nodes // nodes_per_group, return_counts=True)[1].tolist()
    n = len(nodes)
    groups = len(counts)
    # Fraction of distinct node pairs landing in the same group.
    same = sum(c * (c - 1) for c in counts)
    intra = same / (n * (n - 1)) if n > 1 else 1.0
    # Global links usable by minimal routing: links between the job's own
    # groups, plus links toward the rest of the fabric for non-minimal use
    # are not counted here (that is the point of spreading).
    link = cfg.link_rate * cfg.global_links_per_pair
    usable = groups * (groups - 1) // 2 * link
    per_node = usable * 2 / n if n > 0 else 0.0  # both directions of each pair
    return AllocationStats(n_nodes=n, groups_spanned=groups,
                           max_nodes_in_group=max(counts),
                           intra_group_fraction=intra,
                           global_bandwidth_per_node=per_node)
