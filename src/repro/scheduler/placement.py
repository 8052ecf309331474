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


def place_job(n_nodes: int, free_nodes: np.ndarray,
              policy: PlacementPolicy = PlacementPolicy.AUTO,
              nodes_per_group: int = NODES_PER_GROUP) -> np.ndarray:
    """Choose ``n_nodes`` from ``free_nodes`` according to the policy.

    ``free_nodes`` is an array (or sequence) of distinct free node ids
    in any order.  PACK takes the smallest group that fits the whole
    job, else fills the fullest groups first; SPREAD deals nodes
    round-robin over the groups, lowest group first.  Within a group the
    lowest-numbered nodes go first, and ties between equally-full groups
    go to the lowest group id, so the result depends only on which nodes
    are free, never on their order.

    Returns a new ascending int64 array; raises :class:`PlacementError`
    when the request cannot be satisfied.
    """
    # One normalisation groups the free nodes: group g is the ascending
    # run nodes[starts[g]:starts[g] + sizes[g]], groups in ascending id.
    # (A stable sort is linear on the scheduler's already-sorted input.)
    nodes = np.sort(np.asarray(free_nodes, dtype=np.int64), kind="stable")
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
    group = nodes // nodes_per_group
    cuts = (np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()
    starts = [0, *cuts]
    sizes = [end - start for start, end in zip(starts, [*cuts, len(nodes)])]

    if policy is PlacementPolicy.PACK:
        # Prefer a single group that can hold the whole job (tightest
        # fit: the smallest such group), else fill fullest-free-first to
        # minimise the number of groups spanned.  Ties: lowest group id.
        fits = [(size, g) for g, size in enumerate(sizes) if size >= n_nodes]
        if fits:
            start = starts[min(fits)[1]]
            # a copy: a view would keep the whole free array alive
            return nodes[start:start + n_nodes].copy()
        take = [0] * len(sizes)
        need = n_nodes
        for g in sorted(range(len(sizes)), key=lambda g: -sizes[g]):
            take[g] = min(sizes[g], need)
            need -= take[g]
            if not need:
                break
    else:
        # SPREAD: round-robin one node at a time over the groups with
        # capacity, lowest group first -- in closed form.  Raise a common
        # per-group level through the sorted group sizes until the job is
        # covered: r full rounds, then one extra node from each of the
        # lowest-numbered groups that still have one.
        level, rest, alive = 0, n_nodes, len(sizes)
        for size in sorted(sizes):
            if rest < (size - level) * alive:
                break       # always breaks: n_nodes < len(nodes)
            rest -= (size - level) * alive
            level, alive = size, alive - 1
        rounds, extra = divmod(rest, alive)
        rounds += level
        take = [min(size, rounds) for size in sizes]
        for g in [g for g, size in enumerate(sizes) if size > rounds][:extra]:
            take[g] += 1
    return np.concatenate([nodes[start:start + k]
                           for start, k in zip(starts, take) if k])


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
