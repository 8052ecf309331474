"""Generic network topology: switches, endpoints, capacitated links.

The fabric simulators operate on an explicit directed graph held as flat
arrays.  Nodes are named by small tuples at the API (``("sw", i)`` for
switches, ``("ep", i)`` for endpoints) and by integer *codes* inside
(``2 * i`` for switch ``i``, ``2 * i + 1`` for endpoint ``i``); links are
directed and indexed densely so the max-min solver can work on flat
arrays.  Both directions of a cable are independent links, matching the
paper's "N+N GB/s" convention.

A :class:`Topology` stores the per-switch group, the per-endpoint switch
and per-link source/destination codes, capacities and kinds, and nothing
per link beyond that.  The builders (:mod:`repro.fabric.dragonfly`,
:mod:`repro.fabric.fattree`) compute those arrays in closed form and hand
them to :meth:`Topology.from_cables`; hand-built topologies append through
:meth:`~Topology.add_switch`, :meth:`~Topology.add_endpoint` and
:meth:`~Topology.add_link`, which run the same checks.  Queries answer from
the arrays, and a :class:`Link` object is made only when one is asked for.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TopologyError

__all__ = ["LinkKind", "NodeId", "Link", "Topology", "TopologyArrays",
           "check_config_fields"]

NodeId = tuple[str, int]


class LinkKind(enum.Enum):
    """Link roles, matching HPE's port taxonomy for Slingshot switches."""

    L0 = "edge"      # switch <-> endpoint (NIC)
    L1 = "local"     # switch <-> switch within a group
    L2 = "global"    # switch <-> switch between groups


#: link kinds by their ordinal in the ``link_kind`` array
_KINDS = (LinkKind.L0, LinkKind.L1, LinkKind.L2)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}


def check_config_fields(config, counts: Sequence[str],
                        positive: Sequence[str]) -> None:
    """Reject fabric config fields of the wrong type at construction.

    Each ``counts`` field must be an integer (``bool`` is not a count) and
    each ``positive`` field a finite real number above zero, so a NaN rate
    or a fractional group count raises :class:`TopologyError` here rather
    than building a broken fabric or failing deep inside the builder.
    """
    for name in counts:
        value = getattr(config, name)
        # exact ``int`` first: configs are built often and ABC checks are slow
        if type(value) is not int and (isinstance(value, bool) or not isinstance(
                value, numbers.Integral)):
            raise TopologyError(f"{type(config).__name__}.{name} must be an "
                                f"integer, got {value!r}")
    for name in positive:
        value = getattr(config, name)
        if not ((type(value) is float or type(value) is int
                 or (not isinstance(value, bool) and isinstance(value, numbers.Real)))
                and 0 < value < math.inf):
            raise TopologyError(f"{type(config).__name__}.{name} must be a "
                                f"positive finite number, got {value!r}")


@dataclass(frozen=True)
class Link:
    """One directed link."""

    index: int
    src: NodeId
    dst: NodeId
    capacity: float          # bytes/s in this direction
    kind: LinkKind

    def __post_init__(self) -> None:
        if not 0 < self.capacity < math.inf:
            raise TopologyError(
                f"link {self.src}->{self.dst} needs positive finite capacity")


_NAME = {"sw": "switch", "ep": "endpoint"}


def _node(code: int) -> NodeId:
    return ("ep" if code & 1 else "sw", code >> 1)


def _encode(node: NodeId) -> int:
    """The code of ``("sw" | "ep", idx)``; unknown tags and ids raise."""
    tag, idx = node
    if tag not in ("sw", "ep"):
        raise TopologyError(f"unknown node tag {tag!r}")
    try:
        idx = operator.index(idx)
    except TypeError:
        raise TopologyError(f"unknown {_NAME[tag]} {idx!r}") from None
    return 2 * idx + (tag == "ep")


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _present(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Mask of ``ids`` with an entry (``>= 0``) in ``table``."""
    ok = (ids >= 0) & (ids < len(table))
    ok[ok] = table[ids[ok]] >= 0
    return ok


def _with(table: np.ndarray, i: int, value: int) -> np.ndarray:
    """A read-only copy of ``table`` with entry ``i`` set (grown with ``-1``)."""
    out = np.full(max(len(table), i + 1), -1, dtype=np.int64)
    out[:len(table)] = table
    out[i] = value
    out.flags.writeable = False
    return out


def _lookup(table: np.ndarray, key) -> int:
    """``table[key]``, or ``-1`` when ``key`` is not a valid index."""
    try:
        i = operator.index(key)
    except TypeError:
        return -1
    return int(table[i]) if 0 <= i < len(table) else -1


class TopologyArrays:
    """Flat-array views of a :class:`Topology` for batch routing.

    Everything the vectorised planners need as NumPy gathers instead of
    per-hop lookups: per-endpoint switch and edge-link indices, per-switch
    group ids, per-link capacities/kinds, per-link endpoint *codes*
    (``2 * idx`` for switches, ``2 * idx + 1`` for endpoints) so path
    chaining can be checked without tuples, and :meth:`switch_link`, the
    one switch-to-switch link lookup.  Its tables hold one entry per
    switch-switch link plus the padding of the group blocks, never one
    per switch pair:

    * a link inside a group is a gather from ``local_links``.  Group
      ``g``'s switches, ranked in id order, own a ``|g| x |g|`` block of
      it, and the link ``a -> b`` sits at ``local_row[a] +
      local_rank[b]``.  The blocks total ``sum |g|^2`` entries: a
      dragonfly's L1 mesh plus its diagonal, and on a fat tree (one
      group per edge switch, one for the cores) ``E + C^2``;
    * a link between groups (dragonfly L2, fat-tree edge <-> core) is
      found by ``searchsorted`` in ``remote_keys``, the sorted
      ``src * n + dst`` keys (``n = len(switch_group)``), whose link ids
      are ``remote_links``.

    :attr:`Topology.flat` builds one instance per topology state, with a
    few vectorised sorts and scatters; the per-link and per-node arrays
    are the topology's own.  Every array is read-only, and a mutation
    gives the topology new arrays and a new view, so a view handed out
    earlier stays consistent.  Missing entries are ``-1``.
    """

    def __init__(self, topo: "Topology") -> None:
        #: per-link capacity (bytes/s), dense link indexing
        self.capacities = topo._capacity
        #: per-link kind ordinal: 0 = L0/edge, 1 = L1/local, 2 = L2/global
        self.link_kind = topo._kind
        #: per-switch group id (index = switch id)
        self.switch_group = topo._switch_group
        #: per-endpoint attached switch (index = endpoint id)
        self.endpoint_switch = topo._endpoint_switch
        #: per-link node codes for vectorised chain validation
        self.link_src_code = src = topo._src
        self.link_dst_code = dst = topo._dst

        src_is_ep = (src & 1).astype(bool)
        dst_is_ep = (dst & 1).astype(bool)
        src_idx, dst_idx = src >> 1, dst >> 1
        all_links = np.arange(len(src), dtype=np.int64)
        n_ep, n_sw = len(self.endpoint_switch), len(self.switch_group)
        #: endpoint -> its L0 up-link (ep -> switch)
        self.ep_up_link = np.full(n_ep, -1, dtype=np.int64)
        up = src_is_ep & ~dst_is_ep
        self.ep_up_link[src_idx[up]] = all_links[up]
        #: endpoint -> its L0 down-link (switch -> ep)
        self.ep_down_link = np.full(n_ep, -1, dtype=np.int64)
        down = dst_is_ep & ~src_is_ep
        self.ep_down_link[dst_idx[down]] = all_links[down]

        # switches sorted by (group, id): each group is one run of ranks
        group = self.switch_group
        ids = np.flatnonzero(group >= 0)
        ids = ids[np.argsort(group[ids], kind="stable")]
        starts = np.diff(group[ids], prepend=-1) != 0
        run_start = np.flatnonzero(starts)
        run_size = np.diff(run_start, append=len(ids))
        run = np.cumsum(starts) - 1
        rank = np.arange(len(ids)) - run_start[run]
        block = np.cumsum(run_size ** 2) - run_size ** 2
        #: switch -> its rank in its group, 0 for an unused id
        self.local_rank = np.zeros(n_sw, dtype=np.int64)
        self.local_rank[ids] = rank
        #: switch -> start of its row in ``local_links``, -1 for an unused id
        self.local_row = np.full(n_sw, -1, dtype=np.int64)
        self.local_row[ids] = block[run] + rank * run_size[run]
        #: per-group ``|g| x |g|`` blocks of intra-group link indices, then
        #: as many ``-1`` as the largest group has switches, so that
        #: ``local_row[a] + local_rank[b]`` is in range for any two ids
        self.local_links = np.full(
            int((run_size ** 2).sum() + run_size.max(initial=1)), -1,
            dtype=np.int32)
        swsw = ~src_is_ep & ~dst_is_ep
        a, b, links = src_idx[swsw], dst_idx[swsw], all_links[swsw]
        local = group[a] == group[b]
        self.local_links[self.local_row[a[local]]
                         + self.local_rank[b[local]]] = links[local]
        keys = a[~local] * n_sw + b[~local]
        order = np.argsort(keys)
        #: sorted ``src * n_sw + dst`` keys of the links between groups
        self.remote_keys = keys[order]
        #: the link index of each of ``remote_keys``
        self.remote_links = links[~local][order]

        for arr in (self.ep_up_link, self.ep_down_link, self.local_rank,
                    self.local_row, self.local_links, self.remote_keys,
                    self.remote_links):
            arr.flags.writeable = False

    def switch_link(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Link indices ``a[i] -> b[i]`` (int64), ``-1`` where there is none.

        ``a`` and ``b`` are equal-length switch-id arrays, each id in
        ``range(len(switch_group))``.  Every pair reads the group blocks
        (two unused ids read the ``-1`` padding); pairs across groups
        then overwrite that with a ``searchsorted`` in ``remote_keys``.
        """
        group = self.switch_group
        local = group[a] == group[b]
        out = self.local_links[self.local_row[a]
                               + self.local_rank[b]].astype(np.int64)
        if not local.all():
            remote = np.flatnonzero(~local)
            keys = a[remote] * len(group) + b[remote]
            at = np.searchsorted(self.remote_keys, keys)
            hit = at < len(self.remote_keys)
            hit[hit] = self.remote_keys[at[hit]] == keys[hit]
            out[remote] = -1
            out[remote[hit]] = self.remote_links[at[hit]]
        return out

    def switch_link_one(self, a: int, b: int) -> int:
        """:meth:`switch_link` for one pair of switch ids, by scalar reads."""
        group = self.switch_group
        if group[a] == group[b]:
            return int(self.local_links[self.local_row[a] + self.local_rank[b]])
        key = a * len(group) + b
        at = int(self.remote_keys.searchsorted(key))
        if at < len(self.remote_keys) and self.remote_keys[at] == key:
            return int(self.remote_links[at])
        return -1


class Topology:
    """A directed, capacitated network graph.

    Switches carry a ``group`` tag (dragonfly group id, fat-tree level);
    endpoints record which switch they hang off.  Link addition is
    append-only; the dense link index is stable and used by the flow solver.
    """

    def __init__(self) -> None:
        #: switch id -> group, -1 where no switch has that id
        self._switch_group = _frozen((), np.int64)
        #: endpoint id -> switch, -1 where no endpoint has that id
        self._endpoint_switch = _frozen((), np.int64)
        #: per-link node codes, capacity and kind ordinal
        self._src = _frozen((), np.int64)
        self._dst = _frozen((), np.int64)
        self._capacity = _frozen((), np.float64)
        self._kind = _frozen((), np.int8)
        self._flat: TopologyArrays | None = None

    @classmethod
    def from_cables(cls, switch_group, endpoint_switch,
                    cables: Iterable[tuple]) -> "Topology":
        """A topology from node tables and blocks of cables.

        ``switch_group[s]`` is switch ``s``'s group and
        ``endpoint_switch[e]`` endpoint ``e``'s switch.  Each
        ``(a, b, capacity, kind)`` block in ``cables`` holds node-code
        arrays ``a`` and ``b``; cable ``i`` becomes link ``a[i] -> b[i]``
        followed by ``b[i] -> a[i]``, each at ``capacity`` (a scalar or a
        per-cable array), and blocks follow each other in the dense link
        order.  The result passes the checks ``add_link`` makes.
        """
        topo = cls()
        groups = np.asarray(switch_group, dtype=np.int64)
        attach = np.asarray(endpoint_switch, dtype=np.int64)
        if (groups < 0).any():
            raise TopologyError("switch groups must be >= 0")
        if not _present(groups, attach).all():
            raise TopologyError("an endpoint references an unknown switch")
        topo._switch_group = _frozen(groups, np.int64)
        topo._endpoint_switch = _frozen(attach, np.int64)
        src, dst, cap, kind = [], [], [], []
        for a, b, capacity, link_kind in cables:
            src.append(np.column_stack((a, b)).ravel())
            dst.append(np.column_stack((b, a)).ravel())
            cap.append(np.repeat(np.broadcast_to(capacity, len(a)), 2))
            kind.append(np.full(2 * len(a), cls._kind_code(link_kind), np.int8))
        if src:
            topo._append_links(np.concatenate(src), np.concatenate(dst),
                               np.concatenate(cap), np.concatenate(kind))
        return topo

    # -- construction ------------------------------------------------------

    def add_switch(self, switch: int, group: int = 0) -> None:
        sw = self._new_id(switch, "switch", self._switch_group)
        if not isinstance(group, numbers.Integral) or group < 0:
            raise TopologyError(f"switch {switch} needs a group >= 0, got {group!r}")
        self._switch_group = _with(self._switch_group, sw, group)
        self._flat = None

    def add_endpoint(self, endpoint: int, switch: int) -> None:
        ep = self._new_id(endpoint, "endpoint", self._endpoint_switch)
        if _lookup(self._switch_group, switch) < 0:
            raise TopologyError(f"endpoint {endpoint} references unknown switch {switch}")
        self._endpoint_switch = _with(self._endpoint_switch, ep, switch)
        self._flat = None

    def add_link(self, src: NodeId, dst: NodeId, capacity: float,
                 kind: LinkKind) -> int:
        """Add one directed link; returns its dense index."""
        idx = self.n_links
        self._append_links(np.array([_encode(src)]), np.array([_encode(dst)]),
                           np.array([capacity], dtype=np.float64),
                           np.array([self._kind_code(kind)], dtype=np.int8))
        return idx

    def add_bidirectional(self, a: NodeId, b: NodeId, capacity: float,
                          kind: LinkKind) -> tuple[int, int]:
        """Add both directions of a cable at ``capacity`` per direction."""
        idx = self.n_links
        ca, cb = _encode(a), _encode(b)
        self._append_links(np.array([ca, cb]), np.array([cb, ca]),
                           np.full(2, capacity, dtype=np.float64),
                           np.full(2, self._kind_code(kind), dtype=np.int8))
        return idx, idx + 1

    @staticmethod
    def _kind_code(kind: LinkKind) -> int:
        try:
            return _KIND_CODE[kind]
        except (KeyError, TypeError):
            raise TopologyError(f"unknown link kind {kind!r}") from None

    @staticmethod
    def _new_id(key, what: str, table: np.ndarray) -> int:
        try:
            i = operator.index(key)
        except TypeError:
            raise TopologyError(f"{what} id must be an integer, got {key!r}") from None
        if i < 0:
            raise TopologyError(f"{what} id must be >= 0, got {i}")
        if _lookup(table, i) >= 0:
            raise TopologyError(f"{what} {key} already exists")
        return i

    def _append_links(self, src: np.ndarray, dst: np.ndarray,
                      capacity: np.ndarray, kind: np.ndarray) -> None:
        """Check a block of links and append it to the link arrays.

        Rejects links between unknown nodes, duplicates of a
        ``(src, dst)`` pair (parallel cables are one link of summed
        capacity) and capacities that are not positive and finite; on
        error nothing is appended.
        """
        for codes in (src, dst):
            known = np.where(codes & 1, _present(self._endpoint_switch, codes >> 1),
                             _present(self._switch_group, codes >> 1))
            if not known.all():
                code = int(codes[np.flatnonzero(~known)[0]])
                tag, idx = _node(code)
                raise TopologyError(f"unknown {_NAME[tag]} {idx}")
        all_src = np.concatenate((self._src, src))
        all_dst = np.concatenate((self._dst, dst))
        width = int(max(all_src.max(initial=0), all_dst.max(initial=0))) + 1
        keys = all_src * width + all_dst
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            order = np.argsort(keys, kind="stable")
            dup = np.flatnonzero(keys[order][1:] == keys[order][:-1]) + 1
            at = int(order[dup].min())
            raise TopologyError(
                f"duplicate link {_node(int(all_src[at]))}->{_node(int(all_dst[at]))}; "
                "aggregate parallel cables into one capacity")
        bad = ~((capacity > 0) & np.isfinite(capacity))
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            raise TopologyError(
                f"link {_node(int(src[at]))}->{_node(int(dst[at]))} needs "
                "positive finite capacity")
        self._src = _frozen(all_src, np.int64)
        self._dst = _frozen(all_dst, np.int64)
        self._capacity = _frozen(np.concatenate((self._capacity, capacity)),
                                 np.float64)
        self._kind = _frozen(np.concatenate((self._kind, kind)), np.int8)
        self._flat = None

    # -- queries -----------------------------------------------------------

    @property
    def n_links(self) -> int:
        return len(self._src)

    @property
    def n_switches(self) -> int:
        return int(np.count_nonzero(self._switch_group >= 0))

    @property
    def n_endpoints(self) -> int:
        return int(np.count_nonzero(self._endpoint_switch >= 0))

    @property
    def links(self) -> list[Link]:
        kinds = [_KINDS[k] for k in self._kind.tolist()]
        return [Link(i, _node(s), _node(d), c, k) for i, (s, d, c, k) in enumerate(
            zip(self._src.tolist(), self._dst.tolist(),
                self._capacity.tolist(), kinds))]

    def link(self, index: int) -> Link:
        i = operator.index(index)
        n = self.n_links
        if not -n <= i < n:
            raise TopologyError(f"no link {index}")
        i %= n
        return Link(i, _node(int(self._src[i])), _node(int(self._dst[i])),
                    float(self._capacity[i]), _KINDS[self._kind[i]])

    def link_between(self, src: NodeId, dst: NodeId) -> Link | None:
        idx = self.link_index(src, dst)
        return self.link(idx) if idx >= 0 else None

    def link_index(self, src: NodeId, dst: NodeId) -> int:
        """Dense index of the link ``src -> dst``, or ``-1`` if there is none."""
        try:
            s, d = _encode(src), _encode(dst)
        except TopologyError:
            return -1
        flat = self.flat
        if not (s | d) & 1:
            a, b = s >> 1, d >> 1
            n_sw = len(self._switch_group)
            if not (0 <= a < n_sw and 0 <= b < n_sw):
                return -1
            return flat.switch_link_one(a, b)
        # an endpoint side: its edge link is the usual answer
        if s & 1 and not d & 1:
            idx = _lookup(flat.ep_up_link, s >> 1)
        elif d & 1 and not s & 1:
            idx = _lookup(flat.ep_down_link, d >> 1)
        else:
            idx = -1
        if idx >= 0 and self._src[idx] == s and self._dst[idx] == d:
            return idx
        hits = np.flatnonzero((self._src == s) & (self._dst == d))
        return int(hits[0]) if hits.size else -1

    def out_links(self, node: NodeId) -> list[Link]:
        try:
            code = _encode(node)
        except TopologyError:
            return []
        return [self.link(i) for i in np.flatnonzero(self._src == code).tolist()]

    def switches(self) -> Iterator[int]:
        """Switch ids in ascending order."""
        return iter(np.flatnonzero(self._switch_group >= 0).tolist())

    def endpoints(self) -> Iterator[int]:
        """Endpoint ids in ascending order."""
        return iter(np.flatnonzero(self._endpoint_switch >= 0).tolist())

    def group_of_switch(self, switch: int) -> int:
        group = _lookup(self._switch_group, switch)
        if group < 0:
            raise TopologyError(f"unknown switch {switch}")
        return group

    def switch_of_endpoint(self, endpoint: int) -> int:
        switch = _lookup(self._endpoint_switch, endpoint)
        if switch < 0:
            raise TopologyError(f"unknown endpoint {endpoint}")
        return switch

    def group_of_endpoint(self, endpoint: int) -> int:
        return self.group_of_switch(self.switch_of_endpoint(endpoint))

    def switches_in_group(self, group: int) -> list[int]:
        """Sorted switches tagged ``group``."""
        if not isinstance(group, numbers.Integral) or group < 0:
            return []
        return np.flatnonzero(self._switch_group == group).tolist()

    def endpoints_on_switch(self, switch: int) -> list[int]:
        """Sorted endpoints hanging off ``switch``."""
        if not isinstance(switch, numbers.Integral) or switch < 0:
            return []
        return np.flatnonzero(self._endpoint_switch == switch).tolist()

    @property
    def flat(self) -> TopologyArrays:
        """The dense array views (see :class:`TopologyArrays`)."""
        if self._flat is None:
            self._flat = TopologyArrays(self)
        return self._flat

    def capacities(self) -> np.ndarray:
        """Per-link capacities, indexed by dense link index.

        Returns the read-only ndarray the topology holds — callers that
        need a mutable copy must copy explicitly.
        """
        return self._capacity

    # -- invariants ----------------------------------------------------------

    def port_counts(self, switch: int) -> dict[LinkKind, int]:
        """Outgoing port usage of a switch per link kind (cable count view)."""
        counts = np.bincount(self._kind[self._src == 2 * switch],
                             minlength=len(_KINDS))
        return {kind: int(counts[code]) for code, kind in enumerate(_KINDS)}

    def validate_path(self, path: Iterable[int]) -> None:
        """Check that consecutive links in a path chain head-to-tail.

        A per-hop loop: a scalar path has a handful of links, where the
        array calls of :meth:`validate_paths` cost more than they save.
        """
        n, prev = self.n_links, None
        for idx in path:
            if not 0 <= idx < n:
                raise TopologyError("path references an unknown link index")
            if prev is not None and self._dst[prev] != self._src[idx]:
                raise TopologyError(
                    f"path breaks at link {idx}: {_node(int(self._dst[prev]))} "
                    f"!= {_node(int(self._src[idx]))}")
            prev = idx

    def validate_paths(self, indices: np.ndarray, indptr: np.ndarray) -> None:
        """Vectorised :meth:`validate_path` over a CSR path set.

        ``indices`` concatenates every flow's link indices; flow ``f``
        occupies ``indices[indptr[f]:indptr[f + 1]]``.  All chains are
        checked with two array gathers instead of a Python loop per hop.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.n_links:
            raise TopologyError("path references an unknown link index")
        tail = self._dst[indices[:-1]]
        head = self._src[indices[1:]]
        mismatch = tail != head
        # joints at flow boundaries are allowed to mismatch
        boundary = np.asarray(indptr)[1:-1] - 1
        mismatch[boundary[(boundary >= 0) & (boundary < mismatch.size)]] = False
        if mismatch.any():
            at = int(np.flatnonzero(mismatch)[0])
            raise TopologyError(
                f"path breaks at link {int(indices[at + 1])}: "
                f"{_node(int(tail[at]))} != {_node(int(head[at]))}")
