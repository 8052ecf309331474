"""The fabric caching layer: a bounded LRU and the topology memo.

Two cache layers sit under the scenario/composition root
(:mod:`repro.core.scenario`):

* the **topology memo**, :func:`memoized_topology`, one config-keyed LRU
  that :func:`repro.fabric.dragonfly.build_dragonfly` and
  :func:`repro.fabric.fattree.build_fattree` share — safe because a
  :class:`repro.fabric.topology.Topology` is append-only during
  construction and read-only afterwards (all mutable routing state lives
  on the routers), and because a dragonfly and a fat-tree config never
  compare equal;
* the per-router **path cache** for unregistered (load-neutral) path
  queries, keyed on ``(src, dst, label)``.

Both emit ``fabric.*_cache.hits`` / ``.misses`` counters through
:mod:`repro.obs`; :func:`clear_fabric_caches` empties the topology memo
(path caches are instance state and die with their routers).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro import obs
from repro.errors import ConfigurationError
from repro.fabric.topology import Topology

__all__ = ["LruCache", "memoized_topology", "clear_fabric_caches"]


class LruCache:
    """A plain ``OrderedDict``-backed LRU mapping (not thread-safe)."""

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ConfigurationError("LRU cache needs a positive maxsize")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> Any | None:
        """The cached value, refreshed as most-recent; ``None`` on miss."""
        try:
            self._data.move_to_end(key)
        except KeyError:
            return None
        return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data


#: Config-keyed memo of built topologies of either fabric.
_TOPOLOGY_CACHE = LruCache(maxsize=32)


def memoized_topology(config: Hashable,
                      build: Callable[[Any], Topology]) -> Topology:
    """``build(config)``, memoized per config; counts hits and misses."""
    cached = _TOPOLOGY_CACHE.get(config)
    if cached is not None:
        obs.counter("fabric.topology_cache.hits").inc()
        return cached
    obs.counter("fabric.topology_cache.misses").inc()
    topo = build(config)
    _TOPOLOGY_CACHE.put(config, topo)
    return topo


def clear_fabric_caches() -> None:
    """Drop every memoized topology (tests, degradation sweeps)."""
    _TOPOLOGY_CACHE.clear()
