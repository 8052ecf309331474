"""Config-keyed topology memoization and the router path cache."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.fabric.cache import LruCache, clear_fabric_caches
from repro.fabric.dragonfly import DragonflyConfig, build_dragonfly
from repro.fabric.fattree import FatTreeConfig, build_fattree
from repro.fabric.network import FatTreeNetwork, SlingshotNetwork

SMALL = DragonflyConfig().scaled(6, 4, 4)


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_fabric_caches()
    obs.registry().reset()
    yield
    clear_fabric_caches()


def _counter(name: str) -> float:
    snap = obs.registry().snapshot()
    return snap.get(name, {}).get("value", 0.0)


class TestLruCache:
    def test_get_put_and_eviction_order(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes "a"
        cache.put("c", 3)                   # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2 and "c" in cache

    def test_clear_empties(self):
        cache = LruCache(maxsize=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0 and cache.get("a") is None

    def test_maxsize_validated(self):
        with pytest.raises(ConfigurationError):
            LruCache(maxsize=0)


class TestTopologyMemo:
    def test_same_config_returns_same_topology(self):
        assert build_dragonfly(SMALL) is build_dragonfly(SMALL)
        ft = FatTreeConfig(4, 4)
        assert build_fattree(ft) is build_fattree(ft)

    def test_equal_configs_share_one_entry(self):
        a = DragonflyConfig().scaled(6, 4, 4)
        b = DragonflyConfig().scaled(6, 4, 4)
        assert a is not b
        assert build_dragonfly(a) is build_dragonfly(b)

    def test_different_configs_do_not_collide(self):
        other = DragonflyConfig().scaled(8, 4, 4)
        assert build_dragonfly(SMALL) is not build_dragonfly(other)

    def test_hit_miss_counters(self):
        obs.enable(tracing=False)
        try:
            build_dragonfly(SMALL)
            build_dragonfly(SMALL)
            build_dragonfly(DragonflyConfig().scaled(8, 4, 4))
        finally:
            obs.disable()
        assert _counter("fabric.topology_cache.misses") == 2.0
        assert _counter("fabric.topology_cache.hits") == 1.0

    def test_clear_fabric_caches_forces_rebuild(self):
        before = build_dragonfly(SMALL)
        clear_fabric_caches()
        assert build_dragonfly(SMALL) is not before

    def test_networks_share_cached_topology_but_not_routers(self):
        a = SlingshotNetwork(SMALL, rng=0)
        b = SlingshotNetwork(SMALL, rng=0)
        assert a.topology is b.topology
        assert a.router is not b.router
        ft = FatTreeConfig(4, 4)
        assert FatTreeNetwork(ft).topology is FatTreeNetwork(ft).topology


class TestPathCache:
    def test_unregistered_queries_hit_after_first(self):
        net = SlingshotNetwork(SMALL, rng=0)
        obs.enable(tracing=False)
        try:
            p1 = net.router.path(0, 40, register=False)
            p2 = net.router.path(0, 40, register=False)
        finally:
            obs.disable()
        assert p1 == p2
        assert _counter("fabric.path_cache.misses") == 1.0
        assert _counter("fabric.path_cache.hits") == 1.0

    def test_cached_path_is_a_private_copy(self):
        net = SlingshotNetwork(SMALL, rng=0)
        p1 = net.router.path(0, 40, register=False)
        p1.append(999)
        assert net.router.path(0, 40, register=False)[-1] != 999

    def test_registered_paths_never_cached(self):
        net = SlingshotNetwork(SMALL, rng=0)
        obs.enable(tracing=False)
        try:
            net.router.path(0, 40)
            net.router.path(0, 40)
        finally:
            obs.disable()
        assert _counter("fabric.path_cache.hits") == 0.0
        assert _counter("fabric.path_cache.misses") == 0.0

    def test_disable_link_invalidates(self):
        net = SlingshotNetwork(SMALL, rng=0)
        obs.enable(tracing=False)
        try:
            p1 = net.router.path(0, 40, register=False)
            # fail a mid-path fabric link (not the injection/ejection edges,
            # which would cut the endpoints off entirely)
            net.router.disable_link(p1[1])
            p2 = net.router.path(0, 40, register=False)
        finally:
            obs.disable()
        assert p1[1] not in p2
        assert _counter("fabric.path_cache.misses") == 2.0
        assert _counter("fabric.path_cache.hits") == 0.0

    def test_reset_load_invalidates(self):
        net = SlingshotNetwork(SMALL, rng=0)
        obs.enable(tracing=False)
        try:
            net.router.path(0, 40, register=False)
            net.router.reset_load()
            net.router.path(0, 40, register=False)
        finally:
            obs.disable()
        assert _counter("fabric.path_cache.misses") == 2.0

    def test_fat_tree_router_caches_too(self):
        net = FatTreeNetwork(FatTreeConfig(4, 4), rng=0)
        obs.enable(tracing=False)
        try:
            p1 = net.router.path(0, 9, register=False)
            p2 = net.router.path(0, 9, register=False)
        finally:
            obs.disable()
        assert p1 == p2
        assert _counter("fabric.path_cache.hits") == 1.0

    def test_flow_results_unaffected_by_path_cache(self):
        pairs = [(i, (i + 8) % SMALL.total_endpoints)
                 for i in range(SMALL.total_endpoints)]
        a, _ = SlingshotNetwork(SMALL, rng=0).flow_bandwidths(pairs)
        b, _ = SlingshotNetwork(SMALL, rng=0).flow_bandwidths(pairs)
        assert [f.bandwidth for f in a] == [f.bandwidth for f in b]
