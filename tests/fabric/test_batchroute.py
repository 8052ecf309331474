"""Batch planner equivalence tests: ``paths()`` vs the scalar ``path()`` loop.

The contract (see :mod:`repro.fabric.batchroute`):

* ``chunk=1`` replays the scalar loop **bit-identically** for every policy
  (same paths, same RNG draws, same load-tracker state);
* minimal, Valiant, and fat-tree ECMP plans are scalar-identical at *any*
  chunk (their picks only depend on flows of the same ordered group pair /
  edge switch, which the grouped water-fill serialises exactly);
* chunked UGAL is a documented approximation — its *rates* are pinned at
  ``chunk=1`` only;
* ``register=False`` plans are scalar-identical at any chunk (every pick
  reads the same load snapshot).
"""

import numpy as np
import pytest

from repro.errors import RoutingError, TopologyError
from repro.fabric.batchroute import BatchPaths, auto_chunk
from repro.fabric.dragonfly import (DragonflyConfig, _materialise_dragonfly,
                                    build_dragonfly)
from repro.fabric.fattree import FatTreeConfig, build_fattree
from repro.fabric.maxmin import maxmin_allocate
from repro.fabric.routing import FatTreeRouter, Router, RoutingPolicy
from repro.fabric.topology import LinkKind

CFG = DragonflyConfig().scaled(8, 4, 4)
FT_CFG = FatTreeConfig(edge_switches=8, endpoints_per_edge=8)
POLICIES = [RoutingPolicy.MINIMAL, RoutingPolicy.VALIANT, RoutingPolicy.UGAL]


@pytest.fixture(scope="module")
def topo():
    return build_dragonfly(CFG)


@pytest.fixture(scope="module")
def ft_topo():
    return build_fattree(FT_CFG)


def shift_pairs(n, offset):
    return [(i, (i + offset) % n) for i in range(n)]


def mixed_pairs(n, seed=11):
    """A permutation pattern mixing local and global flows."""
    perm = np.random.default_rng(seed).permutation(n)
    return [(i, int(perm[i])) for i in range(n) if perm[i] != i]


def scalar_plan(router, pairs, register=True):
    return [router.path(s, d, register=register) for s, d in pairs]


class _OnDragonfly:
    """The router a shared-check test class runs on; a subclass mixing in
    :class:`_OnFatTree` runs the same tests on the fat tree."""

    def router(self, policy=RoutingPolicy.MINIMAL, rng=1):
        return Router(build_dragonfly(CFG), CFG, policy, rng=rng)


class _OnFatTree:
    def router(self, policy=None, rng=1):
        return FatTreeRouter(build_fattree(FT_CFG), FT_CFG, rng=rng)


class TestChunk1IsBitIdentical:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_paths_and_loads_match_scalar(self, topo, policy):
        batch = Router(topo, CFG, policy, rng=3)
        scalar = Router(topo, CFG, policy, rng=3)
        pairs = mixed_pairs(CFG.total_endpoints)
        planned = batch.paths(pairs, chunk=1)
        expected = scalar_plan(scalar, pairs)
        assert planned.to_lists() == expected
        assert np.array_equal(batch.link_loads, scalar.link_loads)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rng_stream_alignment_across_calls(self, topo, policy):
        # Planning two phases back to back must consume the generator
        # exactly like two scalar loops would.
        batch = Router(topo, CFG, policy, rng=9)
        scalar = Router(topo, CFG, policy, rng=9)
        n = CFG.total_endpoints
        for offset in (7, CFG.endpoints_per_group):
            pairs = shift_pairs(n, offset)
            assert batch.paths(pairs, chunk=1).to_lists() == \
                scalar_plan(scalar, pairs)


class TestAnyChunkPolicies:
    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("policy",
                             [RoutingPolicy.MINIMAL, RoutingPolicy.VALIANT])
    def test_minimal_and_valiant_chunk_free(self, topo, policy, chunk):
        batch = Router(topo, CFG, policy, rng=5)
        scalar = Router(topo, CFG, policy, rng=5)
        pairs = mixed_pairs(CFG.total_endpoints)
        assert batch.paths(pairs, chunk=chunk).to_lists() == \
            scalar_plan(scalar, pairs)

    @pytest.mark.parametrize("chunk", [1, 16, None])
    def test_fattree_ecmp_chunk_free(self, ft_topo, chunk):
        batch = FatTreeRouter(ft_topo, FT_CFG, rng=2)
        scalar = FatTreeRouter(ft_topo, FT_CFG, rng=2)
        pairs = shift_pairs(FT_CFG.total_endpoints, 3)
        planned = batch.paths(pairs, chunk=chunk)
        assert planned.to_lists() == scalar_plan(scalar, pairs)
        assert np.array_equal(batch.link_loads, scalar.link_loads)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_register_false_chunk_free(self, topo, policy):
        # Unregistered planning never advances loads, so every pick sees
        # the same snapshot and any chunk replays the scalar loop.
        batch = Router(topo, CFG, policy, rng=4)
        scalar = Router(topo, CFG, policy, rng=4)
        pairs = mixed_pairs(CFG.total_endpoints)
        planned = batch.paths(pairs, chunk=37, register=False)
        assert planned.to_lists() == scalar_plan(scalar, pairs, register=False)
        assert batch.link_loads.sum() == 0


class TestUgalRates:
    def test_chunk1_rates_identical_to_scalar(self, topo):
        # The acceptance-criterion oracle: same flows, same max-min rates.
        caps = topo.capacities()
        batch = Router(topo, CFG, RoutingPolicy.UGAL, rng=6)
        scalar = Router(topo, CFG, RoutingPolicy.UGAL, rng=6)
        pairs = shift_pairs(CFG.total_endpoints, CFG.endpoints_per_group)
        demands = [0.7 * CFG.link_rate] * len(pairs)
        r_batch = maxmin_allocate(caps, batch.paths(pairs, chunk=1), demands)
        r_scalar = maxmin_allocate(caps, scalar_plan(scalar, pairs), demands)
        assert np.array_equal(r_batch.rates, r_scalar.rates)
        assert np.array_equal(r_batch.link_utilisation,
                              r_scalar.link_utilisation)
        assert np.array_equal(r_batch.bottleneck_link,
                              r_scalar.bottleneck_link)

    def test_chunked_ugal_paths_stay_valid(self, topo):
        router = Router(topo, CFG, RoutingPolicy.UGAL, rng=8)
        pairs = mixed_pairs(CFG.total_endpoints)
        planned = router.paths(pairs, chunk=64)  # validate_paths runs inside
        assert len(planned) == len(pairs)
        assert (planned.lengths() >= 2).all()


class TestDisabledLinks:
    def _link_of_kind(self, topo, kind, skip=0):
        hits = [lk for lk in topo.links if lk.kind is kind]
        return hits[skip]

    @pytest.mark.parametrize("kind", [LinkKind.L1, LinkKind.L2])
    def test_single_failure_matches_scalar(self, kind):
        topo = build_dragonfly(CFG)
        batch = Router(topo, CFG, RoutingPolicy.UGAL, rng=12)
        scalar = Router(topo, CFG, RoutingPolicy.UGAL, rng=12)
        failed = self._link_of_kind(topo, kind).index
        batch.disable_link(failed)
        scalar.disable_link(failed)
        pairs = mixed_pairs(CFG.total_endpoints)
        planned = batch.paths(pairs, chunk=1)
        assert planned.to_lists() == scalar_plan(scalar, pairs)
        assert failed not in set(planned.indices.tolist())

    def test_whole_bundle_down_forces_valiant_failover(self):
        topo = build_dragonfly(CFG)
        batch = Router(topo, CFG, RoutingPolicy.MINIMAL, rng=13)
        scalar = Router(topo, CFG, RoutingPolicy.MINIMAL, rng=13)
        # Kill every direct lane between groups 0 and 1, both directions.
        for lk in topo.links:
            if lk.kind is LinkKind.L2:
                ga = topo.group_of_switch(lk.src[1])
                gb = topo.group_of_switch(lk.dst[1])
                if {ga, gb} == {0, 1}:
                    batch.disable_link(lk.index)
                    scalar.disable_link(lk.index)
        g = CFG.endpoints_per_group
        pairs = [(i, g + i) for i in range(g)]  # group 0 -> group 1
        planned = batch.paths(pairs, chunk=1)
        assert planned.to_lists() == scalar_plan(scalar, pairs)
        # Failover paths detour through a third group: 2 global hops.
        kinds = topo.flat.link_kind
        for f in range(len(planned)):
            assert (kinds[planned.path(f)] == 2).sum() == 2

    @pytest.mark.parametrize("policy,chunk", [
        (RoutingPolicy.MINIMAL, 1), (RoutingPolicy.MINIMAL, None),
        (RoutingPolicy.UGAL, 1)])
    def test_failed_l1_cables_detour_like_scalar(self, policy, chunk):
        topo = build_dragonfly(CFG)
        batch = Router(topo, CFG, policy, rng=14)
        scalar = Router(topo, CFG, policy, rng=14)
        # group 0 loses cables 0-1 and 2-3: its mesh stays connected, so
        # those segments detour through the first live switch
        for a, b in ((0, 1), (1, 0), (2, 3), (3, 2)):
            link = topo.link_index(("sw", a), ("sw", b))
            batch.disable_link(link)
            scalar.disable_link(link)
        per_sw = CFG.endpoints_per_switch
        pairs = [(e, per_sw + e) for e in range(per_sw)]   # switch 0 -> 1
        pairs += mixed_pairs(CFG.total_endpoints)
        planned = batch.paths(pairs, chunk=chunk)
        assert planned.to_lists() == scalar_plan(scalar, pairs)
        assert not set(planned.indices.tolist()) & batch.disabled
        via_2 = [topo.link_index(("sw", 0), ("sw", 2)),
                 topo.link_index(("sw", 2), ("sw", 1))]
        for f in range(per_sw):
            assert planned.path(f)[1:3] == via_2

    def test_edge_link_failure_rejected(self, topo):
        router = Router(topo, CFG, RoutingPolicy.MINIMAL, rng=1)
        edge = self._link_of_kind(topo, LinkKind.L0).index
        router.disable_link(edge)
        ep = (topo.link(edge).src[1] if topo.link(edge).src[0] == "ep"
              else topo.link(edge).dst[1])
        dst = (ep + CFG.endpoints_per_group) % CFG.total_endpoints
        with pytest.raises(RoutingError, match="edge link"):
            router.paths([(ep, dst)])


class TestLoadAccounting(_OnDragonfly):
    def test_total_load_equals_total_links_planned(self):
        router = self.router(RoutingPolicy.UGAL, rng=21)
        pairs = mixed_pairs(router.config.total_endpoints)
        planned = router.paths(pairs)
        assert router.link_loads.sum() == planned.indices.size

    def test_per_link_load_is_bincount_of_paths(self):
        router = self.router(RoutingPolicy.VALIANT, rng=22)
        pairs = shift_pairs(router.config.total_endpoints, 9)
        planned = router.paths(pairs)
        expected = np.bincount(planned.indices,
                               minlength=router.topo.n_links)
        assert np.array_equal(router.link_loads, expected)


class TestFatTreeLoadAccounting(_OnFatTree, TestLoadAccounting):
    pass


class TestMaxminCsr:
    def test_csr_and_list_inputs_agree(self, topo):
        router = Router(topo, CFG, RoutingPolicy.UGAL, rng=30)
        pairs = mixed_pairs(CFG.total_endpoints)
        planned = router.paths(pairs)
        caps = topo.capacities()
        demands = [0.7 * CFG.link_rate] * len(pairs)
        r_csr = maxmin_allocate(caps, planned, demands)
        r_lists = maxmin_allocate(caps, planned.to_lists(), demands)
        assert np.array_equal(r_csr.rates, r_lists.rates)
        assert np.array_equal(r_csr.bottleneck_link, r_lists.bottleneck_link)


class TestBatchPathsContainer:
    def test_from_matrix_drops_padding(self):
        matrix = np.array([[3, -1, 5], [-1, -1, -1], [7, 8, 9]])
        bp = BatchPaths.from_matrix(matrix)
        assert len(bp) == 3
        assert bp.to_lists() == [[3, 5], [], [7, 8, 9]]
        assert bp.path(2) == [7, 8, 9]
        assert np.array_equal(bp.lengths(), [2, 0, 3])

    def test_len_matches_pairs(self, topo):
        router = Router(topo, CFG, RoutingPolicy.MINIMAL, rng=1)
        pairs = shift_pairs(CFG.total_endpoints, 5)
        assert len(router.paths(pairs, register=False)) == len(pairs)


class TestInputValidation(_OnDragonfly):
    def test_bad_chunk_rejected(self):
        with pytest.raises(RoutingError, match="chunk"):
            self.router().paths([(0, 1)], chunk=0)

    def test_self_flow_rejected(self):
        with pytest.raises(RoutingError, match="coincide"):
            self.router().paths([(5, 5)])

    def test_unknown_endpoint_rejected(self):
        router = self.router()
        with pytest.raises(TopologyError, match="unknown endpoint"):
            router.paths([(0, router.config.total_endpoints + 100)])

    def test_malformed_pairs_rejected(self):
        with pytest.raises(RoutingError, match="sequence of"):
            self.router().paths([(0, 1, 2)])

    def test_ndarray_pairs_accepted(self):
        router = self.router()
        pairs = np.array(shift_pairs(router.config.total_endpoints, 4))
        assert len(router.paths(pairs, register=False)) == len(pairs)


class TestFatTreeInputValidation(_OnFatTree, TestInputValidation):
    pass


class TestAutoChunk:
    def test_bounds(self):
        assert auto_chunk(1) == 16
        assert auto_chunk(128) == 16
        assert auto_chunk(1024) == 128
        assert auto_chunk(1 << 20) == 512


class TestFlatArrays:
    def test_flat_view_is_cached_and_invalidated(self, topo):
        assert topo.flat is topo.flat
        assert topo.capacities() is topo.flat.capacities

    def test_mutation_invalidates(self):
        # an unmemoized build: mutating the shared memo entry would hand
        # later tests of this config a topology with an extra switch
        topo = _materialise_dragonfly(DragonflyConfig().scaled(4, 2, 2))
        before = topo.flat
        sw = topo.n_switches
        topo.add_switch(sw, group=0)
        assert topo.flat is not before
        assert topo.flat.switch_group[sw] == 0

    def test_views_are_read_only(self, topo):
        with pytest.raises(ValueError):
            topo.flat.capacities[0] = 1.0

    def test_reverse_indices(self, topo):
        for g in range(CFG.groups):
            sws = topo.switches_in_group(g)
            assert sws == sorted(sws)
            assert all(topo.group_of_switch(s) == g for s in sws)
        for s in list(topo.switches())[:4]:
            for ep in topo.endpoints_on_switch(s):
                assert topo.switch_of_endpoint(ep) == s

    def test_gateway_index_lists_each_pair_in_link_order(self, topo):
        expected: dict[tuple[int, int], list[int]] = {}
        for link in topo.links:
            if link.kind is LinkKind.L2:
                pair = (topo.group_of_switch(link.src[1]),
                        topo.group_of_switch(link.dst[1]))
                expected.setdefault(pair, []).append(link.index)
        links, indptr = Router(topo, CFG)._gateways
        G = CFG.groups
        got = {divmod(row, G): links[indptr[row]:indptr[row + 1]].tolist()
               for row in range(G * G) if indptr[row + 1] > indptr[row]}
        assert got == expected

    def test_batch_tables_follow_the_gateway_index(self, topo):
        router = Router(topo, CFG)
        dead = router._gateways[0][::3].tolist()
        for link in dead:
            router.disable_link(link)
        state = router._new_batch_state()
        links, indptr = router._gateways
        for row in range(CFG.groups ** 2):
            alive = [i for i in links[indptr[row]:indptr[row + 1]].tolist()
                     if i not in dead]
            width = state.gw_link.shape[1]
            assert state.gw_link[row].tolist() == alive + [-1] * (width - len(alive))
            assert state.gw_src[row, :len(alive)].tolist() == [
                topo.link(i).src[1] for i in alive]
            assert state.gw_dst[row, :len(alive)].tolist() == [
                topo.link(i).dst[1] for i in alive]
            assert state.pair_ok.ravel()[row] == bool(alive)

    def test_validate_paths_accepts_scalar_valid_chain(self, topo):
        router = Router(topo, CFG, RoutingPolicy.MINIMAL, rng=1)
        path = np.asarray(router.path(0, CFG.total_endpoints - 1,
                                      register=False))
        topo.validate_paths(path, np.array([0, path.size]))

    def test_validate_paths_rejects_broken_chain(self, topo):
        router = Router(topo, CFG, RoutingPolicy.MINIMAL, rng=1)
        a = router.path(0, CFG.total_endpoints - 1, register=False)
        b = router.path(1, CFG.total_endpoints - 2, register=False)
        broken = np.asarray(a + b)  # one flow, mismatched joint
        with pytest.raises(TopologyError, match="path breaks"):
            topo.validate_paths(broken, np.array([0, broken.size]))
