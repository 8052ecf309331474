"""Topology-aware placement tests (§3.4.2's pack-small / spread-large)."""

import numpy as np
import pytest

from repro.errors import PlacementError
from repro.scheduler.placement import (NODES_PER_GROUP, PlacementPolicy,
                                       allocation_stats, place_job)


def free_machine(nodes: int = 1024) -> np.ndarray:
    return np.arange(nodes)


def free_array(nodes: set[int]) -> np.ndarray:
    """``nodes`` in the set's own iteration order."""
    return np.fromiter(nodes, dtype=np.int64)


class TestAutoPolicy:
    def test_small_job_packs_into_one_group(self):
        # "For small jobs able to fit within a single rack/group, Slurm
        # will pack allocations tightly to minimize global hops."
        nodes = place_job(64, free_machine())
        stats = allocation_stats(nodes)
        assert stats.groups_spanned == 1
        assert stats.intra_group_fraction == 1.0

    def test_large_job_spreads_across_groups(self):
        # "For larger jobs, Slurm will attempt to spread a job evenly
        # across as many Slingshot groups as possible"
        nodes = place_job(512, free_machine())
        stats = allocation_stats(nodes)
        assert stats.groups_spanned == 8   # every group of the 1024-node box
        assert stats.max_nodes_in_group == 64

    def test_boundary_at_group_size(self):
        packed = place_job(NODES_PER_GROUP, free_machine())
        assert allocation_stats(packed).groups_spanned == 1
        spread = place_job(NODES_PER_GROUP + 1, free_machine())
        assert allocation_stats(spread).groups_spanned > 1


class TestExplicitPolicies:
    def test_pack_tightest_fit(self):
        free = set(range(0, 64)) | set(range(128, 140))  # group0: 64, group1: 12
        nodes = place_job(10, free_array(free), PlacementPolicy.PACK)
        # tightest fit: the 12-node fragment, not the big group
        assert all(128 <= n < 140 for n in nodes)

    def test_pack_spills_when_no_single_group_fits(self):
        free = set(range(0, 20)) | set(range(128, 148))
        nodes = place_job(30, free_array(free), PlacementPolicy.PACK)
        assert allocation_stats(nodes).groups_spanned == 2

    def test_pack_tie_goes_to_lowest_group(self):
        # Equal free sets place the same, whatever the order of the array:
        # the literal iterates 130, 131, 60, 61; the range thinned node by
        # node keeps its large table and iterates in ascending order.
        literal = {60, 61, 130, 131}
        thinned = set(range(4096))
        for node in range(4096):
            if node not in literal:
                thinned.discard(node)
        assert thinned == literal and list(thinned) != list(literal)
        for free in (literal, thinned):
            assert place_job(2, free_array(free), PlacementPolicy.PACK,
                             64).tolist() == [60, 61]

    def test_spread_round_robins(self):
        nodes = place_job(8, free_machine(4 * NODES_PER_GROUP),
                          PlacementPolicy.SPREAD)
        stats = allocation_stats(nodes)
        assert stats.groups_spanned == 4
        assert stats.max_nodes_in_group == 2

    def test_spread_more_global_bandwidth_per_node(self):
        free = free_machine(8 * NODES_PER_GROUP)
        packed = allocation_stats(place_job(256, free, PlacementPolicy.PACK))
        spread = allocation_stats(place_job(256, free, PlacementPolicy.SPREAD))
        assert (spread.global_bandwidth_per_node
                > packed.global_bandwidth_per_node)


class TestValidation:
    def test_too_many_nodes(self):
        with pytest.raises(PlacementError):
            place_job(100, free_machine(50))

    def test_zero_nodes(self):
        with pytest.raises(PlacementError):
            place_job(0, free_machine())

    def test_empty_allocation_stats(self):
        with pytest.raises(PlacementError):
            allocation_stats([])

    def test_duplicate_free_nodes_rejected(self):
        with pytest.raises(PlacementError):
            place_job(2, np.array([5, 5, 6]))

    def test_allocation_stats_of_arrays(self):
        with pytest.raises(PlacementError):
            allocation_stats(np.empty(0, dtype=np.int64))
        stats = allocation_stats(np.arange(120, 136))
        assert stats.groups_spanned == 2
        assert stats.max_nodes_in_group == 8

    def test_single_node_stats(self):
        stats = allocation_stats([7])
        assert stats.groups_spanned == 1
        assert stats.is_single_group
        assert stats.intra_group_fraction == 1.0

    @pytest.mark.parametrize("n_nodes", [True, 2.0, np.float64(2)],
                             ids=["bool", "float", "numpy-float"])
    def test_non_integer_node_count_rejected(self, n_nodes):
        # True once placed one node; 2.0 raised a bare TypeError
        with pytest.raises(PlacementError, match="integer"):
            place_job(n_nodes, free_machine())

    @pytest.mark.parametrize("nodes_per_group", [0, -4, 2.5, True])
    def test_bad_group_size_rejected(self, nodes_per_group):
        # 0 divided by zero, -4 and 2.5 placed garbage
        with pytest.raises(PlacementError, match="nodes_per_group"):
            place_job(2, free_machine(16), PlacementPolicy.PACK,
                      nodes_per_group)

    def test_float_free_ids_rejected(self):
        # [0.5, 1.7, 3.2] used to be truncated and place [0, 1]
        with pytest.raises(PlacementError, match="integers"):
            place_job(2, np.array([0.5, 1.7, 3.2]))

    def test_negative_free_ids_rejected(self):
        with pytest.raises(PlacementError, match="negative"):
            place_job(2, np.array([-3, 4, 5]))

    def test_two_dimensional_free_array_rejected(self):
        # a 2-D free array once came back 2-D
        with pytest.raises(PlacementError, match="1-D"):
            place_job(2, np.arange(8).reshape(2, 4))

    def test_policy_must_be_a_placement_policy(self):
        # "pack" raised an AttributeError from the policy counter
        with pytest.raises(PlacementError, match="policy"):
            place_job(2, free_machine(), "pack")

    def test_empty_free_list_is_simply_too_small(self):
        with pytest.raises(PlacementError, match="only 0 are free"):
            place_job(1, [])

    def test_result_is_sorted_unique(self):
        nodes = place_job(100, free_machine())
        assert nodes.dtype == np.int64
        assert nodes.tolist() == sorted(set(nodes.tolist()))
