"""``place_job`` vs a per-node reference loop (the batchroute ``chunk=1`` idiom).

Production placement groups the free set with one sort plus NumPy and
computes SPREAD's round-robin in closed form.  :func:`reference_place_job`
below is the straightforward per-node version: group node by node, then
deal SPREAD one node per group per round.  It walks the free set in
ascending order, which spells out the tie rule (equally-full groups go
lowest group id first).  Both must return the same nodes for every
policy, group size and free set, whatever the order of the free array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.scheduler.placement import PlacementPolicy, place_job

GROUP_SIZES = (4, 16, 64, 128)


def reference_place_job(n_nodes, free_nodes, policy, nodes_per_group):
    if n_nodes < 1 or n_nodes > len(free_nodes):
        raise PlacementError("cannot place")
    if policy is PlacementPolicy.AUTO:
        policy = (PlacementPolicy.PACK if n_nodes <= nodes_per_group
                  else PlacementPolicy.SPREAD)
    by_group: dict[int, list[int]] = {}
    for node in sorted(free_nodes):
        by_group.setdefault(node // nodes_per_group, []).append(node)

    if policy is PlacementPolicy.PACK:
        # stable sorts: ties keep ascending group order
        groups = sorted(by_group.values(), key=len, reverse=True)
        single = [g for g in groups if len(g) >= n_nodes]
        if single:
            return min(single, key=len)[:n_nodes]
        chosen: list[int] = []
        for nodes in groups:
            chosen.extend(nodes[:n_nodes - len(chosen)])
            if len(chosen) == n_nodes:
                return sorted(chosen)
        raise AssertionError("unreachable")

    chosen = []
    cursors = dict.fromkeys(by_group, 0)
    while len(chosen) < n_nodes:
        for g in sorted(by_group):
            if len(chosen) == n_nodes:
                break
            if cursors[g] < len(by_group[g]):
                chosen.append(by_group[g][cursors[g]])
                cursors[g] += 1
    return sorted(chosen)


def check(n, free, policy, npg):
    # the free array comes in the set's iteration order, not sorted
    got = place_job(n, np.fromiter(free, dtype=np.int64), policy, npg)
    assert got.dtype == np.int64
    assert got.tolist() == reference_place_job(n, free, policy, npg)
    return got.tolist()


@st.composite
def free_sets(draw):
    """(nodes_per_group, free set built in ascending order, n)."""
    npg = draw(st.sampled_from(GROUP_SIZES))
    groups = draw(st.lists(st.integers(0, npg), min_size=1, max_size=12))
    rnd = draw(st.randoms(use_true_random=False))
    free: set[int] = set()
    for g, size in enumerate(groups):
        offsets = sorted(rnd.sample(range(npg), size))
        free.update(g * npg + o for o in offsets)
    if not free:
        free = {10**5 + 7}   # one node in a far-away group
    n = draw(st.integers(1, len(free)))
    return npg, free, n


class TestMatchesReference:
    @given(free_sets(), st.sampled_from(list(PlacementPolicy)))
    @settings(max_examples=300, deadline=None)
    def test_random_free_sets(self, case, policy):
        npg, free, n = case
        check(n, free, policy, npg)

    @pytest.mark.parametrize("npg", GROUP_SIZES)
    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_single_group(self, npg, policy):
        free = set(range(3 * npg, 4 * npg - 1))
        for n in (1, npg // 2, len(free)):
            check(n, free, policy, npg)

    @pytest.mark.parametrize("npg", GROUP_SIZES)
    def test_whole_rounds(self, npg):
        # 4 groups of 3 nodes: n = 4, 8, 12 end exactly on a round
        free = {g * npg + i for g in range(4) for i in range(3)}
        for rounds in (1, 2, 3):
            got = check(4 * rounds, free, PlacementPolicy.SPREAD, npg)
            assert [node // npg for node in got].count(0) == rounds

    @pytest.mark.parametrize("npg", GROUP_SIZES)
    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_whole_free_set(self, npg, policy):
        free = set(range(0, 5 * npg, 3))
        assert check(len(free), free, policy, npg) == sorted(free)

    @pytest.mark.parametrize("npg", GROUP_SIZES)
    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_very_different_group_sizes(self, npg, policy):
        # groups of 1, npg, 2 and npg - 1 free nodes
        free = ({0} | set(range(npg, 2 * npg)) | {2 * npg, 2 * npg + 1}
                | set(range(3 * npg + 1, 4 * npg)))
        for n in range(1, len(free) + 1):
            check(n, free, policy, npg)
