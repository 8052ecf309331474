"""Generic topology graph tests."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.fabric.topology import LinkKind, Topology


@pytest.fixture()
def tiny() -> Topology:
    t = Topology()
    t.add_switch(0, group=0)
    t.add_switch(1, group=0)
    t.add_switch(2, group=1)
    t.add_endpoint(0, 0)
    t.add_endpoint(1, 2)
    t.add_bidirectional(("ep", 0), ("sw", 0), 25e9, LinkKind.L0)
    t.add_bidirectional(("sw", 0), ("sw", 1), 25e9, LinkKind.L1)
    t.add_bidirectional(("sw", 1), ("sw", 2), 50e9, LinkKind.L2)
    t.add_bidirectional(("sw", 2), ("ep", 1), 25e9, LinkKind.L0)
    return t


class TestConstruction:
    def test_counts(self, tiny):
        assert tiny.n_switches == 3
        assert tiny.n_endpoints == 2
        assert tiny.n_links == 8  # 4 cables x 2 directions

    def test_duplicate_switch_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_switch(0)

    def test_duplicate_endpoint_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_endpoint(0, 1)

    def test_endpoint_needs_existing_switch(self):
        t = Topology()
        with pytest.raises(TopologyError):
            t.add_endpoint(0, 99)

    def test_duplicate_link_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_link(("sw", 0), ("sw", 1), 1e9, LinkKind.L1)

    def test_link_to_unknown_node_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_link(("sw", 0), ("sw", 9), 1e9, LinkKind.L1)
        with pytest.raises(TopologyError):
            tiny.add_link(("xx", 0), ("sw", 1), 1e9, LinkKind.L1)

    def test_nonpositive_capacity_rejected(self, tiny):
        with pytest.raises(TopologyError):
            tiny.add_link(("sw", 0), ("sw", 2), 0.0, LinkKind.L2)


class TestQueries:
    def test_both_directions_exist_independently(self, tiny):
        fwd = tiny.link_between(("sw", 1), ("sw", 2))
        rev = tiny.link_between(("sw", 2), ("sw", 1))
        assert fwd is not None and rev is not None
        assert fwd.index != rev.index

    def test_group_lookups(self, tiny):
        assert tiny.group_of_switch(2) == 1
        assert tiny.group_of_endpoint(1) == 1
        assert tiny.switch_of_endpoint(0) == 0

    def test_unknown_lookups_raise(self, tiny):
        with pytest.raises(TopologyError):
            tiny.group_of_switch(42)
        with pytest.raises(TopologyError):
            tiny.switch_of_endpoint(42)

    def test_switches_in_group(self, tiny):
        assert tiny.switches_in_group(0) == [0, 1]

    def test_endpoints_on_switch(self, tiny):
        assert tiny.endpoints_on_switch(0) == [0]
        assert tiny.endpoints_on_switch(1) == []

    def test_out_links(self, tiny):
        outs = tiny.out_links(("sw", 1))
        assert {link.dst for link in outs} == {("sw", 0), ("sw", 2)}

    def test_capacities_indexing(self, tiny):
        caps = tiny.capacities()
        assert len(caps) == tiny.n_links
        for link in tiny.links:
            assert caps[link.index] == link.capacity

    def test_port_counts(self, tiny):
        counts = tiny.port_counts(1)
        assert counts[LinkKind.L1] == 1
        assert counts[LinkKind.L2] == 1
        assert counts[LinkKind.L0] == 0


class TestPathValidation:
    def test_valid_path(self, tiny):
        p = [tiny.link_between(("ep", 0), ("sw", 0)).index,
             tiny.link_between(("sw", 0), ("sw", 1)).index,
             tiny.link_between(("sw", 1), ("sw", 2)).index,
             tiny.link_between(("sw", 2), ("ep", 1)).index]
        tiny.validate_path(p)  # no raise

    def test_broken_path_raises(self, tiny):
        p = [tiny.link_between(("ep", 0), ("sw", 0)).index,
             tiny.link_between(("sw", 1), ("sw", 2)).index]
        with pytest.raises(TopologyError):
            tiny.validate_path(p)


class TestArrayStorage:
    """The topology is its arrays; appends check and replace them whole."""

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_capacity_rejected(self, tiny, capacity):
        with pytest.raises(TopologyError, match="capacity"):
            tiny.add_link(("sw", 0), ("sw", 2), capacity, LinkKind.L2)
        assert tiny.n_links == 8

    def test_failed_bidirectional_adds_neither_direction(self, tiny):
        tiny.add_link(("sw", 2), ("sw", 0), 1e9, LinkKind.L2)
        with pytest.raises(TopologyError, match="duplicate"):
            tiny.add_bidirectional(("sw", 0), ("sw", 2), 1e9, LinkKind.L2)
        assert tiny.n_links == 9
        assert tiny.link_between(("sw", 0), ("sw", 2)) is None

    def test_earlier_flat_view_survives_mutation(self, tiny):
        before = tiny.flat
        tiny.add_switch(3, group=1)
        tiny.add_link(("sw", 2), ("sw", 3), 1e9, LinkKind.L1)
        assert len(before.capacities) == 8 and len(before.switch_group) == 3
        pairs = np.array([[1, 2], [2, 1], [0, 1]])
        assert before.switch_link(pairs[:, 0], pairs[:, 1]).tolist() == [4, 5, 2]
        assert tiny.flat.switch_link(np.array([2, 1]),
                                     np.array([3, 2])).tolist() == [8, 4]

    def test_links_are_made_on_demand(self, tiny):
        last = tiny.link(-1)
        assert last == tiny.links[-1] and last.index == tiny.n_links - 1
        assert last.src == ("ep", 1) and last.dst == ("sw", 2)
        with pytest.raises(TopologyError):
            tiny.link(tiny.n_links)

    def test_second_edge_link_of_an_endpoint_is_found(self, tiny):
        tiny.add_link(("ep", 0), ("sw", 1), 5e9, LinkKind.L0)
        assert tiny.link_between(("ep", 0), ("sw", 1)).index == 8
        assert tiny.link_between(("ep", 0), ("sw", 0)).index == 0
        assert tiny.link_between(("ep", 0), ("sw", 2)) is None
        assert tiny.link_between(("ep", 0), ("ep", 1)) is None
        assert tiny.link_between(("sw", 0), ("sw", 99)) is None
        assert tiny.link_between(("xx", 0), ("sw", 0)) is None

    def test_ids_and_groups_must_be_non_negative_integers(self):
        t = Topology()
        for bad in (dict(switch=-1), dict(switch=1.5), dict(switch=0, group=-1)):
            with pytest.raises(TopologyError):
                t.add_switch(**bad)
        assert t.n_switches == 0

    def test_switches_iterate_in_id_order(self):
        t = Topology()
        for sw in (5, 1, 3):
            t.add_switch(sw, group=sw % 2)
        assert list(t.switches()) == [1, 3, 5]
        assert t.switches_in_group(1) == [1, 3, 5]
        assert t.switches_in_group(-1) == []
        assert t.flat.switch_group.tolist() == [-1, 1, -1, 1, -1, 1]

    def test_unknown_link_index_in_path(self, tiny):
        with pytest.raises(TopologyError, match="unknown link"):
            tiny.validate_path([0, 99])

    def test_from_cables_checks_its_tables(self):
        with pytest.raises(TopologyError, match="unknown switch"):
            Topology.from_cables([0, 0], [0, 2], ())
        with pytest.raises(TopologyError, match="groups"):
            Topology.from_cables([0, -1], [0], ())

    def test_from_cables_interleaves_directions(self):
        topo = Topology.from_cables(
            [0, 0], [0], [(np.array([1]), np.array([0]), 2e9, LinkKind.L0),
                          (np.array([0]), np.array([2]), 3e9, LinkKind.L1)])
        assert [(lk.src, lk.dst, lk.capacity, lk.kind) for lk in topo.links] == [
            (("ep", 0), ("sw", 0), 2e9, LinkKind.L0),
            (("sw", 0), ("ep", 0), 2e9, LinkKind.L0),
            (("sw", 0), ("sw", 1), 3e9, LinkKind.L1),
            (("sw", 1), ("sw", 0), 3e9, LinkKind.L1)]
