"""Dragonfly builder tests — the §3.2 derived quantities."""

from dataclasses import replace

import pytest

from repro.errors import TopologyError
from repro.fabric.dragonfly import DragonflyConfig, build_dragonfly
from repro.fabric.topology import LinkKind


class TestFrontierDerivedQuantities:
    """Every §3.2 number must fall out of the configuration."""

    def setup_method(self):
        self.cfg = DragonflyConfig()

    def test_74_compute_groups_of_32_switches(self):
        assert self.cfg.groups == 74
        assert self.cfg.switches_per_group == 32
        assert self.cfg.total_switches == 2368

    def test_512_endpoints_per_group(self):
        assert self.cfg.endpoints_per_group == 512

    def test_37888_total_endpoints(self):
        # 9,472 nodes x 4 NICs
        assert self.cfg.total_endpoints == 37888

    def test_injection_bandwidth_12_8_tbs_per_group(self):
        assert self.cfg.injection_bandwidth_per_group == pytest.approx(12.8e12)

    def test_global_bandwidth_7_3_tbs_per_group(self):
        assert self.cfg.global_bandwidth_per_group == pytest.approx(7.3e12)

    def test_taper_is_57_pct(self):
        assert self.cfg.taper == pytest.approx(0.5703, abs=0.001)

    def test_total_global_bandwidth_270_1_tbs(self):
        # "The total global bandwidth between the compute groups is
        # 270+270 TB/s" / "the available 270.1 TB/s global bandwidth"
        assert self.cfg.total_global_bandwidth == pytest.approx(270.1e12,
                                                                rel=0.001)

    def test_bundle_of_two_cables_is_four_links(self):
        assert self.cfg.global_links_per_pair == 4

    def test_l2_port_budget_respected(self):
        per_switch = (self.cfg.global_link_endpoints_per_group
                      / self.cfg.switches_per_group)
        assert per_switch <= self.cfg.l2_ports


class TestValidation:
    def test_too_few_groups(self):
        with pytest.raises(TopologyError):
            DragonflyConfig(groups=1)

    def test_l1_port_overflow(self):
        with pytest.raises(TopologyError):
            DragonflyConfig(switches_per_group=40, l1_ports=32)

    @pytest.mark.parametrize("field, value", [
        ("link_rate", float("nan")),
        ("link_rate", float("inf")),
        ("link_rate", -25e9),
        ("link_rate", True),
        ("global_links_per_pair", 0),
        ("groups", 8.0),
        ("switches_per_group", 4.0),
        ("endpoints_per_switch", 2.5),
        ("endpoints_per_switch", True),
        ("global_links_per_pair", 1.5),
        ("l2_ports", 16.0),
    ])
    def test_bad_field_rejected_at_construction(self, field, value):
        # NaN rates used to build NaN-capacity links, zero lanes a fabric
        # without global links, and fractional counts a TypeError deep
        # in the builder.
        with pytest.raises(TopologyError, match=field):
            replace(DragonflyConfig().scaled(4, 2, 2), **{field: value})

    def test_l2_port_overflow(self):
        with pytest.raises(TopologyError):
            DragonflyConfig(groups=74, global_links_per_pair=10, l2_ports=16)

    def test_global_attach_rejects_same_group(self):
        with pytest.raises(TopologyError):
            DragonflyConfig().global_attach(3, 3, 0)

    def test_global_attach_rejects_bad_lane(self):
        with pytest.raises(TopologyError):
            DragonflyConfig().global_attach(0, 1, 99)


class TestScaledConfig:
    def test_taper_is_preserved_approximately(self):
        small = DragonflyConfig().scaled(8, 4, 4)
        assert small.taper == pytest.approx(DragonflyConfig().taper, abs=0.15)

    def test_structure(self):
        small = DragonflyConfig().scaled(6, 4, 2)
        assert small.groups == 6
        assert small.endpoints_per_group == 8

    @pytest.mark.parametrize("dims", [(1, 4, 4), (0, 4, 4), (8, 0, 4),
                                      (8, 4, 0), (True, 4, 4)])
    def test_degenerate_dims_are_topology_errors(self, dims):
        # the bundle width divides by groups - 1 and by the switch count
        with pytest.raises(TopologyError, match="scaled dragonfly"):
            DragonflyConfig().scaled(*dims)


class TestBuiltTopology:
    @pytest.fixture(scope="class")
    def built(self):
        cfg = DragonflyConfig().scaled(6, 4, 3)
        return cfg, build_dragonfly(cfg)

    def test_counts(self, built):
        cfg, topo = built
        assert topo.n_switches == cfg.total_switches
        assert topo.n_endpoints == cfg.total_endpoints

    def test_intra_group_full_mesh(self, built):
        cfg, topo = built
        for g in range(cfg.groups):
            switches = topo.switches_in_group(g)
            for i, a in enumerate(switches):
                for b in switches[i + 1:]:
                    assert topo.link_between(("sw", a), ("sw", b)) is not None

    def test_every_group_pair_connected_globally(self, built):
        cfg, topo = built
        # capacity between each group pair sums to the bundle capacity
        for g in range(cfg.groups):
            for h in range(g + 1, cfg.groups):
                cap = 0.0
                for a in topo.switches_in_group(g):
                    for b in topo.switches_in_group(h):
                        link = topo.link_between(("sw", a), ("sw", b))
                        if link is not None:
                            assert link.kind is LinkKind.L2
                            cap += link.capacity
                assert cap == pytest.approx(
                    cfg.global_links_per_pair * cfg.link_rate)

    def test_endpoints_per_switch(self, built):
        cfg, topo = built
        for sw in topo.switches():
            assert len(topo.endpoints_on_switch(sw)) == cfg.endpoints_per_switch

    def test_direct_network_every_switch_has_endpoints(self, built):
        # "The dragonfly topology is a *direct* network"
        cfg, topo = built
        for sw in topo.switches():
            assert topo.endpoints_on_switch(sw)
