"""Fat-tree (Summit comparison fabric) tests."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.fabric.fattree import SUMMIT_FATTREE, FatTreeConfig
from repro.fabric.network import FatTreeNetwork


class TestConfig:
    def test_summit_scale(self):
        assert SUMMIT_FATTREE.total_endpoints == 4608
        assert SUMMIT_FATTREE.link_rate == 12.5e9
        assert SUMMIT_FATTREE.oversubscription == 1.0

    def test_nonblocking_uplink_capacity(self):
        cfg = FatTreeConfig(edge_switches=4, endpoints_per_edge=8)
        assert cfg.uplink_capacity_per_edge == pytest.approx(
            8 * cfg.link_rate)

    def test_tapered_tree(self):
        cfg = FatTreeConfig(edge_switches=4, endpoints_per_edge=8,
                            oversubscription=2.0)
        assert cfg.uplink_capacity_per_edge == pytest.approx(4 * cfg.link_rate)
        assert cfg.core_switches == 4

    def test_invalid_oversubscription(self):
        with pytest.raises(TopologyError):
            FatTreeConfig(oversubscription=0.5)

    @pytest.mark.parametrize("field, value", [
        ("oversubscription", float("nan")),
        ("oversubscription", float("inf")),
        ("link_rate", float("nan")),
        ("link_rate", 0.0),
        ("edge_switches", 4.0),
        ("endpoints_per_edge", 2.5),
        ("endpoints_per_edge", True),
    ])
    def test_bad_field_rejected_at_construction(self, field, value):
        # a NaN oversubscription used to pass construction and raise a
        # bare ValueError when the core count was first read
        with pytest.raises(TopologyError, match=field):
            FatTreeConfig(**{field: value})


class TestBuiltClos:
    @pytest.fixture(scope="class")
    def net(self):
        return FatTreeNetwork(FatTreeConfig(edge_switches=8,
                                            endpoints_per_edge=6))

    def test_nonblocking_shift_gets_full_stream_rate(self, net):
        # Every pair sustains the single-stream rate: Summit's tight spike.
        flows = net.shift_pattern(13)
        rates = np.array([f.bandwidth for f in flows])
        assert rates.min() == pytest.approx(rates.max(), rel=1e-6)
        assert rates[0] == pytest.approx(0.70 * 12.5e9, rel=0.01)

    def test_all_offsets_equal_bandwidth(self, net):
        r1 = np.array([f.bandwidth for f in net.shift_pattern(1)])
        r2 = np.array([f.bandwidth for f in net.shift_pattern(23)])
        assert r1.mean() == pytest.approx(r2.mean(), rel=0.01)

    def test_oversubscribed_tree_degrades_cross_edge_traffic(self):
        tapered = FatTreeNetwork(FatTreeConfig(edge_switches=8,
                                               endpoints_per_edge=6,
                                               oversubscription=3.0))
        flows = tapered.shift_pattern(6)  # every flow crosses edges
        rates = np.array([f.bandwidth for f in flows])
        assert rates.mean() < 0.70 * 12.5e9 * 0.8
