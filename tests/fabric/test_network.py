"""Slingshot network facade tests on the reduced-scale fabric."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.fabric.network import STREAM_EFFICIENCY, FlowResult


class TestShiftPattern:
    def test_intra_group_shift_gets_stream_rate(self, small_network):
        # Figure 6's 17.5 GB/s spike: neighbours within the group.
        flows = small_network.shift_pattern(1)
        rates = np.array([f.bandwidth for f in flows])
        near_full = rates > 0.95 * STREAM_EFFICIENCY * 25e9
        assert near_full.mean() > 0.5

    def test_global_shift_is_much_slower(self, small_network):
        g = small_network.config.endpoints_per_group
        local = np.mean([f.bandwidth for f in small_network.shift_pattern(1)])
        far = np.mean([f.bandwidth
                       for f in small_network.shift_pattern(3 * g)])
        assert far < 0.6 * local

    def test_distribution_is_wide_like_figure6(self, small_network):
        g = small_network.config.endpoints_per_group
        rates = []
        for k in (1, g // 2, g, 2 * g, 3 * g):
            rates.extend(f.bandwidth for f in small_network.shift_pattern(k))
        rates = np.array(rates)
        assert rates.max() / rates.min() > 3.0  # Frontier's wide spread

    def test_invalid_offsets(self, small_network):
        with pytest.raises(ConfigurationError):
            small_network.shift_pattern(0)
        with pytest.raises(ConfigurationError):
            small_network.shift_pattern(small_network.config.total_endpoints)

    @pytest.mark.parametrize("offset", [2.5, 2.0, True, np.float64(3.0), "2"])
    def test_non_integer_offsets_rejected(self, small_network, offset):
        # 2.5 used to run exactly the offset-2 pairs, True offset 1.
        with pytest.raises(ConfigurationError, match="integer"):
            small_network.shift_pairs(offset)
        with pytest.raises(ConfigurationError, match="integer"):
            small_network.shift_pattern(offset)

    @pytest.mark.parametrize("offset", [np.int64(2), np.int32(2), np.uint16(2)])
    def test_numpy_integer_offsets_accepted(self, small_network, offset):
        assert np.array_equal(small_network.shift_pairs(offset),
                              small_network.shift_pairs(2))


class TestFlowBandwidths:
    def test_flow_results_align_with_pairs(self, small_network):
        pairs = [(0, 5), (1, 9), (2, 30)]
        flows, result = small_network.flow_bandwidths(pairs)
        assert [(f.src, f.dst) for f in flows] == pairs
        assert np.allclose([f.bandwidth for f in flows], result.rates)

    def test_single_flow_gets_stream_limit(self, small_network):
        flows, _ = small_network.flow_bandwidths([(0, 40)])
        assert flows[0].bandwidth == pytest.approx(
            STREAM_EFFICIENCY * 25e9, rel=0.01)

    def test_elastic_demand_fills_the_link(self, small_network):
        flows, _ = small_network.flow_bandwidths([(0, 40)],
                                                 demand_per_flow=float("inf"))
        assert flows[0].bandwidth == pytest.approx(25e9, rel=0.01)

    def test_empty_pairs_rejected(self, small_network):
        with pytest.raises(ConfigurationError):
            small_network.flow_bandwidths([])

    def test_flows_are_flow_results(self, small_network):
        flows, _ = small_network.flow_bandwidths([(0, 5), (1, 9)])
        assert all(type(f) is FlowResult for f in flows)
        assert flows[0] == FlowResult(0, 5, flows[0].bandwidth)
        assert flows[1]._asdict()["dst"] == 9

    @pytest.mark.parametrize("pairs", [
        lambda net: net.shift_pairs(3) + 0.7,          # ran (0, 3), (1, 4), ...
        lambda net: [(0.0, 5.0), (1.0, 9.0)],          # integral floats too
        lambda net: np.array([[False, True], [True, False]]),
        lambda net: [("0", "5")],
    ], ids=["fractional", "float", "bool", "str"])
    def test_non_integer_endpoint_ids_rejected(self, small_network, pairs):
        ids = pairs(small_network)
        with pytest.raises(ConfigurationError, match="integers"):
            small_network.flow_bandwidths(ids)
        with pytest.raises(ConfigurationError, match="integers"):
            small_network.phase_bandwidths(np.asarray(ids)[None])

    def test_integer_endpoint_ids_accepted(self, small_network):
        as_list, _ = small_network.flow_bandwidths([[0, 5], [1, 9]])
        as_u32, _ = small_network.flow_bandwidths(
            np.array([[0, 5], [1, 9]], dtype=np.uint32))
        assert as_list == as_u32
        rates = small_network.phase_bandwidths([[[0, 5], [1, 9]]])
        assert rates.tolist() == [[f.bandwidth for f in as_list]]

    @pytest.mark.parametrize("chunk", [2.5, 2.0, True, 0, -3])
    def test_bad_router_chunk_rejected(self, small_network, chunk):
        # 2.5 was a bare TypeError from range(); True ran the chunk=1 mode.
        with pytest.raises(RoutingError, match="chunk"):
            small_network.router.paths([(0, 5), (1, 9)], chunk=chunk)
        with pytest.raises(RoutingError, match="chunk"):
            small_network.flow_bandwidths([(0, 5)], chunk=chunk)

    def test_numpy_integer_chunk_accepted(self, small_network):
        pairs = small_network.shift_pairs(7)
        a = small_network.router.paths(pairs, chunk=np.int64(4), register=False)
        b = small_network.router.paths(pairs, chunk=4, register=False)
        assert np.array_equal(a.indices, b.indices)


class TestLatencyFacade:
    def test_latency_sample_shape_and_range(self, small_network):
        lats = small_network.latency_sample(50, rng=3)
        assert lats.shape == (50,)
        assert np.all(lats > 0.5e-6)
        assert np.all(lats < 20e-6)

    @pytest.mark.parametrize("n_pairs", [-1, 2.5, True])
    def test_bad_latency_sample_size_rejected(self, small_network, n_pairs):
        # -1 used to return an empty array, 2.5 a bare TypeError.
        with pytest.raises(ConfigurationError, match="n_pairs"):
            small_network.latency_sample(n_pairs, rng=3)

    def test_empty_latency_sample(self, small_network):
        assert small_network.latency_sample(0, rng=3).shape == (0,)

    def test_allreduce_facade(self, small_network):
        assert small_network.allreduce_latency(1024) > 0

    def test_alltoall_facade(self, small_network):
        est = small_network.alltoall_bandwidth()
        assert est.per_node > 0
