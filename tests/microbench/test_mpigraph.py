"""mpiGraph simulation tests — Figure 6's shape claims."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fabric.network import SlingshotNetwork
from repro.microbench.mpigraph import (MpiGraphHistogram,
                                       frontier_mpigraph_histogram,
                                       simulate_mpigraph,
                                       summit_mpigraph_histogram)


@pytest.fixture(scope="module")
def frontier():
    return frontier_mpigraph_histogram(samples_per_offset=2, rng=1)


@pytest.fixture(scope="module")
def summit():
    return summit_mpigraph_histogram(rng=1)


class TestFrontierShape:
    def test_range_3_to_17_5_gbs(self, frontier):
        # "ranging from 3 GB/s to 17.5 GB/s" (jitter widens slightly)
        assert frontier.min_gbs == pytest.approx(3.0, abs=0.8)
        assert frontier.quantile(0.999) / 1e9 == pytest.approx(17.5, rel=0.2)

    def test_intra_group_spike_is_1_4_pct(self, frontier):
        # "Each Frontier compute dragonfly group ... ~1.4% of the total ...
        # is the very small grouping around 17.5 GB/s"
        assert frontier.mass_above(15.0) == pytest.approx(0.014, abs=0.004)

    def test_bulk_sits_at_the_global_floor(self, frontier):
        # Most pairs divide the 270.1 TB/s pool with non-minimal halving.
        median = frontier.quantile(0.5) / 1e9
        assert median == pytest.approx(3.59, rel=0.15)

    def test_wide_spread(self, frontier):
        assert frontier.spread > 4.0


class TestSummitShape:
    def test_tight_distribution_around_8_5(self, summit):
        # "a tight distribution of measurements of ~8.5 GB/s per NIC"
        assert summit.quantile(0.5) / 1e9 == pytest.approx(8.5, rel=0.05)
        assert summit.spread < 1.6

    def test_summit_is_tighter_than_frontier(self, summit, frontier):
        assert summit.spread < frontier.spread / 2


class TestCrossSystemComparison:
    def test_frontier_best_pairs_beat_summit(self, frontier, summit):
        # Frontier's intra-group 17.5 GB/s > Summit's 8.5 GB/s ...
        assert frontier.max_gbs > summit.max_gbs

    def test_frontier_worst_pairs_lose_to_summit(self, frontier, summit):
        # ... but its tapered global floor is below Summit's EDR floor.
        assert frontier.min_gbs < summit.min_gbs

    def test_similar_fraction_of_line_rate_at_the_top(self, frontier, summit):
        # "This very small distribution achieves a similar percentage of
        # peak as Summit's tight distribution."
        frontier_frac = frontier.quantile(0.995) / 1e9 / 25.0
        summit_frac = summit.quantile(0.5) / 1e9 / 12.5
        assert frontier_frac == pytest.approx(summit_frac, abs=0.1)


class TestHistogramObject:
    def test_histogram_bins(self, frontier):
        counts, edges = frontier.histogram(bins=20)
        assert counts.shape == (20,)
        assert edges[0] == 0.0 and edges[-1] == 20.0

    def test_weights_shape_validated(self):
        with pytest.raises(ConfigurationError):
            MpiGraphHistogram(bandwidths=np.ones(4), weights=np.ones(3))

    def test_quantile_ordering(self, frontier):
        assert frontier.quantile(0.1) <= frontier.quantile(0.9)


class TestFlowLevelSimulation:
    def test_reduced_scale_sim_reproduces_the_trend(self, small_network):
        hist = simulate_mpigraph(small_network, offsets=[1, 8, 24, 48])
        # intra-group fast pairs and global slow pairs both present
        assert hist.max_gbs > 15.0
        assert hist.min_gbs < 8.0
        assert hist.spread > 2.0

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_pools_the_shift_pattern_rates_bit_for_bit(self,
                                                       small_fabric_config,
                                                       chunk):
        # UGAL draws from the network's rng: give each side a fresh twin
        offsets = [1, 8, 24, 48]
        hist = simulate_mpigraph(SlingshotNetwork(small_fabric_config, rng=5),
                                 offsets=offsets, chunk=chunk)
        twin = SlingshotNetwork(small_fabric_config, rng=5)
        flows = [f for k in offsets for f in twin.shift_pattern(k, chunk=chunk)]
        assert hist.bandwidths.tobytes() == np.array(
            [f.bandwidth for f in flows]).tobytes()

    def test_chunk_reaches_the_planner(self, small_network, monkeypatch):
        seen = []
        paths = small_network.router.paths

        def spy(pairs, chunk=None):
            seen.append((np.shape(pairs), chunk))
            return paths(pairs, chunk=chunk)

        monkeypatch.setattr(small_network.router, "paths", spy)
        simulate_mpigraph(small_network, offsets=[1, 8], chunk=3)
        # both offsets go to the planner as one stack, with the chunk
        n = small_network.config.total_endpoints
        assert seen == [((2, n, 2), 3)]
