"""Property-based tests for the max-min fair allocator.

These are the library's central invariants: every fabric bandwidth number
in the reproduction flows through :func:`maxmin_allocate`.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fabric import maxmin
from repro.fabric.batchroute import BatchPaths
from repro.fabric.maxmin import maxmin_allocate

from ..fabric.maxmin_oracle import reference_maxmin


@st.composite
def instances(draw):
    n_links = draw(st.integers(min_value=1, max_value=12))
    n_flows = draw(st.integers(min_value=1, max_value=16))
    caps = draw(st.lists(st.floats(min_value=0.5, max_value=100.0),
                         min_size=n_links, max_size=n_links))
    paths = []
    for _ in range(n_flows):
        length = draw(st.integers(min_value=1, max_value=min(4, n_links)))
        path = draw(st.lists(st.integers(min_value=0, max_value=n_links - 1),
                             min_size=length, max_size=length, unique=True))
        paths.append(path)
    return caps, paths


def _usage(caps, paths, rates):
    usage = np.zeros(len(caps))
    for rate, path in zip(rates, paths):
        for link in path:
            usage[link] += rate
    return usage


class TestAllocationProperties:
    @given(instances())
    @settings(max_examples=80, deadline=None)
    def test_feasible(self, instance):
        caps, paths = instance
        result = maxmin_allocate(caps, paths)
        usage = _usage(caps, paths, result.rates)
        assert np.all(usage <= np.asarray(caps) * (1 + 1e-9))

    @given(instances())
    @settings(max_examples=80, deadline=None)
    def test_rates_positive(self, instance):
        caps, paths = instance
        result = maxmin_allocate(caps, paths)
        assert np.all(result.rates > 0)

    @given(instances())
    @settings(max_examples=80, deadline=None)
    def test_each_flow_bottlenecked(self, instance):
        """Pareto optimality: every flow crosses a saturated link."""
        caps, paths = instance
        result = maxmin_allocate(caps, paths)
        usage = _usage(caps, paths, result.rates)
        for f, path in enumerate(paths):
            bn = result.bottleneck_link[f]
            assert bn in path
            assert usage[bn] == pytest.approx(caps[bn], rel=1e-6)

    @given(instances())
    @settings(max_examples=80, deadline=None)
    def test_lexicographic_fairness(self, instance):
        """A flow's rate equals the max-min share at its bottleneck: no
        flow on the bottleneck link has a smaller rate it was robbed of."""
        caps, paths = instance
        result = maxmin_allocate(caps, paths)
        for f, path in enumerate(paths):
            bn = result.bottleneck_link[f]
            sharers = [g for g, p in enumerate(paths) if bn in p]
            # our flow has the (weakly) largest rate among equal bottleneck
            # sharers only if others were limited elsewhere at lower rates
            for g in sharers:
                if result.rates[g] < result.rates[f] * (1 - 1e-6):
                    g_bn = result.bottleneck_link[g]
                    assert g_bn != bn or result.rates[g] == pytest.approx(
                        result.rates[f], rel=1e-6)

    @given(instances(), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, instance, scale):
        """Scaling all capacities scales all rates by the same factor."""
        caps, paths = instance
        base = maxmin_allocate(caps, paths)
        scaled = maxmin_allocate([c * scale for c in caps], paths)
        assert np.allclose(scaled.rates, base.rates * scale, rtol=1e-6)

    @given(instances())
    @settings(max_examples=60, deadline=None)
    def test_demand_caps_respected(self, instance):
        caps, paths = instance
        demands = [1.0] * len(paths)
        result = maxmin_allocate(caps, paths, demands=demands)
        assert np.all(result.rates <= 1.0 + 1e-9)


# -- differential: the solver vs the per-flow event loop ---------------------

#: Real link capacities, small enough that distinct links tie often.
INT_CAPS = st.integers(min_value=1, max_value=4).map(float)


@st.composite
def oracle_instances(draw):
    """Instances with saturation ties, shared links, caps and linkless flows."""
    n_links = draw(st.integers(min_value=1, max_value=24))
    n_flows = draw(st.integers(min_value=1, max_value=24))
    caps = draw(st.lists(st.one_of(INT_CAPS,
                                   st.floats(min_value=0.5, max_value=50.0)),
                         min_size=n_links, max_size=n_links))
    paths = [draw(st.lists(st.integers(min_value=0, max_value=n_links - 1),
                           max_size=min(4, n_links), unique=True))
             for _ in range(n_flows)]
    demand = st.one_of(st.just(np.inf),
                       st.integers(min_value=0, max_value=4).map(float),
                       st.floats(min_value=0.1, max_value=20.0))
    demands = draw(st.lists(demand, min_size=n_flows, max_size=n_flows))
    if all(paths) and draw(st.booleans()):
        return caps, paths, None
    # a linkless flow is bounded only by its demand
    demands = [d if path or np.isfinite(d) else 1.0
               for path, d in zip(paths, demands)]
    return caps, paths, demands


#: Capacities whose float shares tie, nearly tie or round apart: 0.1 +
#: 0.2 != 0.3, and three shares of 1/3 do not sum back to 1.
NEAR_TIE_CAPS = st.builds(
    lambda base, times: base * times,
    st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1.0]),
    st.integers(min_value=1, max_value=6))


@st.composite
def near_tie_instances(draw):
    """Instances whose saturation levels tie or differ by a rounding."""
    n_links = draw(st.integers(min_value=1, max_value=24))
    n_flows = draw(st.integers(min_value=1, max_value=32))
    caps = draw(st.lists(NEAR_TIE_CAPS, min_size=n_links, max_size=n_links))
    paths = [draw(st.lists(st.integers(min_value=0, max_value=n_links - 1),
                           min_size=1, max_size=min(4, n_links), unique=True))
             for _ in range(n_flows)]
    if draw(st.booleans()):
        return caps, paths, None
    demand = st.one_of(st.just(np.inf), NEAR_TIE_CAPS)
    return caps, paths, draw(st.lists(demand, min_size=n_flows,
                                      max_size=n_flows))


def _solve_counting(caps, paths, demands):
    """``maxmin_allocate`` and its ``fabric.maxmin.iterations`` count."""
    obs.reset()
    obs.enable()
    try:
        result = maxmin_allocate(caps, paths, demands)
        events = obs.registry().snapshot()["fabric.maxmin.iterations"]["value"]
    finally:
        obs.disable()
        obs.reset()
    return result, events


class TestMatchesReferenceLoop:
    """Rates, bottlenecks, utilisation and the number of freeze events
    equal the oracle's bit for bit, for list and CSR paths, at several
    block widths of the saturation-level index."""

    @given(oracle_instances(), st.sampled_from([1, 2, 5, maxmin._BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, instance, width):
        self.check(instance, width)

    @given(near_tie_instances(), st.sampled_from([1, 2, 5, maxmin._BLOCK]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_near_ties(self, instance, width):
        self.check(instance, width)

    @staticmethod
    def check(instance, width):
        caps, paths, demands = instance
        want, want_events = reference_maxmin(caps, paths, demands)
        csr = BatchPaths(
            np.array([link for path in paths for link in path], dtype=np.int64),
            np.cumsum([0] + [len(path) for path in paths]))
        with mock.patch.object(maxmin, "_BLOCK", width):
            for given_paths in (paths, csr):
                got, events = _solve_counting(caps, given_paths, demands)
                np.testing.assert_array_equal(got.rates, want.rates)
                np.testing.assert_array_equal(got.bottleneck_link,
                                              want.bottleneck_link)
                np.testing.assert_array_equal(got.link_utilisation,
                                              want.link_utilisation)
                assert events == want_events
