"""Differential property test: stacked phases vs phase-after-phase runs.

:meth:`FabricNetwork.phase_bandwidths` plans ``P`` equal-length phases in
one batch-planner call and solves them as one block-diagonal max-min
problem.  For generated small dragonflies (all three routing policies)
and fat trees, chunk sizes ``1``/small/adaptive, and random failed
fabric links, the stack must equal ``P`` sequential
``reset_load(); paths(phase); maxmin_allocate(...)`` runs byte for byte:
the paths, the rates, the router's RNG state afterwards and its final
load, and the bottleneck links and link utilisation of the block-diagonal
solves (which ``phase_bandwidths`` drops; :func:`_solves` catches them).
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.fattree import FatTreeConfig
from repro.fabric.maxmin import maxmin_allocate
from repro.fabric.network import (STREAM_EFFICIENCY, FatTreeNetwork,
                                  SlingshotNetwork)
from repro.fabric.routing import RoutingPolicy
from repro.fabric.topology import LinkKind


@st.composite
def fabrics(draw):
    """A network factory (fresh twins share the seed) and its config."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    if draw(st.booleans()):
        groups = draw(st.integers(min_value=2, max_value=6))
        switches = draw(st.integers(min_value=2, max_value=4))
        links = draw(st.integers(min_value=1, max_value=3))
        cfg = DragonflyConfig(
            groups=groups, switches_per_group=switches,
            endpoints_per_switch=draw(st.integers(min_value=1, max_value=3)),
            global_links_per_pair=links,
            l1_ports=max(32, switches - 1),
            l2_ports=max(16, -(-links * (groups - 1) // switches)))
        policy = draw(st.sampled_from(list(RoutingPolicy)))

        def make():
            return SlingshotNetwork(cfg, policy, rng=seed)
    else:
        cfg = FatTreeConfig(
            edge_switches=draw(st.integers(min_value=2, max_value=6)),
            endpoints_per_edge=draw(st.integers(min_value=1, max_value=4)),
            oversubscription=draw(st.sampled_from([1.0, 2.0])))

        def make():
            return FatTreeNetwork(cfg, rng=seed)
    return make, cfg


@st.composite
def cases(draw):
    make, cfg = draw(fabrics())
    n_eps = cfg.total_endpoints
    n_phases = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=2 * n_eps))
    src = np.array(draw(st.lists(st.integers(0, n_eps - 1),
                                 min_size=n_phases * n,
                                 max_size=n_phases * n)), dtype=np.int64)
    shift = np.array(draw(st.lists(st.integers(1, n_eps - 1),
                                   min_size=n_phases * n,
                                   max_size=n_phases * n)), dtype=np.int64)
    stack = np.stack([src, (src + shift) % n_eps], axis=1).reshape(
        n_phases, n, 2)
    chunk = draw(st.sampled_from([1, 3, None]))
    # fabric links only: a failed edge link fails its endpoint's flows
    topo = make().topology
    inner = [link.index for link in topo.links if link.kind is not LinkKind.L0]
    disabled = draw(st.lists(st.sampled_from(inner), max_size=3,
                             unique=True))
    return make, stack, chunk, disabled


def _fresh(make, disabled):
    net = make()
    for link in disabled:
        net.disable_link(link)
    return net


def _state(net):
    return net.router.rng.bit_generator.state, net.router._load.counts.copy()


@contextmanager
def _solves(net):
    """Per phase, the link utilisation and bottleneck links of every
    block-diagonal solve made inside the ``with`` block on ``net``'s
    fabric, block link ids mapped back to the phase's own."""
    from repro.fabric import network
    n_links = net.topology.n_links
    out = {"utilisation": [], "bottleneck": []}

    def spy(caps, paths, demands):
        result = solve(caps, paths, demands)
        k = len(caps) // n_links
        out["utilisation"].append(result.link_utilisation.reshape(k, n_links))
        links = result.bottleneck_link.reshape(k, -1)
        out["bottleneck"].append(np.where(links >= 0, links % n_links, -1))
        return result

    solve = network.maxmin_allocate
    with mock.patch.object(network, "maxmin_allocate", spy):
        yield out


def _sequential(net, stack, chunk):
    """Phase after phase: the reference the stack must equal."""
    caps = net.topology.capacities()
    demand = STREAM_EFFICIENCY * net.config.link_rate
    paths, results = [], []
    for phase in stack:
        net.router.reset_load()
        planned = net.router.paths(phase, chunk=chunk)
        paths.append(planned)
        results.append(maxmin_allocate(caps, planned,
                                       np.full(len(phase), demand)))
    return paths, results


@given(cases())
@settings(max_examples=150, deadline=None)
def test_stack_equals_phase_after_phase(case):
    make, stack, chunk, disabled = case
    ref = _fresh(make, disabled)
    planner, solver = _fresh(make, disabled), _fresh(make, disabled)
    try:
        paths, results = _sequential(ref, stack, chunk)
    except RoutingError:
        planner.router.reset_load()
        with pytest.raises(RoutingError):
            planner.router.paths(stack, chunk=chunk)
        with pytest.raises(RoutingError):
            solver.phase_bandwidths(stack, chunk=chunk)
        return

    # the planner alone: phase-major paths, RNG and final load
    planner.router.reset_load()
    stacked = planner.router.paths(stack, chunk=chunk)
    n = stack.shape[1]
    for p, want in enumerate(paths):
        lo, hi = stacked.indptr[p * n], stacked.indptr[(p + 1) * n]
        assert (stacked.indptr[p * n:(p + 1) * n + 1] - lo).tobytes() == \
            want.indptr.tobytes()
        assert stacked.indices[lo:hi].tobytes() == want.indices.tobytes()
    ref_rng, ref_load = _state(ref)
    rng, load = _state(planner)
    assert rng == ref_rng
    assert load.tobytes() == ref_load.tobytes()

    # plan + block-diagonal solve
    with _solves(solver) as solved:
        got = solver.phase_bandwidths(stack, chunk=chunk)
    assert got.tobytes() == np.stack([r.rates for r in results]).tobytes()
    assert np.concatenate(solved["bottleneck"]).tobytes() == np.stack(
        [r.bottleneck_link for r in results]).tobytes()
    assert np.concatenate(solved["utilisation"]).tobytes() == np.stack(
        [r.link_utilisation for r in results]).tobytes()
    rng, load = _state(solver)
    assert rng == ref_rng
    assert load.tobytes() == ref_load.tobytes()


def test_default_chunk_is_sized_per_phase():
    # UGAL rounds depend on the chunk: a stack of P phases of n flows
    # must use auto_chunk(n), not auto_chunk(P * n)
    cfg = DragonflyConfig().scaled(groups=8, switches_per_group=4,
                                   endpoints_per_switch=4)

    def make():
        return SlingshotNetwork(cfg, RoutingPolicy.UGAL, rng=11)

    n_eps = cfg.total_endpoints
    src = np.arange(n_eps)
    stack = np.stack([np.stack([src, (src + k) % n_eps], axis=1)
                      for k in (16, 40, 64, 100)])
    paths, _ = _sequential(make(), stack, None)
    planner = make()
    stacked = planner.router.paths(stack)
    want = np.concatenate([p.indices for p in paths])
    assert stacked.indices.tobytes() == want.tobytes()


def test_a_split_stack_equals_the_whole(monkeypatch):
    from repro.fabric import network
    cfg = DragonflyConfig().scaled(groups=6, switches_per_group=4,
                                   endpoints_per_switch=2)
    n_eps = cfg.total_endpoints
    src = np.arange(n_eps)
    stack = np.stack([np.stack([src, (src + k) % n_eps], axis=1)
                      for k in (1, 7, 8, 20, 33)])
    whole = SlingshotNetwork(cfg, RoutingPolicy.UGAL, rng=4)
    with _solves(whole) as want_solved:
        want = whole.phase_bandwidths(stack)
    split = SlingshotNetwork(cfg, RoutingPolicy.UGAL, rng=4)
    # two phases per sub-stack: three plan-and-solve calls
    monkeypatch.setattr(network, "STACK_LINK_SLOTS",
                        2 * split.topology.n_links)
    plans = []
    paths = split.router.paths
    monkeypatch.setattr(split.router, "paths", lambda pairs, chunk=None:
                        plans.append(len(pairs)) or paths(pairs, chunk=chunk))
    with _solves(split) as solved:
        got = split.phase_bandwidths(stack)
    assert plans == [2, 2, 1]
    assert got.tobytes() == want.tobytes()
    for key in ("bottleneck", "utilisation"):
        assert np.concatenate(solved[key]).tobytes() == \
            np.concatenate(want_solved[key]).tobytes()
    assert _state(split)[0] == _state(whole)[0]
    assert _state(split)[1].tobytes() == _state(whole)[1].tobytes()
