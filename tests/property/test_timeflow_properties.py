"""Differential property test: the timeflow step loop vs its oracle.

:meth:`TimeflowEngine.run_ensemble` and :meth:`TimeflowEngine.run`
fast-forward quiet steps and batch column events; the per-flow loop in
``tests/fabric/timeflow_oracle.py`` steps every flow every step.  For
generated scenarios — 1 to 5 columns mixing FIFO, ECN and warmups —
every column must equal the oracle **bit for bit**.  The generated flows
cover every event kind the fast-forward has to find:

* exact-fit sizes (``size = k * rate_limit * dt``: the transfer ends on
  a full step, with no partial last step);
* sub-step transfers (smaller than one step's worth of bytes);
* starts on and off the step grid;
* non-repeating finite flows that finish mid-run;
* bursty flows whose edges land on control steps;
* a ``rate_limit`` below the ECN rate floor.

A second generator aims at the switch steps, the queue-row partition
and the row classes: several flows starting in one step, starts on
control steps, their successors, burst edges and another flow's
transfer boundary, bursty flows that start in an off phase, rate limits
that put a link exactly at capacity or one ulp above it, layouts where
no link or every link can queue, and duplicate rows (parallel flows on
one pair, one flow list on links of different capacity).
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.scenario import frontier_spec
from repro.fabric.timeflow import FlowSpec, TimeflowConfig, TimeflowEngine

from ..fabric.timeflow_oracle import reference_run

DT = 5e-8
LINK_RATE = 25e9
#: ``rate_limit`` fractions of the line rate; the smallest is below the
#: ECN floor (``min_rate_frac * peak`` = 0.01 * 0.7 of the line rate).
RATE_FRACS = (0.004, 0.05, 0.1, 0.25, 0.5)
TARGETS = (0, 77)        # incast targets: flows collide on their links


@pytest.fixture(scope="module")
def net():
    return frontier_spec().scaled(8, 4, 4).build_network(rng=0)


@pytest.fixture(scope="module")
def agg_net():
    """Two groups of 16 endpoints: the global lanes between them are
    aggregated into links of two and three times the line rate."""
    return frontier_spec().scaled(2, 4, 4).build_network(rng=0)


def assert_row_classes(engine):
    """The fold is sound and complete: every active row has its class's
    flow list, weights and capacity, no two classes share all three,
    and the queue rows are exactly the rows of the queue classes."""
    A = engine.A[engine._active]
    caps = engine.caps[engine._active]
    C, cls = engine._A_cls, engine._cls

    def key(M, r, cap):
        lo, hi = M.indptr[r], M.indptr[r + 1]
        return (tuple(M.indices[lo:hi]), tuple(M.data[lo:hi]), cap)
    class_keys = [key(C, c, engine._caps_cls[c, 0])
                  for c in range(C.shape[0])]
    assert len(set(class_keys)) == len(class_keys)
    for r in range(A.shape[0]):
        assert key(A, r, caps[r]) == class_keys[cls[r]]
    assert np.array_equal(cls < engine._nqc,
                          np.arange(cls.size) < engine._nq)


def result_doc(result):
    """A result's full content, canonically serialised."""
    return json.dumps({
        "classes": {c: v.to_doc() for c, v in result.classes.items()},
        "fct_samples": {c: v.tolist() for c, v in result.fct_samples.items()},
        "latency_samples": {c: v.tolist()
                            for c, v in result.latency_samples.items()},
        "mean_rates": result.mean_rates.tolist(),
        "max_queue_bytes": result.max_queue_bytes,
        "max_link_utilisation": result.max_link_utilisation,
        "marks": result.marks, "steps": result.steps,
    }, sort_keys=True, default=str)


@st.composite
def flow_specs(draw, control_every: int, n_steps: int):
    kind = draw(st.sampled_from(("elephant", "exact", "substep", "finite",
                                 "bursty", "slow")))
    dst = draw(st.sampled_from(TARGETS))
    src = draw(st.integers(1, 127).filter(lambda e: e not in TARGETS))
    rate = draw(st.sampled_from(RATE_FRACS)) * LINK_RATE
    step = draw(st.integers(0, n_steps // 2))
    start = step * DT if draw(st.booleans()) else (step + 0.37) * DT
    cls = kind if kind != "slow" else "elephant"
    if kind == "elephant":
        return FlowSpec(src=src, dst=dst, cls=cls, start_s=start,
                        rate_limit=draw(st.sampled_from((None, rate))))
    if kind == "slow":       # below the ECN floor
        return FlowSpec(src=src, dst=dst, cls=cls, start_s=start,
                        rate_limit=RATE_FRACS[0] * LINK_RATE)
    if kind == "exact":
        size = draw(st.integers(1, 40)) * (rate * DT)
        return FlowSpec(src=src, dst=dst, cls=cls, size_bytes=size,
                        start_s=start, rate_limit=rate,
                        repeat=draw(st.booleans()))
    if kind == "substep":
        size = draw(st.floats(0.05, 0.95)) * (rate * DT)
        return FlowSpec(src=src, dst=dst, cls=cls, size_bytes=size,
                        start_s=start, rate_limit=rate,
                        repeat=draw(st.booleans()))
    if kind == "finite":
        return FlowSpec(src=src, dst=dst, cls=cls,
                        size_bytes=draw(st.floats(1e3, 2e5)),
                        start_s=start,
                        rate_limit=draw(st.sampled_from((None, rate))),
                        repeat=draw(st.booleans()))
    # bursty: period and on-window whole control intervals, phase-locked
    # to a control step, so the edges land on control steps
    period = draw(st.integers(2, 6))
    on = draw(st.integers(1, period - 1))
    start = draw(st.integers(0, 3)) * control_every * DT
    size = draw(st.sampled_from((None, 3e4)))
    return FlowSpec(src=src, dst=dst, cls=cls, start_s=start,
                    burst_duty=on / period,
                    burst_period_s=period * control_every * DT,
                    size_bytes=size,
                    repeat=size is not None and draw(st.booleans()))


@st.composite
def scenarios(draw):
    control_every = draw(st.sampled_from((3, 10, 40)))
    n_steps = draw(st.integers(50, 400))
    n_flows = draw(st.integers(1, 7))
    flows = [draw(flow_specs(control_every, n_steps)) for _ in range(n_flows)]
    shared = dict(dt_s=DT, horizon_s=n_steps * DT,
                  control_interval_s=control_every * DT,
                  base_latency_s=draw(st.sampled_from((None, 1.5e-7))))
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        warmup = draw(st.sampled_from((0.0, 0.25, 0.5))) * n_steps * DT
        if draw(st.booleans()):
            configs.append(TimeflowConfig(ecn=False, warmup_s=warmup,
                                          **shared))
        else:
            configs.append(TimeflowConfig(
                ecn=True, ecn_k=draw(st.sampled_from((0.0, 0.5, 2.0, 8.0))),
                backoff=draw(st.sampled_from((0.25, 0.5))),
                growth_frac=draw(st.sampled_from((0.05, 0.3))),
                min_rate_frac=draw(st.sampled_from((0.0, 0.01, 0.2))),
                warmup_s=warmup, **shared))
    return flows, configs


class TestStepLoopMatchesOracle:
    @given(scenarios())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_every_column_is_bit_identical(self, net, scenario):
        flows, configs = scenario
        engine = TimeflowEngine(net, flows, configs[0])
        ensemble = engine.run_ensemble(configs)
        for cfg, column in zip(configs, ensemble):
            reference = result_doc(reference_run(engine, cfg))
            assert result_doc(column) == reference
            assert result_doc(engine.run(cfg)) == reference


#: ``(period, duty)`` in steps whose on-window is shorter than half a
#: step: a flow starting half a step before the grid enters off, and
#: the non-integer period brings its window back onto the grid later.
OFF_PHASE = ((2.7, 0.1), (3.3, 0.1), (4.6, 0.05))
PEAK = 0.7 * LINK_RATE          # rate cap of an unlimited flow


@st.composite
def timed_flow(draw, src, dst, rate, anchors, control_every, n_steps):
    """One flow from ``src`` to ``dst`` capped at ``rate``, starting on
    one of the ``anchors`` (steps where something else happens) or at a
    fresh step; adds the steps where it switches or ends a transfer."""
    step = draw(st.sampled_from(sorted(anchors)) | st.integers(0, n_steps // 2))
    lead = draw(st.sampled_from((0.0, 0.0, 0.5, 0.63))) if step else 0.0
    start = (step - lead) * DT
    kind = draw(st.sampled_from(("elephant", "exact", "partial", "substep",
                                 "bursty", "offphase")))
    per_step = (rate if rate is not None else PEAK) * DT
    if kind == "elephant":
        return FlowSpec(src=src, dst=dst, start_s=start, rate_limit=rate)
    if kind in ("exact", "partial", "substep"):
        # whole steps, a partial last step (a blip), or under one step
        m = draw(st.integers(1, 12))
        size = {"exact": m, "partial": m + draw(st.floats(0.05, 0.95)),
                "substep": draw(st.floats(0.05, 0.95))}[kind] * per_step
        m += kind == "partial"
        for k in range(1, 4):       # transfer boundaries (approximately)
            anchors.update((step + k * m - 1, step + k * m))
        return FlowSpec(src=src, dst=dst, start_s=start, size_bytes=size,
                        rate_limit=rate, repeat=draw(st.booleans()))
    if kind == "bursty":
        period = draw(st.integers(2, 6)) * draw(st.sampled_from(
            (1, control_every)))
        on = draw(st.integers(1, 3)) * period // 4 or 1
        anchors.update((step + on, step + period, step + period + on))
        size = draw(st.sampled_from((None, 3e4)))
        return FlowSpec(src=src, dst=dst, start_s=start, size_bytes=size,
                        rate_limit=rate, burst_duty=on / period,
                        burst_period_s=period * DT,
                        repeat=size is not None and draw(st.booleans()))
    period, duty = draw(st.sampled_from(OFF_PHASE))
    size = draw(st.sampled_from((None, 3e4)))
    return FlowSpec(src=src, dst=dst, start_s=(max(step, 1) - 0.5) * DT,
                    size_bytes=size, rate_limit=rate, burst_duty=duty,
                    burst_period_s=period * DT,
                    repeat=size is not None and draw(st.booleans()))


def _sources(dst):
    """Endpoints off ``dst``'s switch (4 endpoints per switch)."""
    return [e for e in range(128) if e // 4 != dst // 4]


@st.composite
def switching_scenarios(draw):
    control_every = draw(st.sampled_from((3, 10)))
    n_steps = draw(st.integers(40, 240))
    layout = draw(st.sampled_from(("mixed", "at_capacity", "above_capacity",
                                   "no_queue", "all_queue",
                                   "duplicate_rows")))
    anchors = set(range(0, n_steps, control_every)) \
        | set(range(1, n_steps, control_every))
    dst = draw(st.sampled_from(TARGETS))
    if layout == "mixed":
        fracs = st.sampled_from((None,) + RATE_FRACS)
        ends = []
        for frac in draw(st.lists(fracs, min_size=2, max_size=6)):
            d = draw(st.sampled_from(TARGETS))      # one or two hotspots
            ends.append((draw(st.sampled_from(_sources(d))), d,
                         frac and frac * LINK_RATE))
    elif layout in ("at_capacity", "above_capacity"):
        # k flows whose rate caps sum to exactly the line rate (k * cap/k
        # is exact for these k), or one ulp of it above
        k = draw(st.sampled_from((2, 4, 5)))
        share = LINK_RATE / k
        rates = [share] * k
        if layout == "above_capacity":
            rates[-1] = share + float(np.spacing(LINK_RATE))
        srcs = draw(st.lists(st.sampled_from(_sources(dst)), min_size=k,
                             max_size=k, unique=True))
        ends = [(s, dst, r) for s, r in zip(srcs, rates)]
    elif layout == "duplicate_rows":
        # On ``agg_net``: parallel flows from group 1 into endpoint 0 (they
        # share its ejection row and their injection row, one class of
        # two rows; each also runs alone over a unit-rate local link and
        # an aggregated global one, one flow list on two capacities),
        # and a parallel pair within one switch.
        rates = [frac and frac * LINK_RATE for frac in draw(st.lists(
            st.sampled_from((None, None) + RATE_FRACS), min_size=5,
            max_size=5))]
        dst, src = 0, draw(st.integers(16, 31))
        ends = [(src, dst, r) for r in rates[:draw(st.integers(1, 3))]]
        switch = draw(st.integers(1, 3))
        a, b = draw(st.permutations(range(4 * switch, 4 * switch + 4)))[:2]
        ends += [(a, b, r) for r in rates[3:]]
    elif layout == "no_queue":
        ends = [(draw(st.sampled_from(_sources(dst))), dst,
                 draw(st.sampled_from(RATE_FRACS[:3])) * LINK_RATE)
                for _ in range(draw(st.integers(1, 3)))]
    else:
        # same-switch pairs, each twice and unlimited: every link on a
        # path (injection, ejection) carries two or more flows at peak
        switch = draw(st.integers(0, 31))
        eps = draw(st.permutations(range(4 * switch, 4 * switch + 4)))
        ends = [(s, eps[0], None) for s in eps[1:draw(st.integers(2, 4))]
                for _ in range(2)]
    flows = [draw(timed_flow(s, d, r, anchors, control_every, n_steps))
             for s, d, r in ends]
    # Later flows start on earlier flows' boundaries; shuffling puts the
    # switching flow before the blipping one in CSR order, too.
    flows = draw(st.permutations(flows))
    shared = dict(dt_s=DT, horizon_s=n_steps * DT,
                  control_interval_s=control_every * DT)
    configs = []
    for _ in range(draw(st.integers(1, 3))):
        warmup = draw(st.sampled_from((0.0, 0.3))) * n_steps * DT
        if draw(st.booleans()):     # all-FIFO: no full step after step 0
            configs.append(TimeflowConfig(ecn=False, warmup_s=warmup,
                                          **shared))
        else:
            configs.append(TimeflowConfig(
                ecn=True, ecn_k=draw(st.sampled_from((0.0, 0.5, 4.0))),
                backoff=draw(st.sampled_from((0.25, 0.5))),
                min_rate_frac=draw(st.sampled_from((0.0, 0.2))),
                warmup_s=warmup, **shared))
    return layout, flows, configs


def _config(n_steps, **knobs):
    return TimeflowConfig(dt_s=DT, horizon_s=n_steps * DT,
                          control_interval_s=10 * DT, **knobs)


#: An elephant switching on ahead of a blipping canary in CSR order on
#: their shared queue, between two of the canary's own lasting changes:
#: the canary's cached row sums go stale unless the switch step
#: invalidates them.
STALE_HEAD = ("mixed", [
    FlowSpec(src=40, dst=0, start_s=24 * DT),
    FlowSpec(src=50, dst=0, size_bytes=3.5 * 0.1 * LINK_RATE * DT,
             rate_limit=0.1 * LINK_RATE, repeat=True),
    FlowSpec(src=60, dst=0)], [_config(100)])
#: Two flows switching on in one step, the second onto its own hotspot.
TWO_HOTSPOTS = ("mixed", [
    FlowSpec(src=40, dst=0, start_s=10 * DT),
    FlowSpec(src=50, dst=77, start_s=9.5 * DT),
    FlowSpec(src=60, dst=77)],
    [_config(60), _config(60, ecn=True, ecn_k=0.5)])

#: A switch step listing a flow that moves in no column: a non-repeating
#: bursty transfer that finished in its first burst, at its next on edge
#: (step 20), next to an elephant that starts there.  The step re-derives
#: its whole gather, the finished flow's path classes too, and closes the
#: draining run of the queue they share early.
UNMOVED = ("mixed", [
    FlowSpec(src=40, dst=0, size_bytes=2.5 * PEAK * DT, burst_duty=0.25,
             burst_period_s=20 * DT),
    FlowSpec(src=50, dst=0, start_s=20 * DT),
    FlowSpec(src=41, dst=0)], [_config(60), _config(60, ecn=False)])


class TestSwitchStepsAndQueueRows:
    @given(switching_scenarios())
    @example(STALE_HEAD)
    @example(TWO_HOTSPOTS)
    @example(UNMOVED)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    def test_every_column_is_bit_identical(self, net, agg_net, scenario):
        layout, flows, configs = scenario
        engine = TimeflowEngine(agg_net if layout == "duplicate_rows"
                                else net, flows, configs[0])
        assert_row_classes(engine)
        n_active = engine._active.size
        if layout == "no_queue":
            assert engine._nq == 0
        elif layout == "all_queue":
            assert engine._nq == n_active
        elif layout == "at_capacity":
            assert engine._nq < n_active
        elif layout == "above_capacity":
            assert engine._nq >= 1
        elif layout == "duplicate_rows":
            # the fold has work to do, and meets both of its traps: a
            # flow with two path rows in one class (two delay terms), and
            # one flow list in classes of different capacity
            AT, cls = engine._AT_act, engine._cls
            assert engine._A_cls.shape[0] < n_active
            assert any(np.unique(cls[AT.indices[AT.indptr[f]:
                                                AT.indptr[f + 1]]]).size
                       < AT.indptr[f + 1] - AT.indptr[f]
                       for f in range(len(flows)))
            C = engine._A_cls
            lists = [tuple(C.indices[C.indptr[c]:C.indptr[c + 1]])
                     for c in range(C.shape[0])]
            assert len(set(lists)) < len(lists)
        ensemble = engine.run_ensemble(configs)
        for cfg, column in zip(configs, ensemble):
            reference = result_doc(reference_run(engine, cfg))
            assert result_doc(column) == reference
            assert result_doc(engine.run(cfg)) == reference
