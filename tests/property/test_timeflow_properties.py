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
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
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
