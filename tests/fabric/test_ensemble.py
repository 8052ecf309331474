"""Ensemble timeflow: batched columns vs the per-flow reference loop.

The contract under test is ``batchroute``'s ``chunk=1`` idiom: every
column of :meth:`TimeflowEngine.run_ensemble` must be **bit-identical**
to :func:`reference_run` of the same config on the same engine, and so
must the one-column :meth:`TimeflowEngine.run` (same planned paths —
planning is RNG-fed, so the comparison is only defined against one plan).
"""

import json
import math

import numpy as np
import pytest

from repro.core.scenario import frontier_spec
from repro.errors import ConfigurationError
from repro.fabric.congest import (CongestConfig, congest_scenario,
                                  run_congest, run_congest_grid)
from repro.fabric.timeflow import (ENSEMBLE_SHARED_AXES, FlowSpec,
                                   TimeflowConfig, TimeflowEngine,
                                   incast_pattern)

from .timeflow_oracle import reference_run


@pytest.fixture(scope="module")
def net():
    return frontier_spec().scaled(8, 4, 4).build_network(rng=0)


def result_doc(result):
    """A result's full content, canonically serialised: any drifted bit
    (a sample, a percentile, a mark count, the peak queue) changes it."""
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


def assert_oracle(engine, configs):
    """Every ensemble column == the reference run of its config and the
    one-column run, bitwise."""
    ensemble = engine.run_ensemble(configs)
    assert len(ensemble) == len(configs)
    for i, cfg in enumerate(configs):
        column = result_doc(ensemble[i])
        assert result_doc(reference_run(engine, cfg)) == column, \
            f"column {i} drifted from the reference loop"
        assert result_doc(engine.run(cfg)) == column, \
            f"column {i} drifted from its one-column run"


SHORT = dict(horizon_s=1e-4)


class TestEnsembleOracle:
    def test_k_sweep_with_fifo_and_ecn_columns(self, net):
        flows = incast_pattern(net, fanin=8, duty=1.0, elephants=2, rng=0)
        configs = [TimeflowConfig(ecn=False, **SHORT)] + [
            TimeflowConfig(ecn=True, ecn_k=float(k), **SHORT)
            for k in (5, 10, 30, 60)]
        assert_oracle(TimeflowEngine(net, flows, configs[0]), configs)

    def test_control_law_grid_columns(self, net):
        """backoff/growth/min-rate/warmup all vary per column."""
        flows = incast_pattern(net, fanin=6, duty=0.6, elephants=1, rng=1)
        configs = [
            TimeflowConfig(ecn=True, ecn_k=10.0, backoff=0.25, **SHORT),
            TimeflowConfig(ecn=True, ecn_k=10.0, backoff=0.75,
                           growth_frac=0.1, **SHORT),
            TimeflowConfig(ecn=True, ecn_k=40.0, min_rate_frac=0.2,
                           warmup_s=5e-5, **SHORT),
            TimeflowConfig(ecn=False, warmup_s=2e-5, **SHORT),
        ]
        assert_oracle(TimeflowEngine(net, flows, configs[0]), configs)

    def test_randomised_flow_mix(self, net):
        """Finite, repeating, bursty, and constant flows together."""
        rng = np.random.default_rng(42)
        eps = net.topology.n_endpoints
        flows = []
        for i in range(12):
            src, dst = rng.choice(eps, size=2, replace=False)
            kind = i % 4
            if kind == 0:
                flows.append(FlowSpec(src=int(src), dst=int(dst), cls="e"))
            elif kind == 1:
                flows.append(FlowSpec(
                    src=int(src), dst=int(dst), cls="f",
                    size_bytes=float(rng.integers(1, 80)) * 4096.0,
                    repeat=True))
            elif kind == 2:
                flows.append(FlowSpec(
                    src=int(src), dst=int(dst), cls="b",
                    burst_duty=float(rng.uniform(0.2, 0.9)),
                    burst_period_s=2e-5))
            else:
                flows.append(FlowSpec(
                    src=int(src), dst=int(dst), cls="f",
                    size_bytes=float(rng.integers(1, 30)) * 4096.0,
                    start_s=float(rng.uniform(0.0, 3e-5))))
        configs = [TimeflowConfig(ecn=True, ecn_k=float(k), **SHORT)
                   for k in (8, 24, 48)]
        configs.append(TimeflowConfig(ecn=False, **SHORT))
        assert_oracle(TimeflowEngine(net, flows, configs[0]), configs)

    def test_single_scenario_ensemble(self, net):
        flows = incast_pattern(net, fanin=4, rng=3)
        cfg = TimeflowConfig(ecn=True, ecn_k=20.0, **SHORT)
        assert_oracle(TimeflowEngine(net, flows, cfg), [cfg])

    def test_disjoint_on_windows(self, net):
        """Columns whose flows are never simultaneously active."""
        eps = net.topology.n_endpoints
        flows = [
            FlowSpec(src=0, dst=eps - 1, cls="a", size_bytes=8 * 4096.0,
                     start_s=0.0),
            FlowSpec(src=1, dst=eps - 2, cls="b", size_bytes=8 * 4096.0,
                     start_s=6e-5),
        ]
        configs = [TimeflowConfig(ecn=True, ecn_k=10.0, **SHORT),
                   TimeflowConfig(ecn=True, ecn_k=10.0, warmup_s=6e-5,
                                  **SHORT)]
        assert_oracle(TimeflowEngine(net, flows, configs[0]), configs)

    def test_zero_completion_column_yields_nan_stats(self, net):
        """A warmup past the horizon discards every completion; the
        column must flow through fct_stats as NaNs, not crash."""
        flows = incast_pattern(net, fanin=4, rng=5)
        configs = [TimeflowConfig(ecn=True, ecn_k=10.0, **SHORT),
                   TimeflowConfig(ecn=True, ecn_k=10.0, warmup_s=1.0,
                                  **SHORT)]
        engine = TimeflowEngine(net, flows, configs[0])
        assert_oracle(engine, configs)
        starved = engine.run_ensemble(configs)[1]
        victim = starved.cls("victim")
        assert victim.fct["n"] == 0.0
        assert math.isnan(victim.fct["p99"])

    def test_base_latency_fifo_bursty_congestors(self, net):
        """The shape validate_victim_impact runs: a fixed base latency,
        FIFO arms, and rate-limited bursty congestors."""
        flows = incast_pattern(net, fanin=8, duty=0.3, burst_period_s=2e-5,
                               congestor_rate=0.2 * net.config.link_rate,
                               victim_rate_frac=0.1)
        base = dict(SHORT, dt_s=1e-7,
                    base_latency_s=4096.0 / net.config.link_rate)
        configs = [TimeflowConfig(ecn=False, **base),
                   TimeflowConfig(ecn=False, warmup_s=3e-5, **base),
                   TimeflowConfig(ecn=True, ecn_k=20.0, **base)]
        assert_oracle(TimeflowEngine(net, flows, configs[0]), configs)


class TestEnsembleValidation:
    def test_empty_configs_rejected(self, net):
        flows = incast_pattern(net, fanin=4, rng=0)
        engine = TimeflowEngine(net, flows, TimeflowConfig(**SHORT))
        with pytest.raises(ConfigurationError):
            engine.run_ensemble([])

    @pytest.mark.parametrize("axis,value", [
        ("dt_s", 1e-7), ("horizon_s", 2e-4), ("mtu_bytes", 8192.0),
        ("control_interval_s", 1e-5), ("base_latency_s", 1e-6)])
    def test_shared_axis_mismatch_rejected(self, net, axis, value):
        assert axis in ENSEMBLE_SHARED_AXES
        flows = incast_pattern(net, fanin=4, rng=0)
        engine = TimeflowEngine(net, flows, TimeflowConfig(**SHORT))
        bad = TimeflowConfig(**{**SHORT, axis: value})
        with pytest.raises(ConfigurationError, match=axis):
            engine.run_ensemble([TimeflowConfig(**SHORT), bad])


class TestCongestConfigValidation:
    def test_duplicate_ks_deduped_in_order(self):
        cfg = CongestConfig(ks=(30, 10, 30, 60, 10))
        assert cfg.ks == (30, 10, 60)

    def test_sub_mtu_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            CongestConfig(ks=(10, 0))

    def test_nan_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            CongestConfig(ks=(float("nan"),))

    def test_no_arms_rejected(self):
        with pytest.raises(ConfigurationError):
            CongestConfig(ks=(), include_fifo=False)

    @pytest.mark.parametrize("knob", [
        {"fanin": 0}, {"elephants": -1}, {"duty": 0.0}, {"duty": 1.5},
        {"burst_period_s": 0.0}, {"dt_s": 0.0}, {"horizon_s": -1.0}])
    def test_bad_knobs_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=next(iter(knob))):
            CongestConfig(**knob)

    def test_valid_configs_keep_their_document(self):
        # run ids hash to_dict, so validation must not reshape it
        assert CongestConfig(elephants=0, duty=0.5).to_dict() == {
            "ks": [10, 30, 60], "include_fifo": True, "fanin": 8,
            "duty": 0.5, "burst_period_s": 5e-5, "elephants": 0,
            "horizon_s": 3e-4, "dt_s": 5e-8, "warmup_frac": 1 / 3,
            "seed": 0}

    def test_fifo_only_study_allowed(self):
        assert CongestConfig(ks=(), include_fifo=True).ks == ()


class TestRunCongestEnsemble:
    @pytest.fixture(scope="class")
    def spec(self):
        return frontier_spec().scaled(8, 4, 4)

    @pytest.fixture(scope="class")
    def config(self):
        return CongestConfig(ks=(10.0, 60.0), horizon_s=1e-4)

    def test_run_congest_arms_equal_reference_runs(self, spec, config):
        doc = run_congest(spec, config)
        net, flows = congest_scenario(spec, config)
        cfgs = [config.arm_config(arm["ecn_k"]) for arm in doc["arms"]]
        engine = TimeflowEngine(net, flows, cfgs[0])
        assert [arm["mode"] for arm in doc["arms"]] == ["fifo", "ecn", "ecn"]
        for arm, cfg in zip(doc["arms"], cfgs):
            expected = {"mode": arm["mode"], "ecn_k": arm["ecn_k"],
                        **reference_run(engine, cfg).to_doc()}
            assert (json.dumps(arm, sort_keys=True, default=str)
                    == json.dumps(expected, sort_keys=True, default=str))

    def test_grid_cells_match_sequential_runs(self, spec, config):
        grid = run_congest_grid(spec, config, backoffs=(0.25, 0.75))
        modes = [c["mode"] for c in grid["cells"]]
        assert modes[0] == "fifo"
        assert len(grid["cells"]) == 1 + 2 * 2   # fifo + |ks| x |backoffs|
        ecn = [c for c in grid["cells"] if c["mode"] == "ecn"]
        assert {(c["ecn_k"], c["backoff"]) for c in ecn} == \
            {(10.0, 0.25), (10.0, 0.75), (60.0, 0.25), (60.0, 0.75)}
        for cell in grid["cells"]:
            assert cell["victim_p99_s"] > 0.0
            assert cell["max_queue_mtus"] >= 0.0
