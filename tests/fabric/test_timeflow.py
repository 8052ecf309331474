"""The fluid time-stepped congestion engine (repro.fabric.timeflow)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.scenario import frontier_spec
from repro.errors import ConfigurationError
from repro.fabric.maxmin import maxmin_allocate
from repro.fabric.congest import (CONGEST_LEDGER, CongestConfig,
                                  congest_run_id, run_congest,
                                  run_congest_cached)
from repro.fabric.timeflow import (FlowSpec, TimeflowConfig, TimeflowEngine,
                                   fct_stats, incast_pattern,
                                   validate_victim_impact)


@pytest.fixture(scope="module")
def net():
    return frontier_spec().scaled(8, 4, 4).build_network(rng=0)


class TestFlowSpec:
    def test_defaults_make_an_elephant(self):
        f = FlowSpec(src=0, dst=1)
        assert f.size_bytes is None and not f.repeat

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, size_bytes=0.0)

    def test_rejects_bad_duty(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, burst_duty=0.0)
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, burst_duty=1.5, burst_period_s=1e-5)

    def test_bursty_needs_a_period(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, burst_duty=0.5)

    def test_only_finite_flows_repeat(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, repeat=True)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), -1e-9])
    def test_start_must_be_finite_and_non_negative(self, start):
        # A NaN start used to be accepted and hang the step planner.
        with pytest.raises(ConfigurationError, match="start_s"):
            FlowSpec(src=0, dst=1, start_s=start)


class TestTimeflowConfig:
    @pytest.mark.parametrize("knobs", [
        {"min_rate_frac": 2.0}, {"min_rate_frac": -0.1},
        {"min_rate_frac": float("nan")}, {"warmup_s": -1e-6},
        {"base_latency_s": -1e-6}, {"dt_s": 0.0}, {"backoff": 1.0},
        {"growth_frac": 0.0}, {"ecn_k": -1.0},
        {"horizon_s": 1e-8, "dt_s": 1e-7}])
    def test_rejects_bad_knobs(self, knobs):
        with pytest.raises(ConfigurationError):
            TimeflowConfig(**knobs)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_ecn_threshold_must_be_finite(self, k):
        # A NaN threshold never marks: the ECN arm silently ran as FIFO.
        with pytest.raises(ConfigurationError, match="ecn_k"):
            TimeflowConfig(ecn_k=k)

    def test_accepts_edge_values(self):
        TimeflowConfig(min_rate_frac=0.0, warmup_s=0.0, base_latency_s=0.0)
        TimeflowConfig(min_rate_frac=1.0)


class TestFctStats:
    """The percentile-extraction edge cases the issue pins down."""

    def test_zero_completed_flows_yield_nans_not_errors(self):
        stats = fct_stats([])
        assert stats["n"] == 0.0
        assert math.isnan(stats["mean"])
        assert math.isnan(stats["p50"]) and math.isnan(stats["p99"])

    def test_single_packet_flow_is_every_percentile(self):
        stats = fct_stats([3.5e-6])
        assert stats["n"] == 1.0
        assert stats["p50"] == stats["p99"] == stats["mean"] == 3.5e-6

    def test_tied_completion_times_collapse_to_the_tie(self):
        stats = fct_stats([2e-6] * 40)
        assert stats["p50"] == stats["p99"] == 2e-6

    def test_p99_with_fewer_than_100_samples_interpolates(self):
        # 10 samples: p99 must land between the two largest order
        # statistics, not fail and not simply clamp to the max.
        samples = list(range(1, 11))
        stats = fct_stats(samples)
        assert 9.0 < stats["p99"] < 10.0
        assert stats["p50"] == 5.5

    def test_json_serialisable_even_when_empty(self):
        # NaN survives json.dumps (allow_nan default); artifact writers
        # rely on this for congested-to-death arms.
        assert "NaN" in json.dumps(fct_stats([]))


class TestEngine:
    def test_needs_at_least_one_flow(self, net):
        with pytest.raises(ConfigurationError):
            TimeflowEngine(net, [])

    def test_uncongested_flow_completes_at_line_rate(self, net):
        # One 1 MiB flow on an idle fabric: no queueing, FCT is the
        # serialisation time at peak efficiency plus base latency.
        size = float(1 << 20)
        cfg = TimeflowConfig(dt_s=1e-7, horizon_s=3e-4)
        eng = TimeflowEngine(net, [FlowSpec(src=0, dst=40,
                                            size_bytes=size)], cfg)
        result = eng.run()
        rep = result.cls("bulk")
        assert rep.completed == 1
        expected = size / eng.peak[0] + eng.base_latency[0]
        assert rep.fct["p50"] == pytest.approx(expected, rel=0.05)
        assert result.marks == 0
        assert result.max_queue_bytes == 0.0

    def test_deterministic_given_identical_inputs(self, net):
        flows = incast_pattern(net, fanin=4, elephants=2, rng=7)
        cfg = TimeflowConfig(horizon_s=1e-4)
        a = TimeflowEngine(net, flows, cfg).run()
        b = TimeflowEngine(net, flows, cfg).run()
        # json round-trip so identical NaNs (empty FCT classes) compare
        assert json.dumps(a.to_doc(), sort_keys=True) \
            == json.dumps(b.to_doc(), sort_keys=True)
        np.testing.assert_array_equal(a.mean_rates, b.mean_rates)

    def test_duty_cycle_halves_delivered_bytes(self, net):
        def bytes_at(duty):
            flows = [FlowSpec(src=0, dst=40, burst_duty=duty,
                              burst_period_s=2e-5 if duty < 1 else None)]
            cfg = TimeflowConfig(horizon_s=2e-4, ecn=False)
            return TimeflowEngine(net, flows, cfg).run() \
                .cls("bulk").bytes_injected

        assert bytes_at(0.5) == pytest.approx(0.5 * bytes_at(1.0), rel=0.05)

    def test_emits_timeflow_counters(self, net):
        obs.enable()
        try:
            flows = incast_pattern(net, fanin=4, rng=0)
            TimeflowEngine(net, flows, TimeflowConfig(horizon_s=5e-5)).run()
            snap = obs.registry().snapshot()
            metrics = {name: doc.get("value", doc.get("count", 0.0))
                       for name, doc in snap.items()}
        finally:
            obs.disable()
            obs.reset()
        assert metrics["fabric.timeflow.steps"] == 1000
        assert metrics["fabric.timeflow.flows"] == 5
        assert metrics["fabric.timeflow.completions"] > 0
        assert metrics["fabric.timeflow.marks"] > 0
        # Why a run's cost per step moved: full-matmul steps (step 0 and
        # one after each ECN control step), switch steps (starts, burst
        # edges), the finite entries' column events and the queue rows.
        assert 1 <= metrics["fabric.timeflow.dense_steps"] < 1000
        # every flow starts at step 0, a full step; the victim's link
        # is oversubscribed
        assert metrics["fabric.timeflow.start_steps"] == 0
        assert metrics["fabric.timeflow.queue_rows"] >= 1
        assert metrics["fabric.timeflow.column_events"] >= \
            metrics["fabric.timeflow.completions"]


class TestIncastPattern:
    def test_classes_and_fanin(self, net):
        flows = incast_pattern(net, fanin=6, elephants=3, rng=0)
        by_cls = {}
        for f in flows:
            by_cls.setdefault(f.cls, []).append(f)
        assert len(by_cls["congestor"]) == 6
        assert len(by_cls["victim"]) == 1
        assert len(by_cls["elephant"]) == 3
        # all congestors and the victim aim at the target endpoint
        assert {f.dst for f in by_cls["congestor"]} == {0}
        assert by_cls["victim"][0].dst == 0
        assert by_cls["victim"][0].repeat

    def test_senders_are_off_switch(self, net):
        flows = incast_pattern(net, fanin=6, rng=0)
        flat = net.topology.flat
        target_switch = int(flat.endpoint_switch[0])
        for f in flows:
            assert int(flat.endpoint_switch[f.src]) != target_switch

    def test_oversized_fanin_rejected(self, net):
        with pytest.raises(ConfigurationError):
            incast_pattern(net, fanin=10_000)


class TestGpcnetShape:
    """The acceptance criterion: FIFO tails explode, ECN tails bound."""

    @pytest.fixture(scope="class")
    def arms(self, net):
        flows = incast_pattern(net, fanin=8, elephants=2, rng=0)
        out = {}
        for name, ecn in (("fifo", False), ("ecn", True)):
            cfg = TimeflowConfig(ecn=ecn, ecn_k=30.0, warmup_s=1e-4)
            out[name] = TimeflowEngine(net, flows, cfg).run()
        return out

    def test_fifo_victim_tail_explodes(self, arms):
        fifo = arms["fifo"].cls("victim").latency
        ecn = arms["ecn"].cls("victim").latency
        assert fifo["p99"] >= 2.0 * ecn["p99"]

    def test_ecn_keeps_the_queue_near_the_threshold(self, arms):
        # FIFO queues grow two orders of magnitude past where the ECN
        # loop pins them; the ECN sawtooth overshoots k but stays the
        # same order of magnitude.
        assert arms["fifo"].max_queue_bytes \
            > 10.0 * arms["ecn"].max_queue_bytes

    def test_ecn_marks_fifo_does_not(self, arms):
        assert arms["fifo"].marks == 0
        assert arms["ecn"].marks > 0

    def test_k_sweep_tail_is_monotone(self, net):
        flows = incast_pattern(net, fanin=8, elephants=2, rng=0)
        tails = []
        for k in (10, 30, 60):
            cfg = TimeflowConfig(ecn=True, ecn_k=float(k), warmup_s=1e-4)
            result = TimeflowEngine(net, flows, cfg).run()
            tails.append(result.cls("victim").latency["p99"])
        assert tails[0] < tails[1] < tails[2]


class TestSteadyStateCrossValidation:
    def test_analytic_victim_impact_within_15pct(self):
        val = validate_victim_impact()
        assert val.ok, (f"measured {val.measured:.3f} vs analytic "
                        f"{val.analytic:.3f} (ratio {val.ratio:.3f})")
        assert val.samples > 50

    def test_impossible_burst_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_victim_impact(victim_load=0.1, congestor_load=0.2,
                                   duty=1.0)

    @pytest.mark.parametrize("duty", [0.0, -0.3, 1.5, float("nan")])
    def test_duty_outside_unit_interval_rejected(self, duty):
        # duty=0 used to escape as a bare ZeroDivisionError
        with pytest.raises(ConfigurationError, match="duty"):
            validate_victim_impact(duty=duty)

    def test_aimd_converges_on_maxmin_fair_share(self, net):
        # Constant elephants into one endpoint: the ECN loop's
        # time-averaged rates must agree with the max-min allocation of
        # the identical CSR path set (single bottleneck: cap / N each).
        flat = net.topology.flat
        target_switch = int(flat.endpoint_switch[0])
        senders = [ep for ep in range(net.config.total_endpoints)
                   if int(flat.endpoint_switch[ep]) != target_switch][:4]
        flows = [FlowSpec(src=s, dst=0) for s in senders]
        eng = TimeflowEngine(net, flows, TimeflowConfig(horizon_s=5e-4))
        result = eng.run()
        fair = maxmin_allocate(eng.caps, eng.paths,
                               np.full(len(flows), np.inf)).rates
        ratios = result.mean_rates / fair
        assert np.all(np.abs(ratios - 1.0) <= 0.20)
        # fairness: synchronized AIMD keeps the flows within 10%
        assert result.mean_rates.max() \
            <= 1.10 * result.mean_rates.min()


class TestCongestStudy:
    def test_run_congest_orders_arms_and_summarises(self):
        doc = run_congest(frontier_spec().scaled(8, 4, 4),
                          CongestConfig(ks=(10, 60), horizon_s=1e-4))
        assert [a["mode"] for a in doc["arms"]] == ["fifo", "ecn", "ecn"]
        assert set(doc["fifo_vs_ecn_p99"]) == {"10", "60"}
        assert all(r > 1.0 for r in doc["fifo_vs_ecn_p99"].values())
        assert doc["status"] == "ok"

    def test_recomputes_a_parent_written_artifact(self):
        """The engine's output pinned across commits: a fresh run equals
        ``congest --scaled 8 4 4 --horizon-us 150`` as an earlier build
        wrote it (``reference_run`` only checks against the same build).
        """
        fixture = (Path(__file__).parents[1] / "fixtures" / "ledger"
                   / "congest-20ae383396dc03f0.json")
        doc = run_congest(frontier_spec().scaled(8, 4, 4),
                          CongestConfig(horizon_s=150e-6))
        assert json.loads(json.dumps(doc)) == json.loads(fixture.read_text())

    def test_full_scale_spec_reduces_automatically(self):
        config = CongestConfig(ks=(), include_fifo=True, horizon_s=2e-5)
        doc = run_congest(frontier_spec(), config)
        assert "scaled" in doc["network"]
        # ... but the artifact identity is the requested spec
        assert doc["spec"]["name"] == "frontier"

    def test_cached_run_resumes(self, tmp_path):
        spec = frontier_spec().scaled(8, 4, 4)
        config = CongestConfig(ks=(10,), include_fifo=False, horizon_s=5e-5)
        doc1, path1, resumed1 = run_congest_cached(
            spec, config, out_dir=str(tmp_path))
        doc2, path2, resumed2 = run_congest_cached(
            spec, config, out_dir=str(tmp_path))
        assert (resumed1, resumed2) == (False, True)
        assert path1 == path2
        assert json.dumps(doc1, sort_keys=True) \
            == json.dumps(doc2, sort_keys=True)

    def test_fresh_reruns(self, tmp_path):
        spec = frontier_spec().scaled(8, 4, 4)
        config = CongestConfig(ks=(10,), include_fifo=False, horizon_s=5e-5)
        run_congest_cached(spec, config, out_dir=str(tmp_path))
        _, _, resumed = run_congest_cached(spec, config,
                                           out_dir=str(tmp_path), fresh=True)
        assert not resumed

    def test_corrupt_artifact_is_not_trusted(self, tmp_path):
        spec = frontier_spec().scaled(8, 4, 4)
        config = CongestConfig(ks=(10,), include_fifo=False, horizon_s=5e-5)
        _, path, _ = run_congest_cached(spec, config, out_dir=str(tmp_path))
        with open(path, "w") as fh:
            fh.write("{not json")
        assert CONGEST_LEDGER.resume(str(tmp_path),
                                     congest_run_id(spec, config)) is None

    def test_config_knobs_change_the_run_id(self):
        spec = frontier_spec()
        a = congest_run_id(spec, CongestConfig())
        b = congest_run_id(spec, CongestConfig(fanin=16))
        assert a != b

    def test_empty_study_rejected(self):
        with pytest.raises(ConfigurationError):
            CongestConfig(ks=(), include_fifo=False)
