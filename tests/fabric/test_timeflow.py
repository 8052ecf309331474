"""The fluid time-stepped congestion engine (repro.fabric.timeflow)."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.family import family
from repro.core.scenario import frontier_spec
from repro.errors import ConfigurationError
from repro.fabric import congest
from repro.fabric.congest import (CONGEST_LEDGER, CongestConfig,
                                  congest_run_id, run_congest,
                                  run_congest_cached)
from repro.fabric.maxmin import maxmin_allocate
from repro.fabric.timeflow import (FlowSpec, TimeflowConfig, TimeflowEngine,
                                   _csr_matmul_into, _csr_parts_matmul,
                                   fct_stats, incast_pattern,
                                   validate_victim_impact)

from .timeflow_oracle import reference_run


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

    def test_rejects_infinite_size(self):
        # used to run as an elephant labelled finite (and repeating)
        with pytest.raises(ConfigurationError, match="flow size"):
            FlowSpec(src=0, dst=1, size_bytes=math.inf, repeat=True)

    def test_rejects_bad_duty(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, burst_duty=0.0)
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, burst_duty=1.5, burst_period_s=1e-5)

    def test_bursty_needs_a_period(self):
        with pytest.raises(ConfigurationError):
            FlowSpec(src=0, dst=1, burst_duty=0.5)

    @pytest.mark.parametrize("period", [math.inf, math.nan, 0.0])
    def test_burst_period_must_be_positive_and_finite(self, period):
        # An infinite period never reaches its off edge: the flow used to
        # run always-on under a bursty label.
        with pytest.raises(ConfigurationError, match="burst_period_s"):
            FlowSpec(src=0, dst=1, burst_duty=0.5, burst_period_s=period)

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

    @pytest.mark.parametrize("name", ["dt_s", "horizon_s", "mtu_bytes",
                                      "control_interval_s", "base_latency_s",
                                      "warmup_s"])
    def test_time_grid_and_mtu_must_be_finite(self, name):
        # ``horizon_s`` and ``control_interval_s`` used to fail inside the
        # engine with an OverflowError, ``dt_s`` with a NaN conversion,
        # ``mtu_bytes`` ran with infinite base latencies, and ``warmup_s``
        # dropped every latency sample.
        with pytest.raises(ConfigurationError, match=name):
            TimeflowConfig(**{name: math.inf})

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
        # the row classes the loop integrates: at most one per row
        assert 1 <= metrics["fabric.timeflow.queue_classes"] \
            <= metrics["fabric.timeflow.queue_rows"]
        assert metrics["fabric.timeflow.queue_classes"] \
            <= metrics["fabric.timeflow.row_classes"]
        assert metrics["fabric.timeflow.column_events"] >= \
            metrics["fabric.timeflow.completions"]

    def test_build_span_carries_the_engine_sizes(self, net):
        obs.enable()
        try:
            flows = incast_pattern(net, fanin=4, duty=0.5,
                                   burst_period_s=2e-5, elephants=2, rng=0)
            eng = TimeflowEngine(net, flows, TimeflowConfig(horizon_s=5e-5))
            spans = [s for s in obs.tracer().finished_spans()
                     if s.name == "fabric.timeflow.build"]
        finally:
            obs.disable()
            obs.reset()
        assert len(spans) == 1
        assert spans[0].attributes == {
            "flows": 7, "active_rows": eng._active.size,
            "row_classes": eng._caps_cls.size,
            "switch_steps": len(eng._switches)}
        # burst edges and the elephants' starts
        assert spans[0].attributes["switch_steps"] >= 2
        # path planning is part of the build
        assert [c.name for c in spans[0].children] == ["fabric.batch_route"]
        assert spans[0].duration_s > 0.0

    def test_scaled_full_incast_folds_its_rows(self):
        # the 2,113-flow incast of the full-fabric benchmark on a 4,352-
        # endpoint fabric: most links carry one elephant alone, so their
        # rows share a flow list and fold into one class per flow
        net = frontier_spec().scaled(17, 16, 16).build_network(rng=2023)
        flows = incast_pattern(net, fanin=64, elephants=2048, rng=2023)
        cfg = TimeflowConfig(horizon_s=200 * 5e-8, ecn=True,
                             control_interval_s=10 * 5e-8)
        eng = TimeflowEngine(net, flows, cfg)
        assert len(flows) == 2113
        assert eng._A_cls.shape[0] < eng._active.size
        assert eng._nqc < eng._nq
        assert json.dumps(eng.run().to_doc(), sort_keys=True) == json.dumps(
            reference_run(eng, cfg).to_doc(), sort_keys=True)


class TestSwitchGathers:
    """Each planned switch step's :class:`_Switch`, fixed at engine
    build, holds what the step loop would gather from the flow arrays,
    and its gather re-derives the rows the full matmul does, bit for
    bit."""

    DT = 5e-8

    def bursty_incast(self, net):
        flows = incast_pattern(net, fanin=8, duty=0.3, elephants=2, rng=0)
        return TimeflowEngine(net, flows, TimeflowConfig(horizon_s=150e-6))

    def duplicate_rows(self):
        # parallel flows from group 1 into endpoint 0 over lanes
        # aggregated to 2x and 3x the line rate, and a parallel pair
        # within one switch: classes of two rows, one flow list on two
        # capacities
        agg = frontier_spec().scaled(2, 4, 4).build_network(rng=0)
        dt = self.DT
        flows = [FlowSpec(src=20, dst=0),
                 FlowSpec(src=20, dst=0, start_s=7 * dt),
                 FlowSpec(src=20, dst=0, start_s=12.5 * dt, burst_duty=0.5,
                          burst_period_s=8 * dt, rate_limit=5e9),
                 FlowSpec(src=5, dst=6, start_s=3 * dt, size_bytes=3e4),
                 FlowSpec(src=5, dst=6, start_s=7 * dt, size_bytes=2e4,
                          repeat=True)]
        eng = TimeflowEngine(agg, flows, TimeflowConfig(
            dt_s=dt, horizon_s=60 * dt, control_interval_s=10 * dt))
        C = eng._A_cls
        lists = [tuple(C.indices[C.indptr[c]:C.indptr[c + 1]])
                 for c in range(C.shape[0])]
        assert C.shape[0] < eng._active.size
        assert len(set(lists)) < len(lists)
        return eng

    @pytest.mark.parametrize("which", ["bursty_incast", "duplicate_rows"])
    def test_entries_match_the_flow_arrays_and_the_full_matmul(
            self, net, which):
        eng = (self.bursty_incast(net) if which == "bursty_incast"
               else self.duplicate_rows())
        st, AT, nqc = eng._st, eng._AT_cls, eng._nqc
        assert eng._switches and 0 not in eng._switches
        inj = np.random.default_rng(0).uniform(0.0, 2e10, (len(eng.flows), 3))
        inj[::3, 1] = 0.0
        full = _csr_matmul_into(eng._A_cls, inj,
                                np.empty((eng._caps_cls.size, 3)))
        cal = {f: i for i, f in enumerate(st["fin"].tolist())}
        for step, sw in eng._switches.items():
            fl = sw.flows
            assert fl.size and np.array_equal(fl, np.unique(fl))
            assert np.array_equal(sw.start[:, 0], st["start"][fl])
            b = np.flatnonzero(st["bursty"][fl])
            assert np.array_equal(sw.bursty, b)
            assert np.array_equal(sw.start_b, st["start"][fl[b]])
            assert np.array_equal(sw.period_b, st["period"][fl[b]])
            assert np.array_equal(sw.on_b, st["on_len"][fl[b]])
            f = [k for k, g in enumerate(fl.tolist()) if g in cal]
            assert sw.fin.tolist() == f
            assert sw.cal.tolist() == [cal[g] for g in fl[f].tolist()]
            g = sw.gather
            assert g.rows.tolist() == [
                c for f in fl.tolist()
                for c in AT.indices[AT.indptr[f]:AT.indptr[f + 1]].tolist()]
            out = _csr_parts_matmul(g.indptr, g.indices, g.data, inj)
            assert out.tobytes() == full[g.rows].tobytes()
            assert np.array_equal(g.queues, np.flatnonzero(g.rows < nqc))
            assert np.array_equal(g.qrows, g.rows[g.queues])
            assert g.qcaps.tobytes() == eng._caps_cls[g.qrows].tobytes()


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

    @pytest.mark.parametrize("knobs", [
        {"elephants": -3}, {"victim_size_bytes": 0.0}, {"target": 3.5},
        {"fanin": 4.0}, {"elephants": 1.5}, {"target": True}])
    def test_malformed_knobs_rejected(self, net, knobs):
        # negative elephants ran with none, a zero victim size became a
        # one-MTU canary, and a fractional target raised a bare IndexError
        with pytest.raises(ConfigurationError):
            incast_pattern(net, **{"fanin": 4, **knobs})

    def test_victim_size_is_honoured(self, net):
        flows = incast_pattern(net, fanin=4, victim_size_bytes=8192.0)
        assert [f.size_bytes for f in flows if f.cls == "victim"] == [8192.0]
        flows = incast_pattern(net, fanin=4, mtu_bytes=2048.0)
        assert [f.size_bytes for f in flows if f.cls == "victim"] == [2048.0]


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

    @pytest.mark.parametrize("duty,run_id", [(0.3, "20c12c783d857a25"),
                                             (0.35, "4aeda51dd9d023f2")])
    def test_recomputes_a_parent_written_bursty_artifact(self, duty, run_id):
        """The same pin for bursty congestors: ``congest --scaled 8 4 4
        --duty <duty> --horizon-us 150`` as an earlier build wrote it.
        At ``duty=0.3`` every burst edge lands on a full step (an ECN
        control step's successor); at ``0.35`` the off edges are switch
        steps."""
        fixture = (Path(__file__).parents[1] / "fixtures" / "ledger"
                   / f"congest-{run_id}.json")
        doc = run_congest(frontier_spec().scaled(8, 4, 4),
                          CongestConfig(duty=duty, horizon_s=150e-6))
        assert json.loads(json.dumps(doc)) == json.loads(fixture.read_text())

    @pytest.mark.parametrize("name,endpoints", [("frontier", 37_888),
                                                 ("aurora", 84_992)])
    def test_full_scale_spec_runs_its_own_fabric(self, name, endpoints,
                                                 monkeypatch):
        """No silent reduction: a study on a full machine integrates that
        machine's fabric, and its document names it."""
        built = []
        real = congest.congest_scenario

        def spy(spec, config):
            net, flows = real(spec, config)
            built.append(net.config.total_endpoints)
            return net, flows

        monkeypatch.setattr(congest, "congest_scenario", spy)
        spec = family(name).spec()
        doc = run_congest(spec, CongestConfig(ks=(), horizon_s=2e-5))
        assert built == [endpoints]
        assert doc["network"] == doc["spec"]["name"] == name

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
