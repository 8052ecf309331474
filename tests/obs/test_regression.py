"""The probe suite and the perf-regression gate's compare logic."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import regression
from repro.obs.probes import PROBES, record_machine_context, run_probes


class TestProbes:
    def test_probe_registry_covers_the_instrumented_layers(self):
        assert set(PROBES) == {"fabric", "routing", "cache", "mpi",
                               "storage", "scheduler", "sweep", "chaos",
                               "heal", "congestion", "ensemble", "serve",
                               "machines"}

    def test_unknown_probe_rejected(self):
        with pytest.raises(KeyError):
            run_probes(["nope"])

    def test_cache_speedup_flag_holds_call_after_call(self):
        # cold build vs the best of several memo hits: the 10x flag must
        # not flip on one slow timer read
        flags = [PROBES["cache"]()["speedup_at_least_10x"]
                 for _ in range(100)]
        assert flags == [1.0] * 100

    def test_machine_context_spans_every_layer(self):
        obs.enable()
        try:
            results = record_machine_context()
        finally:
            obs.disable()
        assert set(results) == set(PROBES)
        roots = obs.tracer().roots
        assert [r.name for r in roots] == ["harness.machine_context"]
        probe_spans = {c.name for c in roots[0].children}
        assert probe_spans == {f"probe.{name}" for name in PROBES}


class TestSnapshotAndCompare:
    def test_snapshot_is_deterministic(self):
        a = regression.snapshot()
        b = regression.snapshot()
        assert regression.compare(a, b) == []
        # values must be literally identical (pinned seeds)
        assert a["probes"]["fabric"]["values"] == b["probes"]["fabric"]["values"]
        assert a["counters"] == b["counters"]

    def test_snapshot_leaves_obs_state_as_found(self):
        assert not obs.enabled()
        regression.snapshot()
        assert not obs.enabled()

    def test_value_drift_detected(self):
        base = regression.snapshot()
        cur = json.loads(json.dumps(base))
        cur["probes"]["storage"]["values"]["burst_time_s"] *= 1.5
        problems = regression.compare(base, cur)
        assert any("burst_time_s" in p for p in problems)

    def test_counter_drift_detected(self):
        base = regression.snapshot()
        cur = json.loads(json.dumps(base))
        cur["counters"]["fabric.maxmin.iterations"] += 100
        problems = regression.compare(base, cur)
        assert any("fabric.maxmin.iterations" in p for p in problems)

    def test_wall_time_regression_detected(self):
        base = regression.snapshot()
        cur = json.loads(json.dumps(base))
        cur["probes"]["fabric"]["wall_time_s"] = 1e6
        problems = regression.compare(base, cur)
        assert any("wall time regressed" in p for p in problems)

    def test_missing_probe_detected(self):
        base = regression.snapshot()
        cur = json.loads(json.dumps(base))
        del cur["probes"]["mpi"]
        assert any("missing" in p for p in regression.compare(base, cur))

    def test_wall_floor_absorbs_micro_probe_noise(self):
        base = regression.snapshot()
        cur = json.loads(json.dumps(base))
        # 0.2 s is far above any probe's real wall time but inside the
        # floored budget (10 x 0.05 s): micro-probes aren't judged on noise.
        for probe in cur["probes"].values():
            probe["wall_time_s"] = 0.2
        assert regression.compare(base, cur) == []


class TestBaselineFiles:
    def test_update_then_check_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_BASELINE.json")
        regression.update_baseline(path)
        assert regression.check_baseline(path) == []

    def test_missing_baseline_reported(self, tmp_path):
        problems = regression.check_baseline(str(tmp_path / "nope.json"))
        assert problems and "no baseline" in problems[0]

    def test_committed_baseline_passes(self):
        import os
        committed = os.path.join(os.path.dirname(__file__), os.pardir,
                                 os.pardir, "benchmarks",
                                 "BENCH_BASELINE.json")
        assert regression.check_baseline(os.path.abspath(committed)) == []
