"""Chaos engine: the cross-validation gate, determinism, artifacts, knobs."""

import dataclasses
import json

import pytest

from repro.chaos import (CHAOS_LEDGER, EFFICIENCY_TOLERANCE, MIN_EVENTS,
                         RATE_TOLERANCE, ChaosConfig, chaos_run_id,
                         cross_validate, run_chaos, run_chaos_cached,
                         validation_config, validation_spec)
from repro.errors import ConfigurationError
from repro.sweep.plan import task_hash

#: One validation run per module — ~2,450 events over 1,000 h, shared by
#: every gate assertion below.
_REPORT = None


@pytest.fixture(scope="module")
def report():
    global _REPORT
    if _REPORT is None:
        _REPORT = cross_validate(seed=0)
    return _REPORT


class TestCrossValidationGate:
    """The ISSUE's headline correctness claim, asserted as written."""

    def test_enough_events_for_statistics(self, report):
        assert report.n_events >= MIN_EVENTS

    def test_interrupt_rates_match_mtti_model(self, report):
        for job in report.jobs:
            assert abs(job.rate_ratio - 1.0) <= RATE_TOLERANCE, (
                f"{job.name}: measured {job.measured_rate_per_h:.5f}/h vs "
                f"analytic {job.analytic_rate_per_h:.5f}/h")
            assert job.rate_ok

    def test_daly_efficiency_matches_analytic_model(self, report):
        for job in report.jobs:
            assert abs(job.efficiency_ratio - 1.0) <= EFFICIENCY_TOLERANCE, (
                f"{job.name}: measured {job.measured_efficiency:.4f} vs "
                f"analytic {job.analytic_efficiency:.4f}")
            assert job.efficiency_ok

    def test_gate_passes(self, report):
        assert report.passed

    def test_three_job_sizes(self, report):
        assert [j.n_nodes for j in report.jobs] == [4, 8, 16]

    def test_machine_mostly_available(self, report):
        assert 0.9 < report.machine_availability <= 1.0

    def test_doc_round_trips_through_json(self, report):
        doc = json.loads(json.dumps(report.to_doc()))
        assert doc["passed"] is True
        assert len(doc["jobs"]) == 3


class TestDeterminism:
    def test_same_config_same_result(self):
        spec = validation_spec(failure_scale=100.0)
        config = validation_config(horizon_h=120.0)
        assert (run_chaos(spec, config).to_doc()
                == run_chaos(spec, config).to_doc())

    def test_seed_changes_the_run(self):
        spec = validation_spec(failure_scale=100.0)
        a = run_chaos(spec, validation_config(horizon_h=120.0, seed=0))
        b = run_chaos(spec, validation_config(horizon_h=120.0, seed=1))
        assert a.to_doc() != b.to_doc()


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"horizon_h": 0.0},
        {"checkpoint_cost_s": 0.0},
        {"restart_s": -1.0},
        {"storage_slowdown": 0.5},
        {"mttr_scale": 0.0},
        {"job_fractions": ()},
        {"job_fractions": (0.5, 1.5)},
    ])
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            ChaosConfig(**bad)

    def test_round_trips_through_dict(self):
        config = ChaosConfig(horizon_h=48.0, seed=3, mttr_scale=0.5,
                             job_fractions=(0.25, 0.5))
        assert ChaosConfig.from_dict(config.to_dict()) == config


class TestArtifacts:
    SPEC = validation_spec(failure_scale=50.0)
    CONFIG = validation_config(horizon_h=48.0)

    def test_write_then_resume(self, tmp_path):
        out = str(tmp_path)
        doc, path, resumed = run_chaos_cached(self.SPEC, self.CONFIG,
                                              out_dir=out)
        assert not resumed and doc["status"] == "ok"
        again, path2, resumed2 = run_chaos_cached(self.SPEC, self.CONFIG,
                                                  out_dir=out)
        assert resumed2 and path2 == path and again == doc

    def test_fresh_overwrites(self, tmp_path):
        out = str(tmp_path)
        doc, _, _ = run_chaos_cached(self.SPEC, self.CONFIG, out_dir=out)
        redone, _, resumed = run_chaos_cached(self.SPEC, self.CONFIG,
                                              out_dir=out, fresh=True)
        assert not resumed and redone == doc     # deterministic re-run

    def test_corrupt_artifact_reruns(self, tmp_path):
        out = str(tmp_path)
        run_id = chaos_run_id(self.SPEC, self.CONFIG)
        _, path, _ = run_chaos_cached(self.SPEC, self.CONFIG, out_dir=out)
        with open(path, "w") as fh:
            fh.write("{ truncated")
        assert CHAOS_LEDGER.resume(out, run_id) is None
        _, _, resumed = run_chaos_cached(self.SPEC, self.CONFIG, out_dir=out)
        assert not resumed

    def test_foreign_or_failed_artifact_distrusted(self, tmp_path):
        out = str(tmp_path)
        run_id = chaos_run_id(self.SPEC, self.CONFIG)
        path = CHAOS_LEDGER.path(out, run_id)
        for doc in ({"status": "error", "run_id": run_id, "schema": 1},
                    {"status": "ok", "run_id": "deadbeefdeadbeef",
                     "schema": 1},
                    {"status": "ok", "run_id": run_id, "schema": 999}):
            with open(path, "w") as fh:
                json.dump(doc, fh)
            assert CHAOS_LEDGER.resume(out, run_id) is None

    def test_run_id_tracks_spec_and_config(self):
        base = chaos_run_id(self.SPEC, self.CONFIG)
        assert base == chaos_run_id(self.SPEC, self.CONFIG)
        assert base != chaos_run_id(validation_spec(failure_scale=51.0),
                                    self.CONFIG)
        assert base != chaos_run_id(
            self.SPEC, dataclasses.replace(self.CONFIG, seed=9))


class TestSpecKnobs:
    """The chaos knobs ride on DegradationSpec without disturbing it."""

    def test_knobs_round_trip_through_spec_json(self):
        from repro.core.scenario import MachineSpec
        spec = validation_spec(failure_scale=300.0,
                               checkpoint_policy="fixed",
                               checkpoint_interval_s=900.0)
        back = MachineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back.degradation.failure_scale == 300.0
        assert back.degradation.checkpoint_policy == "fixed"
        assert back.degradation.checkpoint_interval_s == 900.0
        assert back == spec

    def test_default_knobs_keep_task_hashes_stable(self):
        """Defaults must serialize to nothing: adding the knobs must not
        have invalidated every pre-existing sweep artifact hash."""
        from repro.core.scenario import frontier_spec
        spec = frontier_spec()
        doc = spec.to_dict()
        deg = doc.get("degradation", {})
        assert "failure_scale" not in deg
        assert "checkpoint_policy" not in deg
        assert "checkpoint_interval_s" not in deg
        assert task_hash(spec, "storage", 0) == task_hash(
            spec.degraded(), "storage", 0)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            validation_spec(failure_scale=0.0)
        with pytest.raises(ConfigurationError):
            validation_spec(checkpoint_policy="hourly")
        with pytest.raises(ConfigurationError):
            validation_spec(checkpoint_policy="fixed")   # needs an interval
