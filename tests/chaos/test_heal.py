"""Self-healing chaos: spare pools, adaptive checkpointing, the heal gate."""

import json
from dataclasses import replace

import pytest

from repro.chaos import (ChaosConfig, chaos_run_id, cross_validate_heal,
                         heal_validation_spec, run_chaos, validation_config,
                         validation_spec)
from repro.chaos.heal import SparePool
from repro.core.scenario import (MachineSpec, ResiliencePolicySpec,
                                 frontier_spec)
from repro.errors import ConfigurationError, SchedulerError
from repro.resilience import (AdaptiveCheckpointController,
                              InterruptRateEstimator)
from repro.resilience.checkpoint import daly_optimal_interval
from repro.scheduler.slurm import SlurmScheduler
from repro.sweep.plan import task_hash

#: One three-arm gate run per module (~2,100 interrupts over 1,000 h),
#: shared by every acceptance assertion below.
_REPORT = None


@pytest.fixture(scope="module")
def report():
    global _REPORT
    if _REPORT is None:
        _REPORT = cross_validate_heal(seed=0)
    return _REPORT


class TestInterruptRateEstimator:
    def test_zero_evidence_returns_the_prior(self):
        est = InterruptRateEstimator(prior_rate_per_h=0.25)
        assert est.observe(0.0, 0) == pytest.approx(0.25)

    def test_evidence_dominates_the_prior(self):
        # 1/h modeled, but 4/h measured over 1,000 h: posterior ~ measured
        est = InterruptRateEstimator(prior_rate_per_h=1.0,
                                     prior_weight_h=24.0)
        assert est.observe(1000.0, 4000) == pytest.approx(4.0, rel=0.03)

    def test_prior_weight_sets_the_blend(self):
        est = InterruptRateEstimator(prior_rate_per_h=1.0,
                                     prior_weight_h=10.0)
        # equal pseudo- and real evidence: the midpoint rate
        assert est.observe(10.0, 30) == pytest.approx(2.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            InterruptRateEstimator(prior_rate_per_h=-1.0)
        with pytest.raises(ConfigurationError):
            InterruptRateEstimator(prior_rate_per_h=1.0, prior_weight_h=0.0)
        with pytest.raises(ConfigurationError):
            InterruptRateEstimator(prior_rate_per_h=1.0).observe(-1.0, 0)


class TestAdaptiveCheckpointController:
    def controller(self, **kw) -> AdaptiveCheckpointController:
        kw.setdefault("delta_s", 60.0)
        kw.setdefault("prior_mtti_s", 8 * 3600.0)
        return AdaptiveCheckpointController(**kw)

    def test_starts_at_the_modeled_daly_optimum(self):
        ctl = self.controller()
        assert ctl.interval_s == pytest.approx(
            daly_optimal_interval(60.0, 8 * 3600.0))
        assert ctl.interval_s == pytest.approx(ctl.prior_interval_s)

    def test_converges_to_the_measured_optimum(self):
        # modeled MTTI 8 h, measured 2 h (4x mismatch): the steady-state
        # interval must land on the Daly optimum at the *measured* MTTI.
        ctl = self.controller()
        for hours in range(100, 2100, 100):
            ctl.update(float(hours), hours // 2)
        assert ctl.interval_s == pytest.approx(
            daly_optimal_interval(60.0, 2 * 3600.0), rel=0.10)
        assert ctl.moves >= 1

    def test_matching_evidence_does_not_move_the_interval(self):
        ctl = self.controller(prior_mtti_s=4 * 3600.0)
        start = ctl.interval_s
        for hours in range(100, 1100, 100):
            ctl.update(float(hours), hours // 4)
        assert ctl.interval_s == start
        assert ctl.moves == 0

    def test_deadband_suppresses_small_moves(self):
        ctl = self.controller(deadband=0.5)
        # 2x rate mismatch moves the optimum by ~sqrt(2) < the deadband
        for hours in range(100, 1100, 100):
            ctl.update(float(hours), hours // 4)
        assert ctl.moves == 0
        assert ctl.updates == 10

    def test_clamp_bounds_a_runaway_estimate(self):
        ctl = self.controller(clamp=2.0)
        ctl.update(1000.0, 10_000_000)    # absurd measured rate
        assert ctl.interval_s == pytest.approx(ctl.prior_interval_s / 2.0)

    def test_zero_rate_evidence_keeps_the_current_interval(self):
        ctl = AdaptiveCheckpointController(delta_s=60.0, prior_mtti_s=3600.0,
                                           prior_weight_h=24.0)
        est = InterruptRateEstimator(prior_rate_per_h=0.0)
        assert est.observe(100.0, 0) == 0.0
        ctl._estimator = est
        start = ctl.interval_s
        assert ctl.update(100.0, 0) == start

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            self.controller(delta_s=0.0)
        with pytest.raises(ConfigurationError):
            self.controller(prior_mtti_s=-1.0)
        with pytest.raises(ConfigurationError):
            self.controller(deadband=1.0)
        with pytest.raises(ConfigurationError):
            self.controller(clamp=0.5)


class TestSparePool:
    def pool_on(self, n_nodes: int, target: int):
        sched = SlurmScheduler(n_nodes=n_nodes, nodes_per_group=8)
        return sched, SparePool.reserve(sched, target)

    def test_reserve_spreads_over_groups(self):
        # 4 groups of 8: a 4-spare pool takes one node per group
        sched, pool = self.pool_on(32, 4)
        assert pool.size == 4
        assert len({n // 8 for n in sched.spare_nodes}) == 4

    def test_reserve_takes_the_top_of_each_group(self):
        sched, _ = self.pool_on(32, 4)
        assert sched.spare_nodes == {7, 15, 23, 31}

    def test_pack_prefers_the_job_heavy_group(self):
        _, pool = self.pool_on(32, 4)
        # job lives in group 0: pack picks group 0's spare (node 7)
        assert pool.take(range(0, 7), policy="pack") == 7

    def test_spread_prefers_the_emptiest_group(self):
        _, pool = self.pool_on(32, 4)
        assert pool.take(range(0, 7), policy="spread") == 15

    def test_any_takes_the_lowest_id(self):
        _, pool = self.pool_on(32, 4)
        assert pool.take(range(0, 7), policy="any") == 7

    def test_exclude_skips_dying_spares(self):
        _, pool = self.pool_on(32, 4)
        assert pool.take(range(0, 7), policy="pack", exclude=(7,)) == 15

    def test_dry_pool_returns_none(self):
        _, pool = self.pool_on(32, 1)
        assert pool.take([0]) is not None
        assert pool.take([0]) is None

    def test_take_removes_the_chosen_node(self):
        _, pool = self.pool_on(32, 2)
        first = pool.take([0])
        assert not pool.holds(first)
        assert pool.size == 1

    def test_negative_target_rejected(self):
        # the [:target] slice once reserved all idle nodes but one
        sched = SlurmScheduler(n_nodes=32, nodes_per_group=8)
        with pytest.raises(ConfigurationError, match="target"):
            SparePool.reserve(sched, -1)
        assert sched.spare_nodes == set()

    def test_target_beyond_the_idle_nodes_rejected(self):
        # an oversize target once reserved fewer nodes without a word
        sched = SlurmScheduler(n_nodes=32, nodes_per_group=8)
        sched.drain(0)
        with pytest.raises(ConfigurationError, match="target"):
            SparePool.reserve(sched, 32)
        assert sched.spare_nodes == set()
        assert SparePool.reserve(sched, 31).size == 31

    def test_unknown_take_policy_rejected(self):
        # "packed" once fell through to spread
        _, pool = self.pool_on(32, 4)
        with pytest.raises(ConfigurationError, match="packed"):
            pool.take(range(0, 7), policy="packed")
        assert pool.size == 4

    def test_reserved_nodes_cannot_be_resumed_as_repairs(self):
        sched, _ = self.pool_on(32, 2)
        with pytest.raises(SchedulerError):
            sched.resume(next(iter(sched.spare_nodes)))


class TestResiliencePolicySpec:
    def test_defaults_are_off(self):
        policy = ResiliencePolicySpec()
        assert policy.is_default
        assert policy.spare_fraction == 0.0
        assert not policy.adaptive_checkpointing
        assert policy.replace_policy == "pack"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicySpec(spare_fraction=0.75)
        with pytest.raises(ConfigurationError):
            ResiliencePolicySpec(spare_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicySpec(replace_policy="nearest")

    def test_default_policy_serializes_to_nothing(self):
        """Adding the knobs must not invalidate pre-existing artifacts."""
        assert "resilience" not in frontier_spec().to_dict()
        assert task_hash(frontier_spec(), "mpigraph", 0) == \
            "a64fb20331f0b191"

    def test_default_config_serializes_to_nothing(self):
        assert "adaptive_prior_scale" not in ChaosConfig().to_dict()
        assert "adaptive_prior_scale" in ChaosConfig(
            adaptive_prior_scale=4.0).to_dict()

    def test_policy_round_trips_through_json(self):
        spec = heal_validation_spec(spare_fraction=0.125,
                                    adaptive_checkpointing=True,
                                    replace_policy="spread")
        back = MachineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.resilience.spare_fraction == 0.125
        assert back.resilience.adaptive_checkpointing
        assert back.resilience.replace_policy == "spread"

    def test_policy_changes_the_run_id(self):
        config = validation_config()
        base = chaos_run_id(validation_spec(), config)
        healed = chaos_run_id(heal_validation_spec(spare_fraction=0.125),
                              config)
        assert base != healed

    def test_prior_scale_rejected_when_not_positive(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(adaptive_prior_scale=0.0)


class TestPolicyArm:
    """run_chaos with a non-default policy: two arms, one timeline."""

    SPEC = heal_validation_spec(failure_scale=200.0, spare_fraction=0.125,
                                adaptive_checkpointing=True)
    CONFIG = validation_config(horizon_h=100.0,
                               job_fractions=(0.25, 0.25, 0.5))

    def test_heal_report_attached(self):
        result = run_chaos(self.SPEC, self.CONFIG)
        assert result.heal is not None
        assert result.heal.spare_target == 4
        assert result.heal.adaptive
        assert result.heal.replacements > 0

    def test_default_policy_has_no_heal_report(self):
        result = run_chaos(validation_spec(failure_scale=200.0),
                           validation_config(horizon_h=100.0))
        assert result.heal is None
        assert "heal" not in result.to_doc()

    def test_deterministic_and_json_clean(self):
        first = run_chaos(self.SPEC, self.CONFIG)
        second = run_chaos(self.SPEC, self.CONFIG)
        assert first.to_doc() == second.to_doc()
        doc = json.loads(json.dumps(first.to_doc()))
        assert doc["heal"]["spare_target"] == 4

    def test_spares_shrink_the_job_sizes(self):
        """Jobs size to usable capacity: the pool is real held-back
        capacity, not free availability."""
        healed = run_chaos(self.SPEC, self.CONFIG)
        unhealed = run_chaos(
            replace(self.SPEC, resilience=ResiliencePolicySpec()),
            self.CONFIG)
        assert [j.n_nodes for j in healed.jobs] == [7, 7, 14]
        assert [j.n_nodes for j in unhealed.jobs] == [8, 8, 16]

    def test_explicit_rng_drives_both_arms_identically(self):
        import numpy as np
        a = run_chaos(self.SPEC, self.CONFIG, rng=np.random.default_rng(7))
        b = run_chaos(self.SPEC, self.CONFIG, rng=np.random.default_rng(7))
        assert a.to_doc() == b.to_doc()


class TestHealGate:
    """The ISSUE's acceptance criteria, asserted as written."""

    def test_enough_events_for_statistics(self, report):
        assert report.enough_events
        assert report.interrupts >= 200

    def test_adaptive_interval_converges_to_daly(self, report):
        """Measured == modeled: steady state within ±10% of the analytic
        ``CheckpointPlan.daly_interval_s``."""
        for i, ratio in enumerate(report.interval_ratios):
            assert abs(ratio - 1.0) <= 0.10, (
                f"job{i}: adaptive/analytic interval ratio {ratio:.4f}")
        assert report.intervals_converged

    def test_adaptive_beats_fixed_under_mismatch(self, report):
        """Prior off by 4x: measured efficiency must beat fixed-analytic."""
        assert report.adaptive_efficiency > report.fixed_efficiency

    def test_healing_strictly_improves_availability(self, report):
        assert report.replacements > 0
        assert report.healed_availability > report.baseline_availability

    def test_gate_passes(self, report):
        assert report.passed

    def test_doc_round_trips_through_json(self, report):
        doc = json.loads(json.dumps(report.to_doc()))
        assert doc["passed"] is True
        assert doc["interrupts"] == report.interrupts
