"""Grid expansion: determinism, dedup, hashing, axis semantics."""

from __future__ import annotations

import pytest

from repro.core.scenario import frontier_spec
from repro.errors import ConfigurationError
from repro.fabric.topology import LinkKind
from repro.sweep.plan import (AXES, SweepPlan, SweepTask, apply_axes,
                              derive_seed, scaled_fraction, task_hash)

BASE = frontier_spec()
AXES_6 = {"scale": (0.1,), "disabled_links": (0, 4, 8),
          "routing": ("minimal", "ugal")}


class TestAxes:
    def test_scale_identity_at_one(self):
        assert apply_axes(BASE, {"scale": 1.0}) == BASE

    def test_scale_shrinks_every_dimension(self):
        spec = apply_axes(BASE, {"scale": 0.1})
        assert spec.fabric.groups == 7
        assert spec.fabric.switches_per_group == 3
        assert spec.fabric.endpoints_per_switch == 2
        assert spec.node_count == spec.fabric_config().total_endpoints // 4

    def test_scale_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_fraction(BASE, 0.0)
        with pytest.raises(ConfigurationError):
            scaled_fraction(BASE, 1.5)

    def test_routing_validates_at_plan_time(self):
        assert apply_axes(BASE, {"routing": "minimal"}).routing == "minimal"
        with pytest.raises(ConfigurationError):
            apply_axes(BASE, {"routing": "teleport"})

    def test_disabled_links_picks_global_links_only(self):
        from repro.fabric.dragonfly import build_dragonfly
        spec = apply_axes(BASE, {"scale": 0.1, "disabled_links": 4})
        topo = build_dragonfly(spec.fabric_config())
        assert len(spec.degradation.failed_links) == 4
        for index in spec.degradation.failed_links:
            assert topo.link(index).kind is LinkKind.L2

    def test_disabled_links_spread_across_the_fabric(self):
        spec = apply_axes(BASE, {"scale": 0.1, "disabled_links": 4})
        a, b, c, d = spec.degradation.failed_links
        assert b - a > 1 and c - b > 1 and d - c > 1   # not clustered

    def test_too_many_disabled_links_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_axes(BASE, {"scale": 0.1, "disabled_links": 10_000})

    def test_disabled_nodes_drains_prefix(self):
        spec = apply_axes(BASE, {"disabled_nodes": 3})
        assert spec.degradation.failed_nodes == (0, 1, 2)
        assert spec.healthy_node_count == BASE.node_count - 3

    def test_scale_applies_before_degradation(self):
        """Declared order must not matter: scaling resets degradation, so
        the expander applies scale first no matter how axes were written."""
        spec = apply_axes(BASE, {"disabled_links": 2, "scale": 0.1})
        assert len(spec.degradation.failed_links) == 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axes"):
            apply_axes(BASE, {"warp": 9})

    def test_axis_registry_application_order(self):
        # machine_family replaces the spec wholesale, so it must land
        # before everything; scale resets degradation, so it goes next.
        assert list(AXES)[:2] == ["machine_family", "scale"]

    def test_failure_scale_axis_sets_the_chaos_knob(self):
        spec = apply_axes(BASE, {"failure_scale": 300})
        assert spec.degradation.failure_scale == 300.0
        with pytest.raises(ConfigurationError):
            apply_axes(BASE, {"failure_scale": 0.0})

    def test_failure_scale_survives_rescaling(self):
        spec = apply_axes(BASE, {"scale": 0.1, "failure_scale": 300})
        assert spec.degradation.failure_scale == 300.0

    def test_checkpoint_policy_axis_names_a_policy(self):
        spec = apply_axes(BASE, {"checkpoint_policy": "young"})
        assert spec.degradation.checkpoint_policy == "young"
        assert spec.degradation.checkpoint_interval_s is None
        with pytest.raises(ConfigurationError):
            apply_axes(BASE, {"checkpoint_policy": "hourly"})

    def test_numeric_checkpoint_policy_means_fixed_interval(self):
        spec = apply_axes(BASE, {"checkpoint_policy": 900})
        assert spec.degradation.checkpoint_policy == "fixed"
        assert spec.degradation.checkpoint_interval_s == 900.0

    def test_ecn_k_axis_sets_threshold_and_zero_means_fifo(self):
        spec = apply_axes(BASE, {"ecn_k": 60})
        assert spec.congestion.ecn and spec.congestion.ecn_k == 60
        fifo = apply_axes(BASE, {"ecn_k": 0})
        assert not fifo.congestion.ecn
        with pytest.raises(ConfigurationError):
            apply_axes(BASE, {"ecn_k": -1})

    def test_burst_duty_axis(self):
        spec = apply_axes(BASE, {"burst_duty": 0.3})
        assert spec.congestion.burst_duty == 0.3
        with pytest.raises(ConfigurationError):
            apply_axes(BASE, {"burst_duty": 0.0})

    def test_incast_fanin_axis(self):
        spec = apply_axes(BASE, {"incast_fanin": 16})
        assert spec.congestion.incast_fanin == 16

    def test_congestion_axes_survive_rescaling(self):
        spec = apply_axes(BASE, {"scale": 0.1, "ecn_k": 10,
                                 "burst_duty": 0.5})
        assert spec.congestion.ecn_k == 10
        assert spec.congestion.burst_duty == 0.5


class TestTaskIdentity:
    def test_hash_is_content_addressed(self):
        a = task_hash(BASE, "mpigraph", 1)
        assert a == task_hash(frontier_spec(), "mpigraph", 1)
        assert a != task_hash(BASE, "mpigraph", 2)
        assert a != task_hash(BASE, "comm", 1)
        assert a != task_hash(BASE.scaled(8, 4, 4), "mpigraph", 1)

    def test_derived_seed_ignores_grid_position(self):
        small = SweepPlan.grid(BASE, {"scale": (0.1,)}, seed=7)
        big = SweepPlan.grid(BASE, {"scale": (0.2, 0.1)}, seed=7)
        by_id_small = {t.task_id: t for t in small.tasks}
        by_id_big = {t.task_id: t for t in big.tasks}
        shared = set(by_id_small) & set(by_id_big)
        assert shared
        for tid in shared:
            assert by_id_small[tid].seed == by_id_big[tid].seed

    def test_derived_seed_changes_with_sweep_seed(self):
        assert derive_seed(BASE, "mpigraph", 0) != \
            derive_seed(BASE, "mpigraph", 1)

    def test_task_id_serializes_the_spec_once(self, monkeypatch):
        from repro.core.scenario import MachineSpec
        task = SweepTask(spec=BASE.scaled(8, 4, 4), probe="mpigraph", seed=3)
        calls = []
        to_dict = MachineSpec.to_dict

        def counting(spec):
            calls.append(spec)
            return to_dict(spec)

        monkeypatch.setattr(MachineSpec, "to_dict", counting)
        ids = {task.task_id for _ in range(6)}
        assert ids == {task_hash(task.spec, "mpigraph", 3)}
        # task_hash above serialized once more; task_id only the first time
        assert len(calls) == 2
        # the cached id is not a field: equality and hashing ignore it
        twin = SweepTask(spec=BASE.scaled(8, 4, 4), probe="mpigraph", seed=3)
        assert twin == task and hash(twin) == hash(task)


class TestGrid:
    def test_expansion_size_and_determinism(self):
        a = SweepPlan.grid(BASE, AXES_6, probes=("mpigraph",), seed=7)
        b = SweepPlan.grid(BASE, AXES_6, probes=("mpigraph",), seed=7)
        assert len(a) == 6
        assert a.task_ids() == b.task_ids()
        assert a == b

    def test_identical_points_dedupe(self):
        plan = SweepPlan.grid(BASE, {"scale": (1.0, 1.0)})
        assert len(plan) == 1

    def test_probes_multiply_the_grid(self):
        plan = SweepPlan.grid(BASE, {"scale": (0.1,)},
                              probes=("mpigraph", "comm"))
        assert len(plan) == 2
        assert {t.probe for t in plan.tasks} == {"mpigraph", "comm"}

    def test_axes_recorded_on_tasks(self):
        plan = SweepPlan.grid(BASE, AXES_6)
        assert dict(plan.tasks[0].axes) == {
            "scale": 0.1, "disabled_links": 0, "routing": "minimal"}

    def test_unknown_probe_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep probes"):
            SweepPlan.grid(BASE, {}, probes=("frobnicate",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPlan.grid(BASE, {"scale": ()})

    def test_no_probes_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPlan.grid(BASE, {}, probes=())

    def test_tasks_are_picklable(self):
        import pickle
        task = SweepPlan.grid(BASE, AXES_6).tasks[0]
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task
        assert clone.task_id == task.task_id


class TestSpecDir:
    def test_directory_of_specs_expands_sorted(self, tmp_path):
        small = BASE.scaled(8, 4, 4)
        smaller = BASE.scaled(6, 4, 4)
        small.save(str(tmp_path / "b_small.json"))
        smaller.save(str(tmp_path / "a_smaller.json"))
        (tmp_path / "notes.txt").write_text("ignored")
        plan = SweepPlan.from_spec_dir(str(tmp_path), probes=("comm",))
        assert len(plan) == 2
        assert plan.tasks[0].spec == smaller       # sorted by filename
        assert plan.tasks[0].axes == (("spec_file", "a_smaller.json"),)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no .*json"):
            SweepPlan.from_spec_dir(str(tmp_path))


class TestTaskDocument:
    def test_to_dict_carries_identity_and_provenance(self):
        task = SweepTask(spec=BASE.scaled(8, 4, 4), probe="comm", seed=9,
                         axes=(("scale", 0.1),))
        doc = task.to_dict()
        assert doc["id"] == task.task_id
        assert doc["probe"] == "comm"
        assert doc["seed"] == 9
        assert doc["axes"] == {"scale": 0.1}
        assert doc["spec"] == task.spec.to_dict()
