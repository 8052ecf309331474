"""Sweep execution: artifacts, resume, retries, timeouts, metrics merge.

Pool tests go through real worker processes (fork is cheap on Linux);
fault injection uses the ``failing``/``flaky``/``sleepy`` probes from
:mod:`repro.sweep.probes` because monkeypatching does not survive the
process boundary.
"""

from __future__ import annotations

import json
import os

from concurrent.futures import ProcessPoolExecutor

from repro.core.scenario import frontier_spec
from repro.sweep import (ExecPolicy, SweepConfig, SweepPlan, backoff_delay,
                         execute_task, execute_tasks, results_table,
                         run_sweep)
from repro.sweep.artifacts import SWEEP_LEDGER

SMALL = frontier_spec().scaled(6, 4, 4)


def storage_plan(n_tasks: int = 3) -> SweepPlan:
    """A plan of fast, pure-accounting tasks (no fabric simulation)."""
    return SweepPlan.grid(SMALL,
                          {"disabled_nodes": tuple(range(n_tasks))},
                          probes=("storage",))


def inline(out_dir, **kw) -> SweepConfig:
    kw.setdefault("workers", 0)
    kw.setdefault("backoff_s", 0.0)
    return SweepConfig(out_dir=str(out_dir), **kw)


class TestExecuteTask:
    def test_ok_document(self):
        task = storage_plan(1).tasks[0]
        doc = execute_task(task, isolate_obs=False)
        assert doc["status"] == "ok"
        assert doc["task"]["id"] == task.task_id
        assert doc["values"] and all(
            isinstance(v, float) for v in doc["values"].values())
        assert doc["timing"]["attempts"] == 1
        assert doc["metrics"] == {}   # inline: parent registry untouched

    def test_error_document_is_structured(self):
        task = SweepPlan.grid(SMALL, {}, probes=("failing",)).tasks[0]
        doc = execute_task(task, attempt=2, isolate_obs=False)
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "RuntimeError"
        assert "injected sweep failure" in doc["error"]["message"]
        assert "probe_failing" in doc["error"]["traceback"]
        assert doc["timing"]["attempts"] == 2

    def test_never_raises_and_is_json_safe(self):
        task = SweepPlan.grid(SMALL, {}, probes=("failing",)).tasks[0]
        json.dumps(execute_task(task, isolate_obs=False))


class TestInlineSweep:
    def test_one_artifact_per_task(self, tmp_path):
        plan = storage_plan(3)
        summary = run_sweep(plan, inline(tmp_path))
        assert summary.planned == summary.run == 3
        assert summary.skipped == summary.failed == 0
        assert sorted(summary.artifacts) == sorted(plan.task_ids())
        for tid in plan.task_ids():
            assert os.path.exists(SWEEP_LEDGER.path(str(tmp_path), tid))
        assert all(d["status"] == "ok" for d in summary.artifacts.values())

    def test_resume_skips_completed(self, tmp_path):
        plan = storage_plan(3)
        run_sweep(plan, inline(tmp_path))
        again = run_sweep(plan, inline(tmp_path))
        assert again.skipped == 3
        assert again.run == 0
        # resumed artifacts still feed the summary/report
        assert sorted(again.artifacts) == sorted(plan.task_ids())

    def test_fresh_reruns_completed(self, tmp_path):
        plan = storage_plan(2)
        run_sweep(plan, inline(tmp_path))
        again = run_sweep(plan, inline(tmp_path, resume=False))
        assert again.run == 2
        assert again.skipped == 0

    def test_partial_resume_runs_only_the_gap(self, tmp_path):
        plan = storage_plan(3)
        run_sweep(SweepPlan(tasks=plan.tasks[:1]), inline(tmp_path))
        summary = run_sweep(plan, inline(tmp_path))
        assert summary.skipped == 1
        assert summary.run == 2

    def test_error_artifacts_are_retried_on_resume(self, tmp_path):
        plan = SweepPlan.grid(SMALL, {}, probes=("failing",))
        first = run_sweep(plan, inline(tmp_path, retries=0))
        assert first.failed == 1
        again = run_sweep(plan, inline(tmp_path, retries=0))
        assert again.skipped == 0   # an error artifact is not "completed"
        assert again.run == 1

    def test_two_fresh_runs_identical_modulo_timing(self, tmp_path):
        plan = storage_plan(2)
        a = run_sweep(plan, inline(tmp_path / "a"))
        b = run_sweep(plan, inline(tmp_path / "b"))

        def stripped(summary):
            return {tid: {k: v for k, v in doc.items() if k != "timing"}
                    for tid, doc in summary.artifacts.items()}

        assert stripped(a) == stripped(b)

    def test_failure_does_not_abort_the_sweep(self, tmp_path):
        plan = SweepPlan.grid(SMALL, {}, probes=("failing", "storage"))
        summary = run_sweep(plan, inline(tmp_path, retries=1))
        assert summary.run == 2
        assert summary.failed == 1
        assert summary.retried == 1   # the failing task burned its retry
        by_probe = {d["task"]["probe"]: d for d in summary.artifacts.values()}
        assert by_probe["storage"]["status"] == "ok"
        assert by_probe["failing"]["status"] == "error"
        assert by_probe["failing"]["timing"]["attempts"] == 2

    def test_flaky_task_recovers_on_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_FLAKY_DIR", str(tmp_path))
        plan = SweepPlan.grid(SMALL, {}, probes=("flaky",))
        summary = run_sweep(plan, inline(tmp_path / "out", retries=1))
        assert summary.failed == 0
        assert summary.retried == 1
        doc = next(iter(summary.artifacts.values()))
        assert doc["status"] == "ok"
        assert doc["values"]["recovered"] == 1.0
        assert doc["timing"]["attempts"] == 2

    def test_progress_callback_sees_every_task(self, tmp_path):
        lines: list[str] = []
        run_sweep(storage_plan(2), inline(tmp_path), progress=lines.append)
        assert sum(1 for line in lines if line.startswith("done ")) == 2


class TestPoolSweep:
    def test_workers_produce_artifacts_and_merged_metrics(self, tmp_path):
        plan = SweepPlan.grid(frontier_spec(),
                              {"scale": (0.1,),
                               "routing": ("minimal", "ugal")},
                              probes=("mpigraph",))
        config = SweepConfig(out_dir=str(tmp_path), workers=2, backoff_s=0.0)
        summary = run_sweep(plan, config)
        assert summary.run == 2
        assert summary.failed == 0
        for doc in summary.artifacts.values():
            assert doc["status"] == "ok"
            assert doc["values"]["min_gbs"] > 0
            assert doc["metrics"]   # worker-isolated registry snapshot
        # the per-worker snapshots were folded into one registry
        assert summary.metrics.names()

    def test_pool_resume_round_trip(self, tmp_path):
        plan = storage_plan(3)
        config = SweepConfig(out_dir=str(tmp_path), workers=2, backoff_s=0.0)
        first = run_sweep(plan, config)
        assert first.run == 3
        again = run_sweep(plan, config)
        assert again.skipped == 3
        assert again.run == 0

    def test_pool_failure_is_retried_then_recorded(self, tmp_path):
        plan = SweepPlan.grid(SMALL, {}, probes=("failing", "storage"))
        config = SweepConfig(out_dir=str(tmp_path), workers=2, retries=1,
                             backoff_s=0.0)
        summary = run_sweep(plan, config)
        assert summary.run == 2
        assert summary.failed == 1
        assert summary.retried == 1
        by_probe = {d["task"]["probe"]: d for d in summary.artifacts.values()}
        assert by_probe["failing"]["status"] == "error"
        assert by_probe["failing"]["error"]["type"] == "RuntimeError"
        assert by_probe["storage"]["status"] == "ok"

    def test_timeout_abandons_the_task(self, tmp_path, monkeypatch):
        # Keep the sleep short: abandoned workers are still joined when
        # the interpreter exits.
        monkeypatch.setenv("REPRO_SWEEP_SLEEP_S", "1.2")
        plan = SweepPlan.grid(SMALL, {}, probes=("sleepy",))
        config = SweepConfig(out_dir=str(tmp_path), workers=1,
                             timeout_s=0.25, retries=0, backoff_s=0.0)
        summary = run_sweep(plan, config)
        assert summary.timed_out == 1
        assert summary.failed == 1
        doc = next(iter(summary.artifacts.values()))
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "TimeoutError"
        assert "--timeout" in doc["error"]["message"]


class TestExecuteTasks:
    """The reusable pool/timeout/retry core shared with repro.serve."""

    def test_serial_delivers_one_result_per_task(self):
        tasks = storage_plan(3).tasks
        docs: list[dict] = []
        execute_tasks(tasks, ExecPolicy(workers=0), on_result=docs.append)
        assert sorted(d["task"]["id"] for d in docs) == \
            sorted(t.task_id for t in tasks)
        assert all(d["status"] == "ok" for d in docs)

    def test_serial_retry_callbacks_fire(self):
        tasks = SweepPlan.grid(SMALL, {}, probes=("failing",)).tasks
        docs: list[dict] = []
        retries: list[tuple[str, str]] = []
        execute_tasks(tasks, ExecPolicy(workers=0, retries=2, backoff_s=0.0),
                      on_result=docs.append,
                      on_retry=lambda t, reason: retries.append(
                          (t.task_id, reason)))
        assert len(docs) == 1
        assert docs[0]["status"] == "error"
        assert docs[0]["timing"]["attempts"] == 3
        assert retries == [(tasks[0].task_id, "RuntimeError")] * 2

    def test_callbacks_default_to_noops(self):
        tasks = SweepPlan.grid(SMALL, {}, probes=("failing",)).tasks
        docs: list[dict] = []
        execute_tasks(tasks, ExecPolicy(workers=0, retries=1, backoff_s=0.0),
                      on_result=docs.append)
        assert docs[0]["status"] == "error"

    def test_external_executor_is_reused_not_shut_down(self):
        """The scenario service's warm pool: many execute_tasks calls
        through one caller-owned executor, which stays usable after."""
        tasks = storage_plan(2).tasks
        with ProcessPoolExecutor(max_workers=2) as pool:
            for _ in range(2):
                docs: list[dict] = []
                execute_tasks(tasks, ExecPolicy(workers=2, backoff_s=0.0),
                              on_result=docs.append, executor=pool)
                assert len(docs) == 2
                assert all(d["status"] == "ok" for d in docs)
            # still alive: a direct submit round-trips
            assert pool.submit(int, "7").result() == 7

    def test_pool_timeout_fires_on_timeout_callback(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_SLEEP_S", "1.2")
        tasks = SweepPlan.grid(SMALL, {}, probes=("sleepy",)).tasks
        docs: list[dict] = []
        timed_out: list[str] = []
        execute_tasks(tasks,
                      ExecPolicy(workers=1, timeout_s=0.25, retries=0,
                                 backoff_s=0.0),
                      on_result=docs.append,
                      on_timeout=lambda t: timed_out.append(t.task_id))
        assert timed_out == [tasks[0].task_id]
        assert docs[0]["status"] == "error"
        assert docs[0]["error"]["type"] == "TimeoutError"


class TestBackoffJitter:
    """Decorrelated retry jitter: deterministic, bounded, off when off."""

    POLICY = ExecPolicy(backoff_s=0.1, backoff_cap_s=2.0)
    TASK = storage_plan(1).tasks[0]

    def test_zero_backoff_stays_zero(self):
        policy = ExecPolicy(backoff_s=0.0)
        assert backoff_delay(policy, self.TASK, 1, 0.0) == 0.0
        assert backoff_delay(policy, self.TASK, 5, 100.0) == 0.0

    def test_delay_is_deterministic_per_task_and_attempt(self):
        a = backoff_delay(self.POLICY, self.TASK, 1, 0.1)
        b = backoff_delay(self.POLICY, self.TASK, 1, 0.1)
        assert a == b

    def test_different_tasks_decorrelate(self):
        """A herd of tasks retrying at once must not sleep in lockstep."""
        tasks = storage_plan(8).tasks
        delays = {backoff_delay(self.POLICY, t, 1, 0.1) for t in tasks}
        assert len(delays) > 1

    def test_attempts_draw_fresh_jitter(self):
        delays = {backoff_delay(self.POLICY, self.TASK, a, 0.1)
                  for a in range(1, 6)}
        assert len(delays) > 1

    def test_delay_bounded_by_base_and_cap(self):
        prev = self.POLICY.backoff_s
        for attempt in range(1, 20):
            prev = backoff_delay(self.POLICY, self.TASK, attempt, prev)
            assert self.POLICY.backoff_s <= prev <= self.POLICY.backoff_cap_s

    def test_window_grows_toward_the_cap(self):
        """With prev at the cap, the draw spans [base, cap] — not 3x prev."""
        delay = backoff_delay(self.POLICY, self.TASK, 3, 100.0)
        assert self.POLICY.backoff_s <= delay <= self.POLICY.backoff_cap_s

    def test_sweep_config_threads_the_cap(self):
        config = SweepConfig(out_dir="x", backoff_s=0.2, backoff_cap_s=5.0)
        policy = config.policy()
        assert policy.backoff_s == 0.2
        assert policy.backoff_cap_s == 5.0


class TestReporting:
    def test_counts_line(self, tmp_path):
        summary = run_sweep(storage_plan(2), inline(tmp_path))
        assert summary.counts_line() == \
            "planned: 2 | run: 2 | skipped: 0 | retried: 0 | failed: 0"

    def test_results_table_axes_as_columns(self, tmp_path):
        plan = SweepPlan.grid(SMALL, {"disabled_nodes": (0, 2)},
                              probes=("storage", "failing"))
        summary = run_sweep(plan, inline(tmp_path, retries=0))
        rendered = results_table(summary.artifacts.values()).render()
        assert "disabled_nodes" in rendered
        assert "burst_time_s" in rendered
        assert "error" in rendered and "ok" in rendered
        # one row per artifact
        assert rendered.count("storage") == 2
        assert rendered.count("failing") == 2

    def test_ok_artifacts_filters_errors(self, tmp_path):
        plan = SweepPlan.grid(SMALL, {}, probes=("storage", "failing"))
        summary = run_sweep(plan, inline(tmp_path, retries=0))
        ok = summary.ok_artifacts()
        assert len(ok) == 1
        assert ok[0]["task"]["probe"] == "storage"


class TestSubmissionOrder:
    def test_same_fabric_tasks_land_consecutively(self):
        from repro.sweep.plan import SweepTask
        from repro.sweep.runner import _submission_order
        other = frontier_spec().scaled(4, 4, 4)
        tasks = []
        for seed in range(3):
            tasks.append(SweepTask(spec=SMALL, probe="storage", seed=seed))
            tasks.append(SweepTask(spec=other, probe="storage", seed=seed))
        ordered = _submission_order(tasks)
        fabrics = [repr(t.spec.fabric) for t in ordered]
        # interleaved input comes out grouped: one contiguous run per fabric
        changes = sum(1 for a, b in zip(fabrics, fabrics[1:]) if a != b)
        assert changes == 1
        assert sorted(t.task_id for t in ordered) == \
            sorted(t.task_id for t in tasks)

    def test_order_is_deterministic(self):
        from repro.sweep.plan import SweepTask
        from repro.sweep.runner import _submission_order
        tasks = [SweepTask(spec=SMALL, probe="storage", seed=s)
                 for s in range(5)]
        a = _submission_order(list(reversed(tasks)))
        b = _submission_order(tasks)
        assert [t.task_id for t in a] == [t.task_id for t in b]


class TestTopologyCacheLine:
    def test_no_samples_yields_none(self):
        from repro.sweep.runner import SweepSummary
        assert SweepSummary(planned=0).topology_cache_line() is None

    def test_merged_worker_hit_rate_rendered(self):
        from repro.sweep.runner import SweepSummary
        summary = SweepSummary(planned=0)
        summary.metrics.counter("fabric.topology_cache.hits").inc(3)
        summary.metrics.counter("fabric.topology_cache.misses").inc(1)
        line = summary.topology_cache_line()
        assert line == "topology cache: 3/4 hits (75%) across workers"

    def test_pool_sweep_surfaces_cache_hits(self, tmp_path):
        plan = storage_plan(4)
        summary = run_sweep(plan, inline(tmp_path, workers=2))
        line = summary.topology_cache_line()
        # 4 same-fabric tasks over 2 workers: every worker's first build
        # misses, the rest hit; the line must render either way.
        if line is not None:
            assert "topology cache:" in line and "across workers" in line
