"""Slurm scheduler tests: exclusivity, checknode gating, job lifecycle."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.scheduler.placement import PlacementPolicy
from repro.scheduler.slurm import JobRequest, JobState, SlurmScheduler
from repro.scheduler.slurm import NodeState


def scheduler(n: int = 256, checknode=None) -> SlurmScheduler:
    return SlurmScheduler(n_nodes=n, checknode=checknode)


def healthy_unless(sick: set[int]):
    """A batched checknode: every node outside ``sick`` (read live) passes."""
    return lambda nodes: ~np.isin(nodes, list(sick))


class TestExclusivity:
    def test_nodes_are_exclusive_to_one_job(self):
        # "Compute nodes are scheduled exclusively to a single job"
        s = scheduler(256)
        j1 = s.submit(JobRequest(200, 100.0))
        j2 = s.submit(JobRequest(100, 100.0))
        assert s.job(j1).state is JobState.RUNNING
        assert s.job(j2).state is JobState.PENDING
        assert not set(s.job(j1).nodes) & s.free_nodes

    def test_queued_job_starts_on_completion(self):
        s = scheduler(256)
        s.submit(JobRequest(200, 10.0))
        j2 = s.submit(JobRequest(100, 10.0))
        s.step()
        assert s.job(j2).state is JobState.RUNNING

    def test_backfill_small_job_jumps_queue(self):
        s = scheduler(256)
        s.submit(JobRequest(200, 100.0, name="big1"))
        j_big2 = s.submit(JobRequest(220, 100.0, name="big2"))  # blocks
        j_small = s.submit(JobRequest(40, 1.0, name="small"))
        assert s.job(j_big2).state is JobState.PENDING
        assert s.job(j_small).state is JobState.RUNNING


class TestChecknode:
    def test_unhealthy_nodes_drained_at_boot(self):
        s = scheduler(64, checknode=lambda nodes: nodes != 5)
        assert 5 in s.drained_nodes
        assert s.node_state(5) is NodeState.DRAIN

    def test_checknode_must_answer_per_node(self):
        # a checknode still written per node (one verdict for the whole
        # batch) is a caller bug, caught at boot
        with pytest.raises(SchedulerError):
            scheduler(16, checknode=lambda nodes: True)

    def test_checknode_runs_between_jobs(self):
        # "At boot and between every job, Slurm runs a checknode script"
        sick = set()
        s = scheduler(64, checknode=healthy_unless(sick))
        j = s.submit(JobRequest(8, 5.0))
        sick.add(s.job(j).nodes[0])    # node breaks during the job
        s.run_until_idle()
        assert s.job(j).state is JobState.COMPLETED
        assert s.job(j).nodes[0] in s.drained_nodes

    def test_drained_node_not_allocated(self):
        s = scheduler(16, checknode=lambda nodes: nodes != 0)
        j = s.submit(JobRequest(15, 1.0))
        assert 0 not in s.job(j).nodes

    def test_resume_reruns_checknode(self):
        sick = {3}
        s = scheduler(16, checknode=healthy_unless(sick))
        assert 3 in s.drained_nodes
        sick.clear()
        s.resume(3)
        assert 3 in s.free_nodes


class TestJobSteps:
    def test_steps_get_unique_vnis(self):
        # "Slurm integrates with the Slingshot software to allocate a
        # unique Virtual Network Identifier (VNI) per jobstep"
        s = scheduler(64)
        j1 = s.submit(JobRequest(8, 10.0))
        j2 = s.submit(JobRequest(8, 10.0))
        vnis = [s.start_step(j1), s.start_step(j1), s.start_step(j2)]
        assert len(set(vnis)) == 3

    def test_vnis_released_at_completion(self):
        s = scheduler(64)
        j = s.submit(JobRequest(8, 5.0))
        s.start_step(j)
        assert s.vni.live_count == 1
        s.run_until_idle()
        assert s.vni.live_count == 0

    def test_step_on_pending_job_rejected(self):
        s = scheduler(16)
        s.submit(JobRequest(16, 10.0))
        j2 = s.submit(JobRequest(16, 10.0))
        with pytest.raises(SchedulerError):
            s.start_step(j2)


class TestLifecycle:
    def test_time_advances_to_completions(self):
        s = scheduler(64)
        s.submit(JobRequest(8, 30.0))
        s.submit(JobRequest(8, 10.0))
        assert s.step() == 10.0
        assert s.step() == 30.0

    def test_cancel_pending(self):
        s = scheduler(16)
        s.submit(JobRequest(16, 10.0))
        j2 = s.submit(JobRequest(16, 10.0))
        s.cancel(j2)
        assert s.job(j2).state is JobState.CANCELLED

    def test_cancel_running_frees_nodes(self):
        s = scheduler(16)
        j = s.submit(JobRequest(16, 10.0))
        s.cancel(j)
        assert len(s.free_nodes) == 16

    def test_cancel_finished_rejected(self):
        s = scheduler(16)
        j = s.submit(JobRequest(4, 1.0))
        s.run_until_idle()
        with pytest.raises(SchedulerError):
            s.cancel(j)

    def test_oversized_job_rejected(self):
        s = scheduler(16)
        with pytest.raises(SchedulerError):
            s.submit(JobRequest(17, 1.0))

    def test_invalid_request(self):
        with pytest.raises(SchedulerError):
            JobRequest(0, 1.0)
        with pytest.raises(SchedulerError):
            JobRequest(1, 0.0)

    def test_placement_policy_respected(self):
        s = scheduler(512)
        j = s.submit(JobRequest(64, 10.0, policy=PlacementPolicy.SPREAD))
        from repro.scheduler.placement import allocation_stats
        assert allocation_stats(s.job(j).nodes).groups_spanned == 4

    def test_drain_allocated_node_rejected(self):
        s = scheduler(16)
        j = s.submit(JobRequest(16, 10.0))
        with pytest.raises(SchedulerError):
            s.drain(s.job(j).nodes[0])


class TestFailNode:
    """fail_node / resume: the chaos engine's interrupt-and-repair path."""

    def test_failing_an_allocated_node_interrupts_its_job(self):
        s = scheduler(16)
        j = s.submit(JobRequest(8, 100.0))
        victim = s.job(j).nodes[0]
        assert s.fail_node(victim) == j
        assert s.job(j).state is JobState.CANCELLED
        assert s.node_state(victim) is NodeState.DRAIN

    def test_failing_an_idle_node_just_drains_it(self):
        s = scheduler(16)
        assert s.fail_node(15) is None
        assert s.node_state(15) is NodeState.DRAIN

    def test_backfill_never_lands_on_the_dead_node(self):
        """The drain must happen before the cancel frees capacity."""
        s = scheduler(16)
        j1 = s.submit(JobRequest(16, 100.0))
        j2 = s.submit(JobRequest(16, 100.0))
        s.fail_node(0)
        assert s.job(j1).state is JobState.CANCELLED
        assert s.job(j2).state is JobState.PENDING   # only 15 nodes left
        j3 = s.submit(JobRequest(15, 100.0))
        assert s.job(j3).state is JobState.RUNNING
        assert 0 not in s.job(j3).nodes

    def test_surviving_nodes_regate_through_checknode(self):
        sick = set()
        s = scheduler(16, checknode=healthy_unless(sick))
        j = s.submit(JobRequest(8, 100.0))
        a, b = s.job(j).nodes[:2]
        sick.update({a, b})
        s.fail_node(a)
        # co-victim b was caught by the between-jobs checknode sweep
        assert s.node_state(b) is NodeState.DRAIN
        assert len(s.free_nodes) == 16 - 8 + 6

    def test_resume_restarts_the_queue(self):
        s = scheduler(16)
        s.fail_node(0)
        j = s.submit(JobRequest(16, 10.0))
        assert s.job(j).state is JobState.PENDING
        s.resume(0)
        assert s.job(j).state is JobState.RUNNING

    def test_resume_of_still_sick_node_stays_drained(self):
        sick = {0}
        s = scheduler(16, checknode=healthy_unless(sick))
        s.resume(0)
        assert s.node_state(0) is NodeState.DRAIN
        sick.clear()
        s.resume(0)
        assert 0 in s.free_nodes


class TestFailureIdempotence:
    """Overlapping blasts and racing repairs must not corrupt state."""

    def test_double_fail_is_a_no_op(self):
        s = scheduler(16)
        j = s.submit(JobRequest(8, 100.0))
        victim = s.job(j).nodes[0]
        assert s.fail_node(victim) == j
        # second blast hits the same (now drained) node: nothing happens
        assert s.fail_node(victim) is None
        assert s.node_state(victim) is NodeState.DRAIN
        assert s.job(j).state is JobState.CANCELLED

    def test_fail_while_drained_does_not_cancel_the_new_owner(self):
        """A node drained between jobs must not take down its ex-job."""
        s = scheduler(16)
        s.fail_node(0)
        j = s.submit(JobRequest(15, 100.0))
        assert s.fail_node(0) is None
        assert s.job(j).state is JobState.RUNNING

    def test_resume_of_never_failed_node_is_a_no_op(self):
        s = scheduler(16)
        s.resume(5)           # idle, never drained: idempotent no-op
        assert 5 in s.free_nodes
        j = s.submit(JobRequest(4, 100.0))
        assert s.job(j).state is JobState.RUNNING

    def test_resume_of_allocated_node_is_a_caller_bug(self):
        s = scheduler(16)
        j = s.submit(JobRequest(8, 100.0))
        with pytest.raises(SchedulerError):
            s.resume(s.job(j).nodes[0])

    def test_resume_of_reserved_node_is_a_caller_bug(self):
        s = scheduler(16)
        s.reserve_spare(15)
        with pytest.raises(SchedulerError):
            s.resume(15)

    def test_overlapping_blast_radius_counts_each_node_once(self):
        s = scheduler(16)
        j = s.submit(JobRequest(8, 100.0))
        a, b = s.job(j).nodes[:2]
        # one event kills both; a replayed/overlapping event re-hits them
        assert s.fail_node(a) == j
        assert s.fail_node(b) is None    # job already cancelled
        assert s.fail_node(a) is None
        assert s.node_state(a) is NodeState.DRAIN
        assert s.node_state(b) is NodeState.DRAIN


class TestSparePool:
    """The heal layer's scheduler face: reserve / replace / replenish."""

    def test_reserve_takes_the_node_out_of_placement(self):
        s = scheduler(16)
        s.reserve_spare(15)
        assert s.spare_nodes == {15}
        j = s.submit(JobRequest(15, 100.0))
        assert s.job(j).state is JobState.RUNNING
        assert 15 not in s.job(j).nodes

    def test_reserve_of_non_idle_node_rejected(self):
        s = scheduler(16)
        j = s.submit(JobRequest(8, 100.0))
        with pytest.raises(SchedulerError):
            s.reserve_spare(s.job(j).nodes[0])
        s.drain(15)
        with pytest.raises(SchedulerError):
            s.reserve_spare(15)

    def test_release_returns_the_spare_through_checknode(self):
        sick = set()
        s = scheduler(16, checknode=healthy_unless(sick))
        s.reserve_spare(15)
        s.reserve_spare(14)
        sick.add(14)
        s.release_spare(15)
        s.release_spare(14)
        assert 15 in s.free_nodes
        assert s.node_state(14) is NodeState.DRAIN

    def test_replace_node_swaps_the_spare_into_the_job(self):
        s = scheduler(16)
        s.reserve_spare(15)
        j = s.submit(JobRequest(8, 100.0))
        dead = s.job(j).nodes[0]
        assert s.replace_node(dead, 15) == j
        # the job never left RUNNING; the dead node drained
        assert s.job(j).state is JobState.RUNNING
        assert 15 in s.job(j).nodes
        assert dead not in s.job(j).nodes
        assert s.node_state(dead) is NodeState.DRAIN
        assert s.node_state(15) is NodeState.ALLOCATED

    def test_replace_requires_a_reserved_spare_and_a_running_job(self):
        s = scheduler(16)
        j = s.submit(JobRequest(8, 100.0))
        dead = s.job(j).nodes[0]
        with pytest.raises(SchedulerError):
            s.replace_node(dead, 15)     # 15 is idle, not reserved
        s.reserve_spare(15)
        idle = next(iter(s.free_nodes))
        with pytest.raises(SchedulerError):
            s.replace_node(idle, 15)     # no running job on the victim

    def test_resume_to_spare_replenishes_without_placement(self):
        s = scheduler(16)
        s.fail_node(15)
        j = s.submit(JobRequest(16, 100.0))
        assert s.job(j).state is JobState.PENDING
        assert s.resume_to_spare(15) is True
        # the repaired node went to the pool, NOT to the pending job
        assert s.node_state(15) is NodeState.RESERVED
        assert s.job(j).state is JobState.PENDING

    def test_resume_to_spare_keeps_unhealthy_nodes_drained(self):
        s = scheduler(16, checknode=lambda nodes: nodes != 15)
        s.fail_node(15)
        assert s.resume_to_spare(15) is False
        assert s.node_state(15) is NodeState.DRAIN

    def test_running_job_on_sees_only_running_allocations(self):
        s = scheduler(16)
        assert s.running_job_on(0) is None
        j = s.submit(JobRequest(8, 100.0))
        node = s.job(j).nodes[0]
        assert s.running_job_on(node) == j
        s.cancel(j)
        assert s.running_job_on(node) is None

    def test_queue_depth_tracks_pending_jobs(self):
        s = scheduler(16)
        assert s.queue_depth == 0
        s.submit(JobRequest(16, 100.0))
        s.submit(JobRequest(8, 100.0))
        s.submit(JobRequest(8, 100.0))
        assert s.queue_depth == 2


class TestJobRequestValidation:
    """Bad requests fail at construction, never later in the scheduler."""

    def test_nan_duration_rejected(self):
        # a NaN job would start with end_time = nan and "complete" at t=0
        with pytest.raises(SchedulerError):
            JobRequest(4, float("nan"))

    def test_infinite_duration_rejected(self):
        with pytest.raises(SchedulerError):
            JobRequest(4, float("inf"))

    def test_fractional_node_count_rejected(self):
        with pytest.raises(SchedulerError):
            JobRequest(2.5, 10.0)

    def test_bool_node_count_rejected(self):
        with pytest.raises(SchedulerError):
            JobRequest(True, 10.0)

    def test_fractional_machine_size_rejected(self):
        # a 2.5-node machine would pass the bounds check for node 2
        with pytest.raises(SchedulerError):
            SlurmScheduler(n_nodes=2.5)

    @pytest.mark.parametrize("nodes_per_group", [0, -4, 2.5, True])
    def test_bad_group_size_rejected(self, nodes_per_group):
        # nodes_per_group=0 used to boot and place a job
        with pytest.raises(SchedulerError, match="nodes_per_group"):
            SlurmScheduler(n_nodes=16, nodes_per_group=nodes_per_group)

    def test_numpy_integer_node_count_accepted(self):
        s = scheduler(16)
        j = s.submit(JobRequest(np.int64(4), 10.0))
        assert len(s.job(j).nodes) == 4


#: Every public per-node call, applied to one node id.
NODE_CALLS = {
    "node_state": lambda s, n: s.node_state(n),
    "drain": lambda s, n: s.drain(n),
    "resume": lambda s, n: s.resume(n),
    "fail_node": lambda s, n: s.fail_node(n),
    "reserve_spare": lambda s, n: s.reserve_spare(n),
    "release_spare": lambda s, n: s.release_spare(n),
    "resume_to_spare": lambda s, n: s.resume_to_spare(n),
    "running_job_on": lambda s, n: s.running_job_on(n),
    "replace_node(dead)": lambda s, n: s.replace_node(n, 15),
    "replace_node(spare)": lambda s, n: s.replace_node(0, n),
}


@pytest.mark.parametrize("bad", [-1, 16])
@pytest.mark.parametrize("call", sorted(NODE_CALLS))
def test_out_of_range_node_ids_are_unknown(call, bad):
    """Node -1 must not wrap around to the last node, nor n_nodes raise
    an IndexError: both are unknown nodes, and nothing changes."""
    s = scheduler(16)
    s.reserve_spare(15)          # the last node: what -1 would wrap to
    s.fail_node(14)
    j = s.submit(JobRequest(8, 100.0))
    before = [s.node_state(n) for n in range(16)]
    with pytest.raises(SchedulerError, match=f"unknown node {bad}"):
        NODE_CALLS[call](s, bad)
    assert [s.node_state(n) for n in range(16)] == before
    assert s.job(j).state is JobState.RUNNING
