"""Property-based tests for scheduling and placement invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import SchedulerError
from repro.scheduler.placement import PlacementPolicy, place_job
from repro.scheduler.slurm import (JobRequest, JobState, NodeState,
                                   SlurmScheduler)
from repro.scheduler.vni import VniAllocator


class TestPlacementProperties:
    @given(st.integers(min_value=1, max_value=200),
           st.sampled_from(list(PlacementPolicy)),
           st.sets(st.integers(min_value=0, max_value=511), min_size=200,
                   max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_placement_returns_exactly_free_nodes(self, n, policy, free):
        nodes = place_job(n, np.fromiter(free, dtype=np.int64), policy,
                          nodes_per_group=64).tolist()
        assert len(nodes) == n
        assert len(set(nodes)) == n
        assert set(nodes) <= free
        assert nodes == sorted(nodes)


class TestSchedulerProperties:
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=64),
                              st.floats(min_value=1.0, max_value=100.0)),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_no_double_allocation_and_all_jobs_finish(self, jobs):
        s = SlurmScheduler(n_nodes=128)
        ids = [s.submit(JobRequest(n, d)) for n, d in jobs]
        # invariant at every instant: running jobs occupy disjoint nodes
        def check_disjoint():
            occupied: set[int] = set()
            for jid in ids:
                job = s.job(jid)
                if job.state is JobState.RUNNING:
                    assert not occupied & set(job.nodes)
                    occupied |= set(job.nodes)
        check_disjoint()
        for _ in range(1000):
            if s.step() is None:
                break
            check_disjoint()
        assert all(s.job(j).state is JobState.COMPLETED for j in ids)
        assert len(s.free_nodes) == 128

    @given(st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=1,
                    max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_time_is_monotone(self, durations):
        s = SlurmScheduler(n_nodes=8)
        for d in durations:
            s.submit(JobRequest(8, d))   # serialise: each takes the machine
        last = 0.0
        while True:
            t = s.step()
            if t is None:
                break
            assert t >= last
            last = t


MACHINE_NODES = 32
node_ids = st.integers(0, MACHINE_NODES - 1)


class SchedulerIndexMachine(RuleBasedStateMachine):
    """Random scheduler call sequences on a 4-group machine.

    The node arrays (states behind ``free_nodes``, owners behind
    ``running_job_on``) must agree with a full scan of node states and
    RUNNING jobs after every call, including calls the current state
    forbids (they raise ``SchedulerError``).
    """

    def __init__(self):
        super().__init__()
        self.sick: set[int] = set()
        self.sched = SlurmScheduler(n_nodes=MACHINE_NODES, nodes_per_group=8,
                                    checknode=lambda nodes: ~np.isin(
                                        nodes, list(self.sick)))
        self.job_ids: list[int] = []

    def attempt(self, call, *args):
        try:
            call(*args)
        except SchedulerError:
            pass

    @rule(n=st.integers(1, 20), duration=st.integers(1, 50),
          policy=st.sampled_from(list(PlacementPolicy)))
    def submit(self, n, duration, policy):
        self.job_ids.append(self.sched.submit(
            JobRequest(n, float(duration), policy=policy)))

    @rule()
    def step(self):
        self.sched.step()

    @rule(pick=st.integers(0, 10**6))
    def cancel(self, pick):
        if self.job_ids:
            self.attempt(self.sched.cancel,
                         self.job_ids[pick % len(self.job_ids)])

    @rule(node=node_ids, sick=st.booleans())
    def set_health(self, node, sick):
        (self.sick.add if sick else self.sick.discard)(node)

    @rule(node=node_ids)
    def drain(self, node):
        self.attempt(self.sched.drain, node)

    @rule(node=node_ids)
    def fail_node(self, node):
        self.sched.fail_node(node)

    @rule(node=node_ids)
    def resume(self, node):
        self.attempt(self.sched.resume, node)

    @rule(node=node_ids)
    def reserve_spare(self, node):
        self.attempt(self.sched.reserve_spare, node)

    @rule(node=node_ids)
    def release_spare(self, node):
        self.attempt(self.sched.release_spare, node)

    @rule(node=node_ids)
    def resume_to_spare(self, node):
        self.attempt(self.sched.resume_to_spare, node)

    @rule(dead=node_ids, spare=node_ids)
    def replace_node(self, dead, spare):
        self.attempt(self.sched.replace_node, dead, spare)

    @rule(pick=st.integers(0, 10**6))
    def reserve_idle_node(self, pick):
        free = sorted(self.sched.free_nodes)
        if free:
            self.sched.reserve_spare(free[pick % len(free)])

    @rule(pick=st.integers(0, 10**6))
    def replace_allocated_node(self, pick):
        # random node pairs rarely hit a legal (allocated, spare) pair
        s = self.sched
        allocated = [n for n in range(MACHINE_NODES)
                     if s.node_state(n) is NodeState.ALLOCATED]
        spares = sorted(s.spare_nodes)
        if allocated and spares:
            s.replace_node(allocated[pick % len(allocated)],
                           spares[pick % len(spares)])

    @invariant()
    def free_nodes_match_idle_states(self):
        s = self.sched
        assert s.free_nodes == {n for n in range(MACHINE_NODES)
                                if s.node_state(n) is NodeState.IDLE}

    @invariant()
    def running_job_on_matches_scan(self):
        owner: dict[int, int] = {}
        for jid in self.job_ids:
            job = self.sched.job(jid)
            if job.state is JobState.RUNNING:
                for n in job.nodes:
                    assert n not in owner
                    owner[n] = jid
        for n in range(MACHINE_NODES):
            assert self.sched.running_job_on(n) == owner.get(n)

    @invariant()
    def free_nodes_is_a_copy(self):
        before = self.sched.free_nodes
        handed_out = self.sched.free_nodes
        handed_out.clear()
        handed_out.add(-1)
        assert self.sched.free_nodes == before


TestSchedulerIndexes = SchedulerIndexMachine.TestCase
TestSchedulerIndexes.settings = settings(max_examples=60,
                                         stateful_step_count=60,
                                         deadline=None)


class TestVniProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_live_vnis_always_unique(self, ops):
        alloc = VniAllocator(low=1, high=64)
        live: list[int] = []
        for allocate in ops:
            if allocate and len(live) < 64:
                live.append(alloc.allocate("x"))
            elif live:
                alloc.release(live.pop())
            assert len(set(live)) == len(live)
            assert alloc.live_count == len(live)
