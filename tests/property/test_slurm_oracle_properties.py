"""The array-backed scheduler vs the per-node reference, call for call.

Random operation sequences (submit, step, cancel, drain, fail_node,
resume, the spare-pool calls, replace_node and health flips) run on
:class:`~repro.scheduler.slurm.SlurmScheduler` and on
:class:`tests.scheduler.slurm_oracle.ReferenceScheduler` side by side,
both gated by one batched checknode.  Every call must return the same
value or raise the same :class:`SchedulerError`, and after every call
the job records (state, nodes, start/end times, VNIs), the node states,
the owners and the free/drained/spare sets must be equal, and the fast
scheduler's IDLE count must equal its IDLE states.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 rule)

from repro.errors import SchedulerError
from repro.scheduler.placement import PlacementPolicy
from repro.scheduler.slurm import _IDLE, JobRequest, SlurmScheduler

from ..scheduler.slurm_oracle import ReferenceScheduler

MACHINE_NODES = 40          # five 8-node groups
#: node ids one past each end included: both must raise "unknown node"
node_ids = st.integers(-1, MACHINE_NODES)
healthy_ids = st.integers(0, MACHINE_NODES - 1)


class SchedulerVsReference(RuleBasedStateMachine):

    @initialize(sick=st.sets(healthy_ids, max_size=6))
    def boot(self, sick):
        self.sick = set(sick)        # nodes checknode fails, read live
        def checknode(nodes):
            return ~np.isin(nodes, sorted(self.sick))
        self.fast = SlurmScheduler(n_nodes=MACHINE_NODES, nodes_per_group=8,
                                   checknode=checknode)
        self.ref = ReferenceScheduler(n_nodes=MACHINE_NODES,
                                      nodes_per_group=8, checknode=checknode)
        self.job_ids: list[int] = []

    def both(self, name, *args):
        """Call ``name`` on both schedulers; the outcomes must agree."""
        outcomes = []
        for sched in (self.fast, self.ref):
            try:
                outcomes.append(("returned", getattr(sched, name)(*args)))
            except SchedulerError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1], (name, args)
        kind, value = outcomes[0]
        return value if kind == "returned" else None

    @rule(n=st.integers(1, MACHINE_NODES + 2), duration=st.integers(1, 50),
          policy=st.sampled_from(list(PlacementPolicy)))
    def submit(self, n, duration, policy):
        job_id = self.both("submit", JobRequest(n, float(duration),
                                                policy=policy))
        if job_id is not None:
            self.job_ids.append(job_id)

    @rule()
    def step(self):
        self.both("step")

    @rule(pick=st.integers(0, 10**6))
    def cancel(self, pick):
        if self.job_ids:
            self.both("cancel", self.job_ids[pick % len(self.job_ids)])

    @rule(pick=st.integers(0, 10**6))
    def start_step(self, pick):
        if self.job_ids:
            self.both("start_step", self.job_ids[pick % len(self.job_ids)])

    @rule(node=healthy_ids, sick=st.booleans())
    def set_health(self, node, sick):
        (self.sick.add if sick else self.sick.discard)(node)

    @rule(node=node_ids, call=st.sampled_from(
        ["drain", "fail_node", "resume", "reserve_spare", "release_spare",
         "resume_to_spare", "running_job_on", "node_state"]))
    def node_call(self, node, call):
        self.both(call, node)

    @rule(dead=node_ids, spare=node_ids)
    def replace_node(self, dead, spare):
        self.both("replace_node", dead, spare)

    @rule(pick=st.integers(0, 10**6))
    def reserve_idle_node(self, pick):
        free = sorted(self.ref.free_nodes)
        if free:
            self.both("reserve_spare", free[pick % len(free)])

    @rule(pick=st.integers(0, 10**6), call=st.sampled_from(
        ["release_spare", "fail_node"]))
    def touch_spare_node(self, pick, call):
        # random node ids rarely hit one of the few spares
        spares = sorted(self.ref.spare_nodes)
        if spares:
            self.both(call, spares[pick % len(spares)])

    @rule(pick=st.integers(0, 10**6), call=st.sampled_from(
        ["resume", "resume_to_spare"]))
    def repair_drained_node(self, pick, call):
        drained = sorted(self.ref.drained_nodes)
        if drained:
            self.both(call, drained[pick % len(drained)])

    @rule(pick=st.integers(0, 10**6))
    def fail_allocated_node(self, pick):
        # random nodes are mostly idle; aim at a running job too
        allocated = sorted(n for n in range(MACHINE_NODES)
                           if self.ref.running_job_on(n) is not None)
        if allocated:
            self.both("fail_node", allocated[pick % len(allocated)])

    @rule(pick=st.integers(0, 10**6))
    def replace_allocated_node(self, pick):
        # random node pairs rarely hit a legal (allocated, spare) pair
        allocated = sorted(n for n in range(MACHINE_NODES)
                           if self.ref.running_job_on(n) is not None)
        spares = sorted(self.ref.spare_nodes)
        if allocated and spares:
            self.both("replace_node", allocated[pick % len(allocated)],
                      spares[pick % len(spares)])

    @invariant()
    def same_node_sets(self):
        fast, ref = self.fast, self.ref
        assert fast.free_nodes == ref.free_nodes
        assert fast.drained_nodes == ref.drained_nodes
        assert fast.spare_nodes == ref.spare_nodes
        assert fast.queue_depth == ref.queue_depth
        assert fast.now == ref.now

    @invariant()
    def same_node_states_and_owners(self):
        for n in range(MACHINE_NODES):
            assert self.fast.node_state(n) is self.ref.node_state(n)
            assert self.fast.running_job_on(n) == self.ref.running_job_on(n)

    @invariant()
    def idle_count_is_exact(self):
        assert self.fast._n_idle == np.count_nonzero(self.fast._state == _IDLE)

    @invariant()
    def same_jobs(self):
        for job_id in self.job_ids:
            fast, ref = self.fast.job(job_id), self.ref.job(job_id)
            assert fast.state is ref.state
            assert fast.nodes.dtype == np.int64
            assert fast.nodes.tolist() == list(ref.nodes)
            assert fast.start_time == ref.start_time
            assert fast.end_time == ref.end_time
            assert fast.step_vnis == ref.step_vnis


TestSchedulerVsReference = SchedulerVsReference.TestCase
TestSchedulerVsReference.settings = settings(max_examples=80,
                                             stateful_step_count=60,
                                             deadline=None)
