"""Reference Slurm node accounting: dicts, a set, one node at a time.

:class:`repro.scheduler.slurm.SlurmScheduler` keeps node states and job
owners in NumPy arrays, calls ``checknode`` once per batch of nodes and
re-gates a finished job's nodes with array ops.  :class:`ReferenceScheduler`
below is the per-node version it was derived from: a node -> state dict,
an IDLE-node set, a node -> owner dict (read only for ALLOCATED nodes)
and a ``checknode`` call per node.  It places jobs with the per-node
:func:`reference_place_job`, so it shares no accounting or placement code
with the scheduler it checks.  It is kept only as the oracle the fast
scheduler must match call for call (the ``chunk=1`` idiom of
:mod:`repro.fabric.batchroute`, like :mod:`tests.fabric.timeflow_oracle`).

It takes the same batched ``checknode`` (an int64 array in, a bool array
out) and asks it about one node at a time, so both schedulers can run
against one health function.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro import obs
from repro.errors import PlacementError, SchedulerError
from repro.scheduler.placement import NODES_PER_GROUP
from repro.scheduler.slurm import Job, JobRequest, JobState, NodeState
from repro.scheduler.vni import VniAllocator

from .test_placement_oracle import reference_place_job


class ReferenceScheduler:
    """Per-node twin of :class:`~repro.scheduler.slurm.SlurmScheduler`."""

    def __init__(self, n_nodes: int = 9472,
                 nodes_per_group: int = NODES_PER_GROUP, checknode=None):
        if n_nodes < 1:
            raise SchedulerError("machine needs at least one node")
        self.n_nodes = n_nodes
        self.nodes_per_group = nodes_per_group
        self.checknode = checknode
        self.now = 0.0
        self._node_state: dict[int, NodeState] = {}
        for node in range(n_nodes):
            healthy = self._healthy(node)
            self._node_state[node] = NodeState.IDLE if healthy else NodeState.DRAIN
        self._idle = {n for n, s in self._node_state.items()
                      if s is NodeState.IDLE}
        self._owner: dict[int, int] = {}   # read only for ALLOCATED nodes
        self._jobs: dict[int, Job] = {}
        self._queue: list[int] = []
        self._running: list[tuple[float, int]] = []
        self._ids = itertools.count(1)
        self.vni = VniAllocator()

    def _healthy(self, node: int) -> bool:
        if self.checknode is None:
            return True
        return bool(self.checknode(np.array([node], dtype=np.int64))[0])

    # -- node accounting ---------------------------------------------------

    def node_state(self, node: int) -> NodeState:
        try:
            return self._node_state[node]
        except KeyError:
            raise SchedulerError(f"unknown node {node}") from None

    def _set_state(self, node: int, state: NodeState) -> None:
        self._node_state[node] = state
        if state is NodeState.IDLE:
            self._idle.add(node)
        else:
            self._idle.discard(node)

    @property
    def free_nodes(self) -> set[int]:
        return set(self._idle)

    @property
    def drained_nodes(self) -> set[int]:
        return {n for n, s in self._node_state.items() if s is NodeState.DRAIN}

    @property
    def spare_nodes(self) -> set[int]:
        return {n for n, s in self._node_state.items()
                if s is NodeState.RESERVED}

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def drain(self, node: int) -> None:
        if self.node_state(node) is NodeState.ALLOCATED:
            raise SchedulerError(f"cannot drain allocated node {node}")
        self._set_state(node, NodeState.DRAIN)

    def resume(self, node: int) -> None:
        state = self.node_state(node)
        if state is NodeState.IDLE:
            return
        if state is not NodeState.DRAIN:
            raise SchedulerError(f"cannot resume {state.value} node {node}")
        if self._healthy(node):
            self._set_state(node, NodeState.IDLE)
            self._try_start()

    def fail_node(self, node: int) -> int | None:
        state = self.node_state(node)
        if state is NodeState.DRAIN:
            return None
        self._set_state(node, NodeState.DRAIN)
        interrupted: int | None = None
        if state is NodeState.ALLOCATED:
            interrupted = self._owner[node]
            self._finish(self._jobs[interrupted], JobState.CANCELLED)
        obs.counter("scheduler.nodes_failed").inc()
        return interrupted

    # -- spare pool ----------------------------------------------------------

    def reserve_spare(self, node: int) -> None:
        if self.node_state(node) is not NodeState.IDLE:
            raise SchedulerError(
                f"cannot reserve {self.node_state(node).value} node {node}")
        self._set_state(node, NodeState.RESERVED)

    def release_spare(self, node: int) -> None:
        if self.node_state(node) is not NodeState.RESERVED:
            raise SchedulerError(f"node {node} is not a spare")
        if self._healthy(node):
            self._set_state(node, NodeState.IDLE)
            self._try_start()
        else:
            self._set_state(node, NodeState.DRAIN)

    def resume_to_spare(self, node: int) -> bool:
        if self.node_state(node) is not NodeState.DRAIN:
            raise SchedulerError(f"node {node} is not drained")
        if not self._healthy(node):
            return False
        self._set_state(node, NodeState.RESERVED)
        return True

    def running_job_on(self, node: int) -> int | None:
        if self.node_state(node) is not NodeState.ALLOCATED:
            return None
        return self._owner[node]

    def replace_node(self, dead: int, spare: int) -> int:
        if self.node_state(spare) is not NodeState.RESERVED:
            raise SchedulerError(f"node {spare} is not a spare")
        job_id = self.running_job_on(dead)
        if job_id is None:
            raise SchedulerError(f"node {dead} has no running job")
        job = self._jobs[job_id]
        self._set_state(dead, NodeState.DRAIN)
        job.nodes[job.nodes.index(dead)] = spare
        self._node_state[spare] = NodeState.ALLOCATED
        self._owner[spare] = job_id
        obs.counter("scheduler.nodes_failed").inc()
        obs.counter("scheduler.nodes_replaced").inc()
        return job_id

    # -- job lifecycle -------------------------------------------------------

    def submit(self, request: JobRequest) -> int:
        if request.n_nodes > self.n_nodes:
            raise SchedulerError(
                f"job wants {request.n_nodes} nodes; machine has {self.n_nodes}")
        job_id = next(self._ids)
        self._jobs[job_id] = Job(job_id=job_id, request=request, nodes=[])
        self._queue.append(job_id)
        obs.counter("scheduler.jobs_submitted").inc()
        self._try_start()
        return job_id

    def job(self, job_id: int) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id}") from None

    def start_step(self, job_id: int) -> int:
        job = self.job(job_id)
        if job.state is not JobState.RUNNING:
            raise SchedulerError(f"job {job_id} is not running")
        vni = self.vni.allocate(owner=f"{job_id}.{len(job.step_vnis)}")
        job.step_vnis.append(vni)
        return vni

    def cancel(self, job_id: int) -> None:
        job = self.job(job_id)
        if job.state is JobState.PENDING:
            self._queue.remove(job_id)
            job.state = JobState.CANCELLED
        elif job.state is JobState.RUNNING:
            self._finish(job, JobState.CANCELLED)
        else:
            raise SchedulerError(f"job {job_id} already finished")

    def step(self) -> float | None:
        if not self._running:
            return None
        end_time, job_id = heapq.heappop(self._running)
        self.now = max(self.now, end_time)
        job = self._jobs[job_id]
        if job.state is JobState.RUNNING:
            self._finish(job, JobState.COMPLETED)
        return self.now

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        for _ in range(max_events):
            if self.step() is None:
                return
        raise SchedulerError("scheduler did not drain")

    # -- internals -----------------------------------------------------------

    def _try_start(self) -> None:
        free = self._idle
        for job_id in list(self._queue):
            job = self._jobs[job_id]
            req = job.request
            if req.n_nodes > len(free):
                continue
            try:
                nodes = reference_place_job(req.n_nodes, free, req.policy,
                                            self.nodes_per_group)
            except PlacementError:
                continue
            self._queue.remove(job_id)
            job.nodes = nodes
            job.state = JobState.RUNNING
            job.start_time = self.now
            job.end_time = self.now + req.duration_s
            for node in nodes:
                self._set_state(node, NodeState.ALLOCATED)
                self._owner[node] = job_id
            heapq.heappush(self._running, (job.end_time, job_id))
            obs.counter("scheduler.jobs_started").inc()

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        obs.counter("scheduler.jobs_completed" if state is JobState.COMPLETED
                    else "scheduler.jobs_cancelled").inc()
        job.end_time = self.now if state is JobState.CANCELLED else job.end_time
        for vni in job.step_vnis:
            self.vni.release(vni)
        job.step_vnis.clear()
        # checknode gates every node's return to service, one node at a
        # time in job-node order; nodes drained mid-job stay drained.
        for node in job.nodes:
            if (self._node_state[node] is not NodeState.DRAIN
                    and self._healthy(node)):
                self._set_state(node, NodeState.IDLE)
            else:
                self._set_state(node, NodeState.DRAIN)
        self._try_start()
