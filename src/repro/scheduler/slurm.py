"""A Slurm-like scheduler for the simulated machine (paper §3.4.2).

Behaviours modeled from the paper:

* compute nodes are scheduled **exclusively** to a single job at a time;
* at boot and between every job a *checknode* health script gates the
  node: unhealthy nodes are drained instead of returning to service;
* jobs are placed topology-aware (:mod:`repro.scheduler.placement`);
* every job step receives a unique Slingshot VNI
  (:mod:`repro.scheduler.vni`).

The scheduler runs in simulated time: ``submit`` queues jobs, ``step`` /
``run_until_idle`` advance the clock to job completions, applying FIFO
order with conservative backfill (a later job may start early only if it
fits the currently free nodes).

Node accounting is incremental.  Next to the per-node state map the
scheduler keeps two indexes, updated with every state change:

* ``_idle`` holds exactly the IDLE nodes, so placement reads the free
  set without scanning the machine (``free_nodes`` hands out a copy);
* ``_owner`` maps a node to the RUNNING job holding it.  It is
  authoritative only for ALLOCATED nodes: an entry is written whenever
  a node is allocated (job start, ``replace_node``) and is never read
  for a node in any other state, so stale entries left behind by a
  finished job are harmless and never cleared.

Job start and finish apply their node updates in bulk.  Placement ties
are broken by the lowest group id (:func:`repro.scheduler.placement.place_job`).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.errors import PlacementError, SchedulerError
from repro.scheduler.placement import NODES_PER_GROUP, PlacementPolicy, place_job
from repro.scheduler.vni import VniAllocator

__all__ = ["JobState", "JobRequest", "Job", "SlurmScheduler"]


class JobState(enum.Enum):
    PENDING = "PD"
    RUNNING = "R"
    COMPLETED = "CD"
    CANCELLED = "CA"


class NodeState(enum.Enum):
    IDLE = "idle"
    ALLOCATED = "alloc"
    DRAIN = "drain"
    #: Held in the warm spare pool (:mod:`repro.chaos.heal`): healthy,
    #: but invisible to placement until taken via ``replace_node`` or
    #: released back to general service.
    RESERVED = "reserved"


@dataclass(frozen=True)
class JobRequest:
    """What a user asks for."""

    n_nodes: int
    duration_s: float
    name: str = "job"
    policy: PlacementPolicy = PlacementPolicy.AUTO

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise SchedulerError("job must request at least one node")
        if self.duration_s <= 0:
            raise SchedulerError("job duration must be positive")


@dataclass
class Job:
    """A job known to the scheduler."""

    job_id: int
    request: JobRequest
    state: JobState = JobState.PENDING
    nodes: list[int] = field(default_factory=list)
    start_time: float | None = None
    end_time: float | None = None
    step_vnis: list[int] = field(default_factory=list)


class SlurmScheduler:
    """Exclusive, topology-aware, health-gated scheduler."""

    def __init__(self, n_nodes: int = 9472,
                 nodes_per_group: int = NODES_PER_GROUP,
                 checknode: Callable[[int], bool] | None = None):
        if n_nodes < 1:
            raise SchedulerError("machine needs at least one node")
        self.n_nodes = n_nodes
        self.nodes_per_group = nodes_per_group
        self.checknode = checknode if checknode is not None else (lambda node: True)
        self.now = 0.0
        self._node_state: dict[int, NodeState] = {}
        for node in range(n_nodes):
            healthy = self.checknode(node)
            self._node_state[node] = NodeState.IDLE if healthy else NodeState.DRAIN
        self._idle = {n for n, s in self._node_state.items()
                      if s is NodeState.IDLE}
        self._owner: dict[int, int] = {}   # read only for ALLOCATED nodes
        self._jobs: dict[int, Job] = {}
        self._queue: list[int] = []
        self._running: list[tuple[float, int]] = []   # (end_time, job_id) heap
        self._ids = itertools.count(1)
        self.vni = VniAllocator()

    # -- node accounting ---------------------------------------------------

    def node_state(self, node: int) -> NodeState:
        try:
            return self._node_state[node]
        except KeyError:
            raise SchedulerError(f"unknown node {node}") from None

    def _set_state(self, node: int, state: NodeState) -> None:
        """Move one node to ``state`` (never ALLOCATED: see ``_try_start``
        and ``replace_node``), keeping the IDLE index in step."""
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
        """Return a drained node to service — via checknode, like real life.

        A successful return frees capacity, so pending jobs get a
        placement attempt immediately (a repair can unblock the queue).
        Resuming a node that was never drained is an idempotent no-op
        (chaos repairs can race a between-jobs checknode recovery);
        resuming an allocated or reserved node is a caller bug.
        """
        state = self.node_state(node)
        if state is NodeState.IDLE:
            return
        if state is not NodeState.DRAIN:
            raise SchedulerError(f"cannot resume {state.value} node {node}")
        if self.checknode(node):
            self._set_state(node, NodeState.IDLE)
            self._try_start()

    def fail_node(self, node: int) -> int | None:
        """A node dies under the scheduler (chaos injection).

        The owning RUNNING job, if any, is cancelled (its surviving nodes
        are re-gated through checknode as usual) and the dead node is
        drained unconditionally.  Returns the interrupted job's id, or
        ``None`` if the node was not allocated.  Failing an
        already-drained node is an idempotent no-op — overlapping blast
        radii hit the same node without corrupting state or double
        counting.
        """
        state = self.node_state(node)
        if state is NodeState.DRAIN:
            return None
        # Drain *before* cancelling: _finish re-gates the job's nodes and
        # backfills, and must never hand the dead node to a pending job.
        self._set_state(node, NodeState.DRAIN)
        interrupted: int | None = None
        if state is NodeState.ALLOCATED:
            interrupted = self._owner[node]
            self._finish(self._jobs[interrupted], JobState.CANCELLED)
        obs.counter("scheduler.nodes_failed").inc()
        return interrupted

    # -- spare pool (the heal layer's scheduler face) ------------------------

    def reserve_spare(self, node: int) -> None:
        """Move an idle node into the warm spare pool."""
        if self.node_state(node) is not NodeState.IDLE:
            raise SchedulerError(
                f"cannot reserve {self.node_state(node).value} node {node}")
        self._set_state(node, NodeState.RESERVED)

    def release_spare(self, node: int) -> None:
        """Return a spare to general service (checknode-gated)."""
        if self.node_state(node) is not NodeState.RESERVED:
            raise SchedulerError(f"node {node} is not a spare")
        if self.checknode(node):
            self._set_state(node, NodeState.IDLE)
            self._try_start()
        else:
            self._set_state(node, NodeState.DRAIN)

    def resume_to_spare(self, node: int) -> bool:
        """Repair a drained node straight into the spare pool.

        Returns ``True`` when the node passed checknode and now sits in
        the pool; an unhealthy node stays drained (``False``).  Unlike
        :meth:`resume`, a replenished spare does not trigger placement —
        it is held back capacity by design.
        """
        if self.node_state(node) is not NodeState.DRAIN:
            raise SchedulerError(f"node {node} is not drained")
        if not self.checknode(node):
            return False
        self._set_state(node, NodeState.RESERVED)
        return True

    def running_job_on(self, node: int) -> int | None:
        """The RUNNING job currently holding ``node``, or ``None``."""
        if self.node_state(node) is not NodeState.ALLOCATED:
            return None
        return self._owner[node]

    def replace_node(self, dead: int, spare: int) -> int:
        """Backfill a dying allocated node from the spare pool.

        The running job on ``dead`` keeps its allocation with ``spare``
        swapped in (the heal path: no cancellation, no re-queue); the
        dead node drains.  Returns the job id.
        """
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
        self._jobs[job_id] = Job(job_id=job_id, request=request)
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
        """Launch a job step: allocates its isolating VNI."""
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

    # -- time advancement ------------------------------------------------------

    def step(self) -> float | None:
        """Advance to the next job completion; returns the new time."""
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

    # -- internals ---------------------------------------------------------------

    def _try_start(self) -> None:
        # One pass suffices: the free set only shrinks during it, so a job
        # skipped for want of nodes cannot fit later in the same call.
        with obs.span("scheduler.try_start", queue_depth=len(self._queue)):
            free = self._idle
            for job_id in list(self._queue):
                job = self._jobs[job_id]
                req = job.request
                if req.n_nodes > len(free):
                    # FIFO head-of-line blocks unless a later job fits
                    continue
                try:
                    nodes = place_job(req.n_nodes, free, req.policy,
                                      self.nodes_per_group)
                except PlacementError:
                    continue
                self._queue.remove(job_id)
                job.nodes = nodes
                job.state = JobState.RUNNING
                job.start_time = self.now
                job.end_time = self.now + req.duration_s
                free.difference_update(nodes)
                self._node_state.update(dict.fromkeys(nodes, NodeState.ALLOCATED))
                self._owner.update(dict.fromkeys(nodes, job_id))
                heapq.heappush(self._running, (job.end_time, job_id))
                obs.counter("scheduler.jobs_started").inc()
        obs.gauge("scheduler.queue_depth").set(len(self._queue))
        obs.histogram("scheduler.queue_depth_samples",
                      edges=(0, 1, 2, 4, 8, 16, 32, 64, 128)).observe(
            len(self._queue))

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        obs.counter("scheduler.jobs_completed" if state is JobState.COMPLETED
                    else "scheduler.jobs_cancelled").inc()
        job.end_time = self.now if state is JobState.CANCELLED else job.end_time
        for vni in job.step_vnis:
            self.vni.release(vni)
        job.step_vnis.clear()
        # checknode gates every node's return to service (between every
        # job); nodes drained mid-job (fail_node) stay drained.
        state, checknode = self._node_state, self.checknode
        healthy = [n for n in job.nodes
                   if state[n] is not NodeState.DRAIN and checknode(n)]
        state.update(dict.fromkeys(job.nodes, NodeState.DRAIN))
        state.update(dict.fromkeys(healthy, NodeState.IDLE))
        self._idle.update(healthy)
        self._try_start()
