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

Node accounting lives in two arrays indexed by node id: an int8 state
array (one code per :class:`NodeState`) and an int64 owner array that
holds the RUNNING job's id for every ALLOCATED node and 0 for every
other node.  Job start and finish update both with array ops.  An
exact count of IDLE nodes moves with every transition into or out of
IDLE, so ``_try_start`` skips a job that cannot fit without a scan and
reads the free nodes with one ``np.flatnonzero`` only when a job might
fit; ``free_nodes`` / ``drained_nodes`` / ``spare_nodes`` build fresh
sets on demand.  Every per-node method rejects an id
outside ``[0, n_nodes)`` with :class:`SchedulerError` (an array would
silently wrap ``-1`` to the last node).

``checknode`` is batched: it takes an int64 array of node ids and
returns a bool array of the same length (``True``: healthy).  It runs
once on all nodes at boot, once at each job end on the job's
non-drained nodes in job-node order, and on a one-element array from
``resume``, ``release_spare`` and ``resume_to_spare``.  Placement ties
are broken by the lowest group id
(:func:`repro.scheduler.placement.place_job`).
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import PlacementError, SchedulerError
from repro.scheduler.placement import (NODES_PER_GROUP, PlacementPolicy,
                                       is_count, place_job)
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


#: The state array's int8 codes, and the :class:`NodeState` of each code.
_IDLE, _ALLOCATED, _DRAIN, _RESERVED = range(4)
_STATES = (NodeState.IDLE, NodeState.ALLOCATED, NodeState.DRAIN,
           NodeState.RESERVED)


@dataclass(frozen=True)
class JobRequest:
    """What a user asks for."""

    n_nodes: int
    duration_s: float
    name: str = "job"
    policy: PlacementPolicy = PlacementPolicy.AUTO

    def __post_init__(self) -> None:
        if not is_count(self.n_nodes):
            raise SchedulerError(
                f"job node count must be an integer, got {self.n_nodes!r}")
        if self.n_nodes < 1:
            raise SchedulerError("job must request at least one node")
        if not math.isfinite(self.duration_s):
            raise SchedulerError(
                f"job duration must be finite, got {self.duration_s!r}")
        if self.duration_s <= 0:
            raise SchedulerError("job duration must be positive")


@dataclass(eq=False)       # compared by identity: ``nodes`` is an array
class Job:
    """A job known to the scheduler."""

    job_id: int
    request: JobRequest
    state: JobState = JobState.PENDING
    #: int64 node ids, in placement order (``replace_node`` swaps in place).
    nodes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    start_time: float | None = None
    end_time: float | None = None
    step_vnis: list[int] = field(default_factory=list)


def _all_healthy(nodes: np.ndarray) -> np.ndarray:
    return np.ones(len(nodes), dtype=bool)


class SlurmScheduler:
    """Exclusive, topology-aware, health-gated scheduler."""

    def __init__(self, n_nodes: int = 9472,
                 nodes_per_group: int = NODES_PER_GROUP,
                 checknode: Callable[[np.ndarray], np.ndarray] | None = None):
        if not is_count(n_nodes) or n_nodes < 1:
            raise SchedulerError(
                f"machine needs a positive whole number of nodes, "
                f"got {n_nodes!r}")
        if not is_count(nodes_per_group) or nodes_per_group < 1:
            raise SchedulerError(
                f"nodes_per_group must be a positive whole number, "
                f"got {nodes_per_group!r}")
        self.n_nodes = n_nodes
        self.nodes_per_group = nodes_per_group
        self.checknode = checknode if checknode is not None else _all_healthy
        self.now = 0.0
        healthy = self._checknode(np.arange(n_nodes, dtype=np.int64))
        self._state = np.where(healthy, _IDLE, _DRAIN).astype(np.int8)
        #: exact count of IDLE nodes, kept by every transition into or
        #: out of IDLE, so ``_try_start`` skips a job too big to fit in O(1)
        self._n_idle = int(np.count_nonzero(healthy))
        self._owner = np.zeros(n_nodes, dtype=np.int64)  # 0: not ALLOCATED
        self._jobs: dict[int, Job] = {}
        self._queue: list[int] = []
        self._running: list[tuple[float, int]] = []   # (end_time, job_id) heap
        self._ids = itertools.count(1)
        self.vni = VniAllocator()

    # -- node accounting ---------------------------------------------------

    def _index(self, node: int) -> int:
        """``node`` as an index into the node arrays."""
        if not (isinstance(node, (int, np.integer))
                and 0 <= node < self.n_nodes):
            raise SchedulerError(f"unknown node {node}")
        return int(node)

    def _checknode(self, nodes: np.ndarray) -> np.ndarray:
        """One batched checknode call: a health verdict per node."""
        healthy = np.asarray(self.checknode(nodes), dtype=bool)
        if healthy.shape != nodes.shape:
            raise SchedulerError(
                f"checknode returned shape {healthy.shape} for "
                f"{len(nodes)} nodes")
        return healthy

    def _healthy(self, node: int) -> bool:
        return bool(self._checknode(np.array([node], dtype=np.int64))[0])

    def _nodes_in(self, code: int) -> set[int]:
        return set(np.flatnonzero(self._state == code).tolist())

    def node_state(self, node: int) -> NodeState:
        return _STATES[self._state[self._index(node)]]

    @property
    def free_nodes(self) -> set[int]:
        return self._nodes_in(_IDLE)

    @property
    def drained_nodes(self) -> set[int]:
        return self._nodes_in(_DRAIN)

    @property
    def spare_nodes(self) -> set[int]:
        return self._nodes_in(_RESERVED)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def drain(self, node: int) -> None:
        i = self._index(node)
        code = self._state[i]
        if code == _ALLOCATED:
            raise SchedulerError(f"cannot drain allocated node {node}")
        if code == _IDLE:
            self._n_idle -= 1
        self._state[i] = _DRAIN

    def resume(self, node: int) -> None:
        """Return a drained node to service — via checknode, like real life.

        A successful return frees capacity, so pending jobs get a
        placement attempt immediately (a repair can unblock the queue).
        Resuming a node that was never drained is an idempotent no-op
        (chaos repairs can race a between-jobs checknode recovery);
        resuming an allocated or reserved node is a caller bug.
        """
        i = self._index(node)
        code = self._state[i]
        if code == _IDLE:
            return
        if code != _DRAIN:
            raise SchedulerError(
                f"cannot resume {_STATES[code].value} node {node}")
        if self._healthy(i):
            self._state[i] = _IDLE
            self._n_idle += 1
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
        i = self._index(node)
        code = self._state[i]
        if code == _DRAIN:
            return None
        # Drain *before* cancelling: _finish re-gates the job's nodes and
        # backfills, and must never hand the dead node to a pending job.
        self._state[i] = _DRAIN
        if code == _IDLE:
            self._n_idle -= 1
        interrupted: int | None = None
        if code == _ALLOCATED:
            interrupted = int(self._owner[i])
            self._finish(self._jobs[interrupted], JobState.CANCELLED)
        obs.counter("scheduler.nodes_failed").inc()
        return interrupted

    # -- spare pool (the heal layer's scheduler face) ------------------------

    def reserve_spare(self, node: int) -> None:
        """Move an idle node into the warm spare pool."""
        i = self._index(node)
        if self._state[i] != _IDLE:
            raise SchedulerError(
                f"cannot reserve {self.node_state(i).value} node {node}")
        self._state[i] = _RESERVED
        self._n_idle -= 1

    def release_spare(self, node: int) -> None:
        """Return a spare to general service (checknode-gated)."""
        i = self._index(node)
        if self._state[i] != _RESERVED:
            raise SchedulerError(f"node {node} is not a spare")
        if self._healthy(i):
            self._state[i] = _IDLE
            self._n_idle += 1
            self._try_start()
        else:
            self._state[i] = _DRAIN

    def resume_to_spare(self, node: int) -> bool:
        """Repair a drained node straight into the spare pool.

        Returns ``True`` when the node passed checknode and now sits in
        the pool; an unhealthy node stays drained (``False``).  Unlike
        :meth:`resume`, a replenished spare does not trigger placement —
        it is held back capacity by design.
        """
        i = self._index(node)
        if self._state[i] != _DRAIN:
            raise SchedulerError(f"node {node} is not drained")
        if not self._healthy(i):
            return False
        self._state[i] = _RESERVED
        return True

    def running_job_on(self, node: int) -> int | None:
        """The RUNNING job currently holding ``node``, or ``None``."""
        job_id = int(self._owner[self._index(node)])
        return job_id if job_id else None

    def replace_node(self, dead: int, spare: int) -> int:
        """Backfill a dying allocated node from the spare pool.

        The running job on ``dead`` keeps its allocation with ``spare``
        swapped in (the heal path: no cancellation, no re-queue); the
        dead node drains.  Returns the job id.
        """
        s = self._index(spare)
        if self._state[s] != _RESERVED:
            raise SchedulerError(f"node {spare} is not a spare")
        job_id = self.running_job_on(dead)
        if job_id is None:
            raise SchedulerError(f"node {dead} has no running job")
        d = int(dead)
        job = self._jobs[job_id]
        job.nodes[job.nodes == d] = s
        self._state[[d, s]] = _DRAIN, _ALLOCATED
        self._owner[[d, s]] = 0, job_id
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
            state = self._state
            free = None          # read again after every placement
            for job_id in list(self._queue):
                job = self._jobs[job_id]
                req = job.request
                if req.n_nodes > self._n_idle:
                    # FIFO head-of-line blocks unless a later job fits
                    continue
                if free is None:
                    free = np.flatnonzero(state == _IDLE)
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
                state[nodes] = _ALLOCATED
                self._n_idle -= len(nodes)
                self._owner[nodes] = job_id
                free = None
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
        nodes, codes = job.nodes, self._state
        live = nodes[codes[nodes] != _DRAIN]
        healthy = live[self._checknode(live)]
        codes[nodes] = _DRAIN
        codes[healthy] = _IDLE
        self._n_idle += len(healthy)
        self._owner[nodes] = 0
        self._try_start()
