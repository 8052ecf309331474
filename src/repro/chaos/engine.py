"""The chaos engine: replay a fault timeline against a live machine.

Couples three layers that the static models treat separately:

* **fabric** — link failures disable topology links through the
  :class:`~repro.fabric.network.FabricNetwork` facade (paths re-route,
  batch planner state invalidates) and repairs re-enable them;
* **scheduler** — node deaths interrupt the owning job through
  :meth:`~repro.scheduler.slurm.SlurmScheduler.fail_node`; repairs
  return nodes through ``resume`` (checknode-gated) and unblock the
  queue;
* **checkpointing** — every interrupted job rewinds to its last
  checkpoint under a :class:`~repro.resilience.checkpoint.CheckpointPlan`
  policy (Young/Daly optimum or a fixed interval) and resumes on
  whatever healthy nodes the scheduler finds.

Job progress uses **closed-form segment accounting** instead of ticking
sim-time through every checkpoint: a contiguous RUNNING stretch of
``L`` seconds (minus the restart penalty when it follows an interrupt)
commits ``floor(L / (tau + delta)) * tau`` seconds of work — whole
checkpointed cycles; the in-flight partial cycle is exactly what a
failure destroys.  In expectation each interrupt therefore costs
``period/2 + restart`` seconds, which is the loss term inside
:func:`~repro.resilience.checkpoint.checkpoint_efficiency` — so the
measured efficiency converges to the analytic formula, and the
cross-validation gate (:mod:`repro.chaos.validate`) can hold the engine
to it.  Storage slowdowns close and reopen segments with a scaled
checkpoint cost (the partial cycle at the boundary is forfeited — a
conservative, documented bias that vanishes as segments grow).

Results persist as resumable artifacts under ``benchmarks/out/chaos/``
keyed by a content hash of (spec, config), kept in a
:class:`~repro.ledger.Ledger` with the same trust contract as the sweep
engine's: re-running the same configuration loads the finished document
instead of re-simulating.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro import obs
from repro.chaos.events import ChaosTimeline, sample_timeline
from repro.core.scenario import MachineSpec, decode_block, off_default
from repro.errors import ConfigurationError
from repro.ledger import Ledger
from repro.ledger import run_id as chaos_run_id
from repro.obs.export import write_json
from repro.resilience.blast_radius import FailureDomainModel
from repro.resilience.checkpoint import CheckpointPlan, checkpoint_efficiency
from repro.resilience.fit import frontier_fit_inventory
from repro.resilience.mtti import MttiModel
from repro.rng import RngLike

__all__ = ["ChaosConfig", "JobReport", "ChaosResult", "run_chaos",
           "chaos_run_id", "run_chaos_cached", "CHAOS_LEDGER",
           "DEFAULT_CHAOS_DIR", "CHAOS_SCHEMA_VERSION"]

CHAOS_SCHEMA_VERSION = 1

#: Default artifact directory (mirrors the sweep engine's layout).
DEFAULT_CHAOS_DIR = os.path.join("benchmarks", "out", "chaos")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos run that live outside the machine spec.

    The spec carries *what machine* and the failure/checkpoint policy
    knobs (``failure_scale``, ``checkpoint_policy``); this carries *how
    the experiment is run*: horizon, seed, checkpoint costs, blast-mode.

    ``uniform_blast=True`` is the validation configuration: every
    component class becomes a radius-1 node death, the regime in which
    :class:`~repro.resilience.mtti.MttiModel` is exact.
    """

    horizon_h: float = 24.0
    seed: int = 0
    checkpoint_cost_s: float = 120.0
    restart_s: float = 600.0
    storage_slowdown: float = 4.0
    uniform_blast: bool = False
    mttr_scale: float = 1.0
    job_fractions: tuple[float, ...] = (0.125, 0.25, 0.5)
    #: materialise the fabric and measure bisection-style bandwidth at
    #: every link event; ``None`` -> auto (only when the topology is
    #: small enough to route batches quickly).
    measure_fabric: bool | None = None
    max_fabric_endpoints: int = 4096
    #: FIT-inventory scale the *operator's model* assumes when adaptive
    #: checkpointing is on (reality runs at ``degradation.failure_scale``).
    #: ``1.0`` = the unscaled inventory; serialized only off-default
    #: (:func:`~repro.core.scenario.off_default`).
    adaptive_prior_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon_h <= 0:
            raise ConfigurationError("chaos horizon must be positive")
        if self.adaptive_prior_scale <= 0:
            raise ConfigurationError("adaptive_prior_scale must be positive")
        if self.checkpoint_cost_s <= 0 or self.restart_s < 0:
            raise ConfigurationError(
                "checkpoint cost must be positive and restart non-negative")
        if self.storage_slowdown < 1.0:
            raise ConfigurationError("storage_slowdown must be >= 1")
        if self.mttr_scale <= 0:
            raise ConfigurationError("mttr_scale must be positive")
        fracs = tuple(float(f) for f in self.job_fractions)
        if not fracs or any(not 0 < f <= 1 for f in fracs):
            raise ConfigurationError(
                "job fractions must be in (0, 1] and non-empty")
        object.__setattr__(self, "job_fractions", fracs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "horizon_h": self.horizon_h,
            "seed": self.seed,
            "checkpoint_cost_s": self.checkpoint_cost_s,
            "restart_s": self.restart_s,
            "storage_slowdown": self.storage_slowdown,
            "uniform_blast": self.uniform_blast,
            "mttr_scale": self.mttr_scale,
            "job_fractions": list(self.job_fractions),
            "measure_fabric": self.measure_fabric,
            "max_fabric_endpoints": self.max_fabric_endpoints,
        } | off_default(self, ("adaptive_prior_scale",))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ChaosConfig":
        return decode_block(cls, doc, "chaos config")


@dataclass(frozen=True)
class JobReport:
    """Achieved-vs-ideal outcome of one job over the horizon."""

    name: str
    n_nodes: int
    interval_s: float
    delta_s: float
    restart_s: float
    analytic_mtti_h: float
    analytic_rate_per_h: float
    analytic_efficiency: float
    interrupts: int
    running_h: float
    queued_h: float
    committed_h: float

    @property
    def measured_rate_per_h(self) -> float:
        """Interrupts per RUNNING hour (the MttiModel cross-check)."""
        return self.interrupts / self.running_h if self.running_h > 0 else 0.0

    @property
    def measured_efficiency(self) -> float:
        """Committed work per RUNNING hour (the checkpoint cross-check)."""
        return self.committed_h / self.running_h if self.running_h > 0 else 0.0

    @property
    def goodput(self) -> float:
        """Committed work as a fraction of the whole horizon (includes
        queue time and repair waits — the machine-level view)."""
        total = self.running_h + self.queued_h
        return self.committed_h / total if total > 0 else 0.0

    def to_doc(self) -> dict[str, Any]:
        return {
            "name": self.name, "n_nodes": self.n_nodes,
            "interval_s": self.interval_s, "delta_s": self.delta_s,
            "restart_s": self.restart_s,
            "analytic_mtti_h": self.analytic_mtti_h,
            "analytic_rate_per_h": self.analytic_rate_per_h,
            "analytic_efficiency": self.analytic_efficiency,
            "interrupts": self.interrupts,
            "running_h": self.running_h, "queued_h": self.queued_h,
            "committed_h": self.committed_h,
            "measured_rate_per_h": self.measured_rate_per_h,
            "measured_efficiency": self.measured_efficiency,
            "goodput": self.goodput,
        }


@dataclass
class ChaosResult:
    """Everything one chaos run produced."""

    spec: MachineSpec
    config: ChaosConfig
    timeline: ChaosTimeline
    jobs: list[JobReport]
    machine_availability: float
    node_down_hours: float
    job_series: dict[str, list[tuple[float, float, float]]]
    fabric_series: list[dict[str, float]]
    run_id: str
    #: healed-vs-unhealed comparison (:class:`repro.chaos.heal.HealReport`);
    #: only set by the policy arm, i.e. when ``spec.resilience`` is
    #: non-default.
    heal: Any = None

    def to_doc(self) -> dict[str, Any]:
        """The persistable artifact document (``status: ok``)."""
        doc = {
            "schema": CHAOS_SCHEMA_VERSION,
            "status": "ok",
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "config": self.config.to_dict(),
            "horizon_h": self.timeline.horizon_h,
            "event_counts": self.timeline.counts(),
            "n_events": len(self.timeline),
            "machine_availability": self.machine_availability,
            "node_down_hours": self.node_down_hours,
            "jobs": [j.to_doc() for j in self.jobs],
            "job_series": {name: [list(p) for p in pts]
                           for name, pts in self.job_series.items()},
            "fabric_series": self.fabric_series,
            "events": self.timeline.to_doc(),
        }
        if self.heal is not None:
            doc["heal"] = self.heal.to_doc()
        return doc


# -- internal job tracker -----------------------------------------------------


@dataclass
class _JobRun:
    """Mutable bookkeeping for one tracked job (closed-form accounting)."""

    name: str
    n_nodes: int
    interval_s: float
    delta_s: float
    restart_s: float
    analytic_mtti_h: float
    analytic_rate_per_h: float
    analytic_efficiency: float
    sched_id: int | None = None
    committed_s: float = 0.0
    running_s: float = 0.0
    queued_s: float = 0.0
    interrupts: int = 0
    # open-segment state (None seg_start_s -> not running)
    seg_start_s: float | None = None
    seg_restart_s: float = 0.0
    seg_delta_s: float = 0.0
    seg_interval_s: float = 0.0
    pending_since_s: float = 0.0
    series: list[tuple[float, float, float]] = field(default_factory=list)
    #: adaptive checkpoint controller; ``None`` -> the interval is pinned
    #: to the spec's analytic policy for the whole run.
    controller: Any = None

    def open_segment(self, t_s: float, delta_s: float,
                     after_interrupt: bool) -> None:
        self.seg_start_s = t_s
        self.seg_delta_s = delta_s
        # Snapshot the interval: a controller may move ``interval_s``
        # mid-run, but the cycles of an open segment were cut at the
        # interval that was live when the segment started.
        self.seg_interval_s = self.interval_s
        self.seg_restart_s = self.restart_s if after_interrupt else 0.0
        self.queued_s += t_s - self.pending_since_s

    def close_segment(self, t_s: float) -> None:
        """Commit the whole checkpoint cycles of the segment ending now.

        Whatever does not fill a full ``tau + delta`` cycle is the
        in-flight work a failure destroys (mean ``period/2``); segment
        boundaries that are not failures (storage transitions, end of
        horizon) forfeit it too — a conservative bias that is zero in the
        validation configuration the gate measures.
        """
        if self.seg_start_s is None:
            return
        wall = t_s - self.seg_start_s
        self.running_s += wall
        effective = max(0.0, wall - self.seg_restart_s)
        period = self.seg_interval_s + self.seg_delta_s
        self.committed_s += float(int(effective / period)) * self.seg_interval_s
        self.seg_start_s = None
        self.pending_since_s = t_s
        self.series.append((t_s / 3600.0, self.committed_s / 3600.0,
                            self.running_s / 3600.0))

    @property
    def is_running(self) -> bool:
        return self.seg_start_s is not None

    def report(self) -> JobReport:
        return JobReport(
            name=self.name, n_nodes=self.n_nodes,
            interval_s=self.interval_s, delta_s=self.delta_s,
            restart_s=self.restart_s,
            analytic_mtti_h=self.analytic_mtti_h,
            analytic_rate_per_h=self.analytic_rate_per_h,
            analytic_efficiency=self.analytic_efficiency,
            interrupts=self.interrupts,
            running_h=self.running_s / 3600.0,
            queued_h=self.queued_s / 3600.0,
            committed_h=self.committed_s / 3600.0)


def _job_sizes(node_count: int, fractions: tuple[float, ...]) -> list[int]:
    sizes = [max(1, int(round(f * node_count))) for f in fractions]
    # Fractions are bounded (sum <= 1 by ChaosConfig), so any overflow is
    # rounding spill of at most one node per job: shave it off the
    # largest jobs so odd usable counts (spare pools carve capacity in
    # whole nodes) still place.
    while sum(sizes) > node_count:
        largest = max(range(len(sizes)), key=lambda i: sizes[i])
        if sizes[largest] <= 1:
            raise ConfigurationError(
                f"job fractions {fractions} need {sum(sizes)} nodes; "
                f"the machine has {node_count}")
        sizes[largest] -= 1
    return sizes


def _resolve_interval(spec: MachineSpec, plan: CheckpointPlan) -> float:
    policy = spec.degradation.checkpoint_policy
    if policy == "young":
        return plan.young_interval_s
    if policy == "fixed":
        return float(spec.degradation.checkpoint_interval_s)
    return plan.daly_interval_s


# -- the engine ---------------------------------------------------------------


def run_chaos(spec: MachineSpec, config: ChaosConfig | None = None, *,
              rng: RngLike = None) -> ChaosResult:
    """Replay a sampled fault timeline against scheduler + fabric.

    Deterministic in ``(spec, config)``: the timeline comes from
    :func:`repro.chaos.events.sample_timeline` seeded by ``config.seed``
    (or an explicit ``rng``), and the engine itself draws nothing.

    When ``spec.resilience`` is non-default this is the **policy arm**:
    the run replays twice on the same timeline — once with the healing
    policy stripped, once with it active — and the returned (healed)
    result carries a :class:`repro.chaos.heal.HealReport` comparing the
    two (``result.heal``).
    """
    config = config if config is not None else ChaosConfig()
    if spec.resilience.is_default:
        return _run_chaos_once(spec, config, rng=rng)
    from repro.chaos.heal import build_heal_report
    from repro.core.scenario import ResiliencePolicySpec
    from repro.rng import as_generator
    if rng is not None:
        # One derived seed drives *both* arms so they replay the exact
        # same fault timeline.
        config = replace(config, seed=int(as_generator(rng).integers(2 ** 31 - 1)))
    baseline = _run_chaos_once(
        replace(spec, resilience=ResiliencePolicySpec()), config)
    counters: dict[str, int] = {}
    healed = _run_chaos_once(spec, config, heal_counters=counters)
    healed.heal = build_heal_report(baseline=baseline, healed=healed,
                                    counters=counters)
    return healed


def _run_chaos_once(spec: MachineSpec, config: ChaosConfig, *,
                    rng: RngLike = None,
                    heal_counters: dict[str, int] | None = None
                    ) -> ChaosResult:
    """One replay of the timeline; applies ``spec.resilience`` in-loop."""
    from repro.scheduler.slurm import JobRequest, JobState, SlurmScheduler

    deg = spec.degradation
    resilience = spec.resilience
    base_inventory = frontier_fit_inventory(nodes=spec.node_count)
    inventory = base_inventory
    if deg.failure_scale != 1.0:
        inventory = base_inventory.scaled(deg.failure_scale)

    # Healing knobs: the operator sizes the workload to the capacity left
    # after carving out the warm spare pool.
    spare_target = int(resilience.spare_fraction * spec.node_count)
    usable_nodes = spec.node_count - spare_target
    replacements = requeues = replenished = spares_lost = 0

    # Fabric (optional at large scale: routing batches over the full
    # 9,472-node machine would dominate runtime without changing the
    # scheduler/checkpoint story this engine measures).
    cfg = spec.fabric_config()
    want_fabric = (config.measure_fabric
                   if config.measure_fabric is not None
                   else cfg.total_endpoints <= config.max_fabric_endpoints)
    net = spec.build_network(rng=config.seed) if want_fabric else None
    link_population: tuple[int, ...] = ()
    if net is not None:
        flat = net.topology.flat
        trunk = np.flatnonzero(flat.link_kind > 0)
        already = set(deg.failed_links)
        link_population = tuple(int(i) for i in trunk if int(i) not in already)

    timeline = sample_timeline(
        inventory, total_nodes=spec.node_count, horizon_h=config.horizon_h,
        rng=rng if rng is not None else config.seed,
        uniform_blast=config.uniform_blast, mttr_scale=config.mttr_scale,
        link_population=link_population)

    # Analytic per-job MTTI -> checkpoint plans (policy from the spec).
    mtti_model = MttiModel(inventory=inventory, total_nodes=spec.node_count)
    fdm = FailureDomainModel(inventory=inventory, total_nodes=spec.node_count)
    prior_mtti_model = prior_fdm = None
    if resilience.adaptive_checkpointing:
        # The controller starts from the *operator's model* of the
        # machine, which may disagree with the injected reality.
        prior_inventory = base_inventory
        if config.adaptive_prior_scale != 1.0:
            prior_inventory = base_inventory.scaled(config.adaptive_prior_scale)
        prior_mtti_model = MttiModel(inventory=prior_inventory,
                                     total_nodes=spec.node_count)
        prior_fdm = FailureDomainModel(inventory=prior_inventory,
                                       total_nodes=spec.node_count)
    runs: list[_JobRun] = []
    for i, n in enumerate(_job_sizes(usable_nodes, config.job_fractions)):
        mtti_h = (mtti_model.job_mtti_hours(n) if config.uniform_blast
                  else fdm.job_mtti_hours(n))
        plan = CheckpointPlan(checkpoint_cost_s=config.checkpoint_cost_s,
                              mtti_s=mtti_h * 3600.0,
                              restart_s=config.restart_s)
        controller = None
        if resilience.adaptive_checkpointing:
            from repro.resilience.adaptive import AdaptiveCheckpointController
            prior_mtti_h = (prior_mtti_model.job_mtti_hours(n)
                            if config.uniform_blast
                            else prior_fdm.job_mtti_hours(n))
            controller = AdaptiveCheckpointController(
                delta_s=config.checkpoint_cost_s,
                prior_mtti_s=prior_mtti_h * 3600.0)
            interval = controller.interval_s
        else:
            interval = _resolve_interval(spec, plan)
        runs.append(_JobRun(
            name=f"job{i}-{n}n", n_nodes=n, interval_s=interval,
            delta_s=config.checkpoint_cost_s, restart_s=config.restart_s,
            analytic_mtti_h=mtti_h,
            analytic_rate_per_h=0.0 if mtti_h == float("inf") else 1.0 / mtti_h,
            analytic_efficiency=checkpoint_efficiency(
                interval, config.checkpoint_cost_s, mtti_h * 3600.0,
                config.restart_s),
            controller=controller))

    # Scheduler: chaos owns the clock; checknode consults live fault state
    # (statically failed nodes stay drained even across a chaos repair).
    down = np.zeros(spec.node_count, dtype=np.int64)  # overlapping faults
    static = np.zeros(spec.node_count, dtype=bool)
    sched = SlurmScheduler(
        n_nodes=spec.node_count,
        checknode=lambda nodes: (down[nodes] == 0) & ~static[nodes])
    for node in deg.failed_nodes:
        sched.drain(node)
        static[node] = True
    pool = None
    if spare_target > 0:
        from repro.chaos.heal import SparePool
        pool = SparePool.reserve(sched, spare_target)
    horizon_s = config.horizon_h * 3600.0
    by_sched_id: dict[int, _JobRun] = {}

    def submit(run: _JobRun, t_s: float) -> None:
        run.pending_since_s = t_s
        run.sched_id = sched.submit(JobRequest(
            n_nodes=run.n_nodes, duration_s=max(horizon_s - t_s, 1.0),
            name=run.name))
        by_sched_id[run.sched_id] = run

    def interrupt(run: _JobRun, t_s: float) -> None:
        """Close the run's segment and record one interrupt, feeding the
        adaptive checkpoint controller if the run has one."""
        run.close_segment(t_s)
        run.interrupts += 1
        obs.counter("chaos.interrupts").inc()
        if run.controller is not None:
            run.interval_s = run.controller.update(run.running_s / 3600.0,
                                                   run.interrupts)

    def poll_starts(t_s: float, delta_mult: float) -> None:
        """Open segments for jobs the scheduler just started."""
        for run in runs:
            if run.sched_id is None or run.is_running:
                continue
            job = sched.job(run.sched_id)
            if job.state is JobState.RUNNING:
                run.open_segment(t_s, config.checkpoint_cost_s * delta_mult,
                                 after_interrupt=run.interrupts > 0)

    # Availability bookkeeping (refcounted: overlapping blasts).
    down_since: dict[int, float] = {}
    node_down_hours = 0.0
    link_down: dict[int, int] = {}
    storage_down = 0
    fabric_series: list[dict[str, float]] = []

    def measure_fabric(t_h: float) -> None:
        if net is None:
            return
        healthy = np.flatnonzero(down == 0).tolist()
        eps = [ep for n in healthy for ep in net.node_endpoints(n)]
        if len(eps) < 2:
            return
        arr = np.asarray(eps, dtype=np.int64)
        pairs = np.stack([arr, np.roll(arr, -1)], axis=1)
        _, result = net.flow_bandwidths(pairs)
        fabric_series.append({
            "t_h": t_h, "n_flows": float(len(pairs)),
            "min_gbs": float(np.min(result.rates)) / 1e9,
            "mean_gbs": float(np.mean(result.rates)) / 1e9})

    def close_all_running(t_s: float) -> None:
        for run in runs:
            if run.is_running:
                run.close_segment(t_s)

    def reopen_all(t_s: float, delta_mult: float) -> None:
        for run in runs:
            if (run.sched_id is not None and not run.is_running
                    and sched.job(run.sched_id).state is JobState.RUNNING):
                run.open_segment(t_s,
                                 config.checkpoint_cost_s * delta_mult,
                                 after_interrupt=False)

    # Merge faults and (in-horizon) repairs into one ordered schedule.
    schedule: list[tuple[float, int, int, object]] = []
    for ev in timeline.events:
        schedule.append((ev.time_h, 0, ev.index, ev))
        if ev.repair_h < config.horizon_h:
            schedule.append((ev.repair_h, 1, ev.index, ev))
    schedule.sort(key=lambda item: (item[0], item[1], item[2]))

    with obs.span("chaos.run", spec=spec.name, events=len(timeline),
                  horizon_h=config.horizon_h):
        sched.now = 0.0
        for run in runs:
            submit(run, 0.0)
        poll_starts(0.0, 1.0)
        if net is not None:
            measure_fabric(0.0)

        for t_h, phase, _, ev in schedule:
            t_s = t_h * 3600.0
            sched.now = t_s
            mult_before = config.storage_slowdown if storage_down else 1.0
            if phase == 0:                                   # fault
                obs.counter(f"chaos.faults.{ev.kind}").inc()
                if ev.kind == "storage":
                    storage_down += 1
                    if storage_down == 1:
                        # checkpoint cost scales up: close segments at the
                        # old delta, reopen at the new one.
                        close_all_running(t_s)
                        reopen_all(t_s, config.storage_slowdown)
                    continue
                if ev.link is not None:
                    link_down[ev.link] = link_down.get(ev.link, 0) + 1
                    if link_down[ev.link] == 1 and net is not None:
                        net.disable_link(ev.link)
                for node in ev.victims:
                    down[node] += 1
                    if down[node] == 1:
                        down_since[node] = t_s
                        if net is not None:
                            net.disable_node(node)
                interrupted: list[_JobRun] = []
                healed_jobs: list[int] = []
                dying = set(ev.victims)
                for node in ev.victims:
                    if pool is not None and pool.holds(node):
                        # The blast hit the spare pool itself.
                        pool.discard(node)
                        spares_lost += 1
                        sched.fail_node(node)
                        continue
                    if pool is not None:
                        owner = sched.running_job_on(node)
                        if owner is not None and owner in by_sched_id:
                            spare = pool.take(
                                sched.job(owner).nodes,
                                policy=resilience.replace_policy,
                                exclude=dying)
                            if spare is not None:
                                # Heal: swap the spare in under the live
                                # allocation — the job rewinds to its last
                                # checkpoint but never re-queues.
                                sched.replace_node(node, spare)
                                replacements += 1
                                if owner not in healed_jobs:
                                    healed_jobs.append(owner)
                                    interrupt(by_sched_id[owner], t_s)
                                continue
                    job_id = sched.fail_node(node)
                    if job_id is not None and job_id in by_sched_id:
                        run = by_sched_id.pop(job_id)
                        requeues += 1
                        if job_id in healed_jobs:
                            # Pool went dry mid-event: the job we healed a
                            # moment ago is now cancelled after all.  The
                            # interrupt is already accounted; just requeue.
                            healed_jobs.remove(job_id)
                            run.close_segment(t_s)
                            submit(run, t_s)
                        else:
                            interrupted.append(run)
                for run in interrupted:
                    interrupt(run, t_s)
                    submit(run, t_s)
                mult = config.storage_slowdown if storage_down else 1.0
                # poll_starts reopens healed jobs too: they are RUNNING in
                # the scheduler with a closed segment, and pay the restart
                # penalty (after_interrupt) like any post-interrupt start.
                poll_starts(t_s, mult)
                if ev.link is not None:
                    measure_fabric(t_h)
            else:                                            # repair
                obs.counter(f"chaos.repairs.{ev.kind}").inc()
                if ev.kind == "storage":
                    storage_down -= 1
                    if storage_down == 0:
                        close_all_running(t_s)
                        reopen_all(t_s, 1.0)
                    continue
                if ev.link is not None:
                    link_down[ev.link] -= 1
                    if link_down[ev.link] == 0 and net is not None:
                        net.enable_link(ev.link)
                for node in ev.victims:
                    down[node] -= 1
                    if down[node] == 0:
                        node_down_hours += (t_s - down_since.pop(node)) / 3600.0
                        if net is not None:
                            net.enable_node(node)
                        if sched.node_state(node).value == "drain":
                            if (pool is not None and pool.size < pool.target
                                    and sched.queue_depth == 0):
                                # Repairs replenish the pool first — but
                                # never while a job is starving in queue.
                                if sched.resume_to_spare(node):
                                    pool.add(node)
                                    replenished += 1
                            else:
                                sched.resume(node)
                poll_starts(t_s, mult_before)
                if ev.link is not None:
                    measure_fabric(t_h)

        sched.now = horizon_s
        close_all_running(horizon_s)
        for node, since in down_since.items():
            node_down_hours += (horizon_s - since) / 3600.0

    if heal_counters is not None:
        heal_counters.update(
            spare_target=spare_target, replacements=replacements,
            requeues=requeues, replenished=replenished,
            spares_lost=spares_lost)

    availability = 1.0 - node_down_hours / (spec.node_count * config.horizon_h)
    result = ChaosResult(
        spec=spec, config=config, timeline=timeline,
        jobs=[run.report() for run in runs],
        machine_availability=availability,
        node_down_hours=node_down_hours,
        job_series={run.name: list(run.series) for run in runs},
        fabric_series=fabric_series,
        run_id=chaos_run_id(spec, config))
    obs.gauge("chaos.machine_availability").set(availability)
    return result


# -- resumable artifacts ------------------------------------------------------

#: Chaos runs: ``chaos-<run_id>.json``, id at ``run_id``.
CHAOS_LEDGER = Ledger(prefix="chaos-", schema=CHAOS_SCHEMA_VERSION,
                      id_key="run_id")


def run_chaos_cached(spec: MachineSpec, config: ChaosConfig | None = None, *,
                     out_dir: str = DEFAULT_CHAOS_DIR, fresh: bool = False
                     ) -> tuple[dict[str, Any], str, bool]:
    """Run (or resume) a chaos experiment; returns (doc, path, resumed).

    ``fresh=True`` ignores and overwrites any existing artifact.
    """
    config = config if config is not None else ChaosConfig()
    run_id = chaos_run_id(spec, config)
    path = CHAOS_LEDGER.path(out_dir, run_id)
    doc = None if fresh else CHAOS_LEDGER.resume(out_dir, run_id)
    if doc is not None:
        obs.counter("chaos.artifacts_resumed").inc()
        return doc, path, True
    doc = run_chaos(spec, config).to_doc()
    write_json(path, doc)
    obs.counter("chaos.artifacts_written").inc()
    return doc, path, False


def validation_config(**overrides: Any) -> ChaosConfig:
    """The cross-validation configuration (see :mod:`repro.chaos.validate`).

    Uniform radius-1 blasts on a 32-node machine with accelerated FIT
    rates: >= 1,000 events in the horizon, spares cover concurrent
    repairs, and MttiModel is exact — so measured rates must match it.
    """
    base = dict(horizon_h=1000.0, seed=0, checkpoint_cost_s=60.0,
                restart_s=120.0, uniform_blast=True, mttr_scale=0.1,
                measure_fabric=False)
    base.update(overrides)
    return ChaosConfig(**base)


def validation_spec(failure_scale: float = 600.0,
                    checkpoint_policy: str = "daly",
                    checkpoint_interval_s: float | None = None) -> MachineSpec:
    """The 32-node scaled-dragonfly spec the validation gate runs on."""
    from repro.core.scenario import frontier_spec
    spec = frontier_spec().scaled(8, 4, 4)
    return replace(spec, degradation=replace(
        spec.degradation, failure_scale=failure_scale,
        checkpoint_policy=checkpoint_policy,
        checkpoint_interval_s=checkpoint_interval_s))
