"""Self-healing chaos: spare pools + the heal cross-validation gate.

The chaos engine is *open-loop* by default: faults land, jobs die, and
nothing reacts.  This module closes the loop with the two mechanisms
real exascale operation leans on:

* :class:`SparePool` — a warm standby pool carved out of the machine
  (``MachineSpec.resilience.spare_fraction``).  When a blast radius hits
  a running job, the engine backfills the victim node from the pool via
  :meth:`~repro.scheduler.slurm.SlurmScheduler.replace_node` —
  topology-aware (``replace_policy``: pack near the surviving job block,
  spread away from it, or any) — so the job rewinds to its checkpoint
  but never re-queues.  A dry pool falls back to the classic
  cancel-and-requeue path, and repairs replenish the pool (unless a job
  is starving in the queue, which takes priority).
* the **adaptive checkpoint controller**
  (:class:`repro.resilience.adaptive.AdaptiveCheckpointController`) —
  enabled by ``resilience.adaptive_checkpointing``; per-job intervals
  track the *measured* interrupt rate instead of the operator's model.

When the resilience policy is non-default, :func:`repro.chaos.run_chaos`
replays the same timeline twice — policy stripped vs. active — and
attaches a :class:`HealReport` with the availability/goodput deltas.

:func:`cross_validate_heal` is the gate (same idiom as
:mod:`repro.chaos.validate`): three arms on the pinned 32-node scenario
assert that (1) with measured == modeled the adaptive interval converges
to within ±10% of the analytic Daly optimum, (2) with a mis-modeled
prior the adaptive policy's measured efficiency beats the fixed-analytic
interval, and (3) spare-pool healing strictly improves fleet job
availability over requeue at accelerated FIT rates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.chaos.engine import (run_chaos, validation_config,
                                validation_spec)
from repro.core.scenario import REPLACE_POLICIES, ResiliencePolicySpec
from repro.errors import ConfigurationError
from repro.resilience.checkpoint import CheckpointPlan
from repro.resilience.fit import frontier_fit_inventory
from repro.resilience.mtti import MttiModel
from repro.scheduler.placement import NODES_PER_GROUP, is_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.engine import ChaosResult, JobReport
    from repro.scheduler.slurm import SlurmScheduler

__all__ = ["SparePool", "HealReport", "HealValidationReport",
           "build_heal_report", "heal_validation_spec",
           "cross_validate_heal", "INTERVAL_TOLERANCE"]

#: Gate tolerance on the adaptive steady-state interval vs. the analytic
#: Daly optimum (ISSUE acceptance criteria).
INTERVAL_TOLERANCE = 0.10


class SparePool:
    """The warm standby pool, kept in sync with scheduler RESERVED state.

    The pool only *chooses* nodes; all state transitions go through the
    scheduler (``reserve_spare`` / ``replace_node`` / ``resume_to_spare``)
    so node accounting has a single owner.
    """

    def __init__(self, nodes: Iterable[int], target: int,
                 nodes_per_group: int = NODES_PER_GROUP):
        self._nodes = set(nodes)
        self.target = target
        self.nodes_per_group = nodes_per_group

    @classmethod
    def reserve(cls, sched: "SlurmScheduler", target: int,
                nodes_per_group: int | None = None) -> "SparePool":
        """Carve ``target`` idle nodes into the pool, spread over groups.

        Takes the highest-numbered idle node of each group round-robin:
        spread, so one blast radius cannot eat the whole pool, and from
        the top, so packed placement of the workload is least disturbed.
        ``target`` must be a whole number no larger than the idle node
        count (:class:`ConfigurationError` otherwise).
        """
        npg = nodes_per_group if nodes_per_group is not None \
            else sched.nodes_per_group
        free = np.array(sorted(sched.free_nodes), dtype=np.int64)
        if not is_count(target) or not 0 <= target <= len(free):
            raise ConfigurationError(
                f"spare pool target must be a whole number in "
                f"[0, {len(free)}] (the idle nodes), got {target!r}")
        group = free // npg
        # depth below the top of the node's group run (0: its highest)
        tops = np.flatnonzero(np.append(group[1:] != group[:-1], True))
        at = np.arange(len(free))
        depth = tops[np.searchsorted(tops, at)] - at
        # round by round (depth), lowest group first within a round
        chosen = free[np.lexsort((group, depth))[:target]].tolist()
        for node in chosen:
            sched.reserve_spare(node)
        return cls(chosen, target, npg)

    @property
    def size(self) -> int:
        return len(self._nodes)

    def holds(self, node: int) -> bool:
        return node in self._nodes

    def add(self, node: int) -> None:
        self._nodes.add(node)

    def discard(self, node: int) -> None:
        self._nodes.discard(node)

    def take(self, job_nodes: np.ndarray, policy: str = "pack",
             exclude: Iterable[int] = ()) -> int | None:
        """Pick (and remove) the replacement spare for a dying job node.

        ``job_nodes`` is the job's node id array.  ``pack`` prefers the
        spare in the group holding the most surviving job nodes
        (topology-close to the job block); ``spread`` the fewest; ``any``
        the lowest node id; ties go to the lowest node id.  Nodes in
        ``exclude`` (e.g. this event's other victims) are never picked.
        Returns ``None`` when the pool is dry; an unknown ``policy``
        raises :class:`ConfigurationError`.
        """
        if policy not in REPLACE_POLICIES:
            raise ConfigurationError(
                f"replace policy must be one of {REPLACE_POLICIES}, "
                f"got {policy!r}")
        banned = set(exclude)
        free = [n for n in self._nodes if n not in banned]
        if not free:
            return None
        if policy == "any":
            chosen = min(free)
        else:
            # Score each candidate by the job nodes in its group (pack:
            # most first, spread: fewest) and break ties by node id: one
            # argmin over score * stride + node, stride above every id.
            npg = self.nodes_per_group
            stride = (max(free) // npg + 1) * npg
            counts = np.bincount(np.asarray(job_nodes, dtype=np.int64) // npg,
                                 minlength=stride // npg)
            candidates = np.array(free, dtype=np.int64)
            sign = -1 if policy == "pack" else 1
            key = counts[candidates // npg] * (sign * stride) + candidates
            chosen = free[int(key.argmin())]
        self._nodes.discard(chosen)
        return chosen


# -- healed-vs-unhealed comparison -------------------------------------------


def _fleet_stats(jobs: Iterable["JobReport"]) -> tuple[float, float, float]:
    """(job availability, goodput, committed hours) over the fleet."""
    running = queued = committed = 0.0
    for j in jobs:
        running += j.running_h
        queued += j.queued_h
        committed += j.committed_h
    total = running + queued
    availability = running / total if total > 0 else 0.0
    goodput = committed / total if total > 0 else 0.0
    return availability, goodput, committed


@dataclass(frozen=True)
class HealReport:
    """What the healing policy bought, on the same fault timeline."""

    spare_target: int
    replacements: int
    requeues: int
    replenished: int
    spares_lost: int
    adaptive: bool
    baseline_job_availability: float
    baseline_goodput: float
    baseline_committed_h: float
    healed_job_availability: float
    healed_goodput: float
    healed_committed_h: float

    @property
    def availability_delta(self) -> float:
        return self.healed_job_availability - self.baseline_job_availability

    @property
    def goodput_delta(self) -> float:
        return self.healed_goodput - self.baseline_goodput

    @property
    def committed_delta_h(self) -> float:
        return self.healed_committed_h - self.baseline_committed_h

    def to_doc(self) -> dict[str, Any]:
        return {
            "spare_target": self.spare_target,
            "replacements": self.replacements,
            "requeues": self.requeues,
            "replenished": self.replenished,
            "spares_lost": self.spares_lost,
            "adaptive": self.adaptive,
            "baseline_job_availability": self.baseline_job_availability,
            "baseline_goodput": self.baseline_goodput,
            "baseline_committed_h": self.baseline_committed_h,
            "healed_job_availability": self.healed_job_availability,
            "healed_goodput": self.healed_goodput,
            "healed_committed_h": self.healed_committed_h,
            "availability_delta": self.availability_delta,
            "goodput_delta": self.goodput_delta,
            "committed_delta_h": self.committed_delta_h,
        }


def build_heal_report(*, baseline: "ChaosResult", healed: "ChaosResult",
                      counters: dict[str, int]) -> HealReport:
    """Fold the two policy-arm runs into one comparison document."""
    base_avail, base_goodput, base_committed = _fleet_stats(baseline.jobs)
    heal_avail, heal_goodput, heal_committed = _fleet_stats(healed.jobs)
    return HealReport(
        spare_target=counters.get("spare_target", 0),
        replacements=counters.get("replacements", 0),
        requeues=counters.get("requeues", 0),
        replenished=counters.get("replenished", 0),
        spares_lost=counters.get("spares_lost", 0),
        adaptive=healed.spec.resilience.adaptive_checkpointing,
        baseline_job_availability=base_avail,
        baseline_goodput=base_goodput,
        baseline_committed_h=base_committed,
        healed_job_availability=heal_avail,
        healed_goodput=heal_goodput,
        healed_committed_h=heal_committed)


# -- the heal cross-validation gate ------------------------------------------


def heal_validation_spec(failure_scale: float = 600.0, *,
                         spare_fraction: float = 0.0,
                         adaptive_checkpointing: bool = False,
                         replace_policy: str = "pack",
                         checkpoint_policy: str = "daly",
                         checkpoint_interval_s: float | None = None):
    """The pinned 32-node validation spec with a resilience policy arm."""
    spec = validation_spec(failure_scale=failure_scale,
                           checkpoint_policy=checkpoint_policy,
                           checkpoint_interval_s=checkpoint_interval_s)
    return replace(spec, resilience=ResiliencePolicySpec(
        spare_fraction=spare_fraction,
        adaptive_checkpointing=adaptive_checkpointing,
        replace_policy=replace_policy))


@dataclass(frozen=True)
class HealValidationReport:
    """The three-arm heal gate verdict."""

    seed: int
    #: steady-state adaptive interval / analytic Daly optimum, per job
    #: (measured == modeled arm).
    interval_ratios: tuple[float, ...]
    interrupts: int
    adaptive_efficiency: float
    fixed_efficiency: float
    baseline_availability: float
    healed_availability: float
    replacements: int
    requeues: int
    replenished: int

    @property
    def intervals_converged(self) -> bool:
        return all(abs(r - 1.0) <= INTERVAL_TOLERANCE
                   for r in self.interval_ratios)

    @property
    def adaptive_beats_fixed(self) -> bool:
        return self.adaptive_efficiency > self.fixed_efficiency

    @property
    def healing_improves_availability(self) -> bool:
        return (self.replacements > 0
                and self.healed_availability > self.baseline_availability)

    @property
    def enough_events(self) -> bool:
        return self.interrupts >= 200

    @property
    def passed(self) -> bool:
        return (self.enough_events and self.intervals_converged
                and self.adaptive_beats_fixed
                and self.healing_improves_availability)

    def to_doc(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "interval_ratios": list(self.interval_ratios),
            "interrupts": self.interrupts,
            "intervals_converged": self.intervals_converged,
            "adaptive_efficiency": self.adaptive_efficiency,
            "fixed_efficiency": self.fixed_efficiency,
            "adaptive_beats_fixed": self.adaptive_beats_fixed,
            "baseline_availability": self.baseline_availability,
            "healed_availability": self.healed_availability,
            "availability_delta": (self.healed_availability
                                   - self.baseline_availability),
            "replacements": self.replacements,
            "requeues": self.requeues,
            "replenished": self.replenished,
            "enough_events": self.enough_events,
            "passed": self.passed,
        }


def cross_validate_heal(seed: int = 0, *, horizon_h: float | None = None,
                        failure_scale: float = 600.0,
                        prior_mismatch: float = 4.0) -> HealValidationReport:
    """Run the three heal-gate arms on the pinned validation scenario.

    * **Convergence**: adaptive checkpointing with the operator's model
      *equal* to reality (``adaptive_prior_scale == failure_scale``) —
      every job's steady-state interval must land within ±10% of the
      analytic Daly optimum.
    * **Duel**: the operator's model is wrong by ``prior_mismatch``×.
      Fixed-analytic pins the (mis-modeled) prior Daly interval for the
      whole run; adaptive starts there and learns.  Measured efficiency
      must favour adaptive.
    * **Spares**: workload sized to fill the machine; the healed arm
      carves 1/8 of nodes into the pool and must beat the fully-packed
      requeue baseline on fleet job availability.

    Deterministic in ``seed``.
    """
    horizon = 1000.0 if horizon_h is None else horizon_h

    # Arm 1: measured == modeled -> the controller must sit at the optimum.
    conv_spec = heal_validation_spec(failure_scale,
                                     adaptive_checkpointing=True)
    conv_cfg = validation_config(seed=seed, horizon_h=horizon,
                                 adaptive_prior_scale=failure_scale)
    conv = run_chaos(conv_spec, conv_cfg)
    ratios = []
    for job in conv.jobs:
        plan = CheckpointPlan(checkpoint_cost_s=conv_cfg.checkpoint_cost_s,
                              mtti_s=job.analytic_mtti_h * 3600.0,
                              restart_s=conv_cfg.restart_s)
        ratios.append(job.interval_s / plan.daly_interval_s)

    # Arm 2: mis-modeled prior -> adaptive must beat fixed-analytic.
    prior_scale = failure_scale / prior_mismatch
    duel_fracs = (0.5,)
    adaptive_cfg = validation_config(seed=seed, horizon_h=horizon,
                                     adaptive_prior_scale=prior_scale,
                                     job_fractions=duel_fracs)
    adaptive_spec = heal_validation_spec(failure_scale,
                                         adaptive_checkpointing=True)
    adaptive_run = run_chaos(adaptive_spec, adaptive_cfg)
    n_nodes = adaptive_run.jobs[0].n_nodes
    prior_inventory = frontier_fit_inventory(
        nodes=adaptive_spec.node_count).scaled(prior_scale)
    prior_mtti_h = MttiModel(
        inventory=prior_inventory,
        total_nodes=adaptive_spec.node_count).job_mtti_hours(n_nodes)
    fixed_interval = CheckpointPlan(
        checkpoint_cost_s=adaptive_cfg.checkpoint_cost_s,
        mtti_s=prior_mtti_h * 3600.0,
        restart_s=adaptive_cfg.restart_s).daly_interval_s
    fixed_spec = heal_validation_spec(failure_scale,
                                      checkpoint_policy="fixed",
                                      checkpoint_interval_s=fixed_interval)
    fixed_cfg = validation_config(seed=seed, horizon_h=horizon,
                                  job_fractions=duel_fracs)
    fixed_run = run_chaos(fixed_spec, fixed_cfg)

    # Arm 3: spare-pool healing vs. fully-packed requeue.
    spare_spec = heal_validation_spec(failure_scale, spare_fraction=0.125)
    spare_cfg = validation_config(seed=seed, horizon_h=horizon,
                                  job_fractions=(0.25, 0.25, 0.5))
    spare_run = run_chaos(spare_spec, spare_cfg)
    heal = spare_run.heal

    return HealValidationReport(
        seed=seed,
        interval_ratios=tuple(ratios),
        interrupts=sum(j.interrupts for j in conv.jobs),
        adaptive_efficiency=adaptive_run.jobs[0].measured_efficiency,
        fixed_efficiency=fixed_run.jobs[0].measured_efficiency,
        baseline_availability=heal.baseline_job_availability,
        healed_availability=heal.healed_job_availability,
        replacements=heal.replacements,
        requeues=heal.requeues,
        replenished=heal.replenished)
