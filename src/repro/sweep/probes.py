"""Sweep probes: ``(MachineSpec, Generator) -> {metric: float}``.

These are the evaluations a sweep runs at every grid point.  Unlike the
regression probes in :mod:`repro.obs.probes` (fixed machine, fixed
seeds), a sweep probe is parameterised by the scenario under test and by
an independent per-task RNG stream, so the same probe can be swept
across scales, routing policies, and degradation states.

Contract: a probe is a **module-level** function (worker processes look
it up by name in :data:`SWEEP_PROBES` after a fresh import), it is
deterministic given ``(spec, rng)``, and it returns a flat dict of float
metrics.  Raising is fine — the runner retries and then records a
structured error artifact instead of aborting the sweep.

``failing`` and ``flaky`` are deliberate fault injectors used by the
test suite and the CI smoke job to exercise exactly that path.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.apps import CAAR_APPS, ECP_APPS
from repro.chaos import ChaosConfig, run_chaos
from repro.core.compare import project_family
from repro.core.family import family
from repro.core.machine import Machine
from repro.core.scenario import MachineSpec, off_default
from repro.fabric.congest import CongestConfig, congest_scenario
from repro.fabric.timeflow import TimeflowConfig, TimeflowEngine
from repro.microbench.mpigraph import spec_mpigraph
from repro.mpi.job import JobLayout
from repro.scheduler.placement import allocation_stats
from repro.scheduler.slurm import JobRequest, SlurmScheduler
from repro.storage.iosim import CheckpointScenario
from repro.sweep.artifacts import ARTIFACT_SCHEMA_VERSION

if TYPE_CHECKING:
    from repro.sweep.plan import SweepTask

__all__ = ["SWEEP_PROBES", "SweepProbe", "congest_ensemble_key",
           "evaluate_congest_ensemble"]

SweepProbe = Callable[[MachineSpec, np.random.Generator], Mapping[str, Any]]

def probe_mpigraph(spec: MachineSpec,
                   rng: np.random.Generator) -> dict[str, float]:
    """Figure 6 shape metrics for the machine the spec describes."""
    hist, _mode = spec_mpigraph(spec, rng)
    return {
        "min_gbs": hist.min_gbs,
        "median_gbs": hist.quantile(0.5) / 1e9,
        "max_gbs": hist.max_gbs,
        "spread": hist.spread,
    }


def probe_comm(spec: MachineSpec,
               rng: np.random.Generator) -> dict[str, float]:
    """Communication-cost oracle on an up-to-64-node job of this machine."""
    nodes = min(spec.healthy_node_count, 64)
    comm = Machine.from_spec(spec).comm(JobLayout.contiguous(nodes))
    ranks = nodes * comm.layout.ppn
    metrics = {
        "allreduce_8B_s": comm.allreduce_time(8.0),
        "alltoall_1MiB_s": comm.alltoall_time(float(1 << 20)),
        "halo_1MiB_s": comm.halo_exchange_time(float(1 << 20)),
    }
    if nodes > 1:
        # p2p to a rank on another node: first rank of the last node.
        metrics["p2p_off_node_1MiB_s"] = comm.p2p_time(
            0, (nodes - 1) * comm.layout.ppn, float(1 << 20))
    if ranks > 1:
        metrics["p2p_on_node_1MiB_s"] = comm.p2p_time(0, 1, float(1 << 20))
    return metrics


def probe_storage(spec: MachineSpec,
                  rng: np.random.Generator) -> dict[str, float]:
    """Checkpoint burst/drain accounting at this spec's scale and tiers."""
    scenario = CheckpointScenario(nodes=spec.healthy_node_count,
                                  local=spec.storage.node_local(),
                                  fs=spec.storage.filesystem())
    return {
        "burst_time_s": scenario.burst_time,
        "drain_time_s": scenario.drain_time,
        "burst_buffer_speedup": scenario.burst_buffer_speedup,
        "drain_fits_interval": float(scenario.drain_fits_interval),
    }


def probe_placement(spec: MachineSpec,
                    rng: np.random.Generator) -> dict[str, float]:
    """Topology-aware scheduling of an RNG-drawn workload on this machine."""
    drained = np.array(spec.degradation.failed_nodes, dtype=np.int64)
    sched = SlurmScheduler(n_nodes=spec.node_count,
                           checknode=lambda nodes: ~np.isin(nodes, drained))
    n_jobs = 8
    sizes = rng.integers(1, max(2, spec.healthy_node_count // 2),
                         size=n_jobs)
    ids = [sched.submit(JobRequest(n_nodes=int(n), duration_s=100.0 + int(n)))
           for n in sizes]
    sched.run_until_idle()
    cfg = spec.fabric_config() if spec.fabric.kind == "dragonfly" else None
    spanned = sum(allocation_stats(sched.job(j).nodes, cfg).groups_spanned
                  for j in ids)
    return {
        "makespan_s": sched.now,
        "groups_spanned_total": float(spanned),
        "jobs_completed": float(sum(
            1 for j in ids if sched.job(j).state.value == "CD")),
    }


def probe_chaos(spec: MachineSpec,
                rng: np.random.Generator) -> dict[str, float]:
    """A 24-hour chaos run on this machine (see :mod:`repro.chaos`).

    Honours the spec's ``failure_scale`` and ``checkpoint_policy`` knobs
    (the ``failure_scale`` / ``checkpoint_policy`` sweep axes).  Fabric
    measurement is off: the scheduler/checkpoint story scales to the
    full machine, flow solves do not.
    """
    config = ChaosConfig(horizon_h=24.0, measure_fabric=False)
    result = run_chaos(spec, config, rng=rng)
    effs = [j.measured_efficiency for j in result.jobs]
    return {
        "events": float(len(result.timeline)),
        "interrupts": float(sum(j.interrupts for j in result.jobs)),
        "machine_availability": result.machine_availability,
        "mean_efficiency": float(np.mean(effs)) if effs else 0.0,
        "min_efficiency": float(np.min(effs)) if effs else 0.0,
        "committed_node_hours": float(sum(
            j.committed_h * j.n_nodes for j in result.jobs)),
    }


def probe_heal(spec: MachineSpec,
               rng: np.random.Generator) -> dict[str, float]:
    """A 24-hour *policy-armed* chaos run: healed vs. unhealed deltas.

    The sweep face of :mod:`repro.chaos.heal`: the ``spare_fraction`` /
    ``adaptive_checkpointing`` axes land in ``spec.resilience`` and this
    probe replays the same fault timeline with the policy stripped and
    active, reporting the availability/goodput deltas the policy bought.
    A default-resilience spec reports zero deltas (no policy arm).
    """
    config = ChaosConfig(horizon_h=24.0, measure_fabric=False,
                         job_fractions=(0.25, 0.25, 0.5))
    result = run_chaos(spec, config, rng=rng)
    heal = result.heal
    values = {
        "events": float(len(result.timeline)),
        "interrupts": float(sum(j.interrupts for j in result.jobs)),
        "machine_availability": result.machine_availability,
    }
    if heal is None:
        values.update(job_availability=0.0, availability_delta=0.0,
                      goodput_delta=0.0, replacements=0.0, requeues=0.0,
                      replenished=0.0)
    else:
        values.update(
            job_availability=heal.healed_job_availability,
            availability_delta=heal.availability_delta,
            goodput_delta=heal.goodput_delta,
            replacements=float(heal.replacements),
            requeues=float(heal.requeues),
            replenished=float(heal.replenished))
    return values


def probe_compare(spec: MachineSpec,
                  rng: np.random.Generator) -> dict[str, float]:
    """Cross-machine study metrics for the spec's family at its scale.

    The sweep face of :mod:`repro.core.compare`: the ``machine_family``
    axis picks the preset, this probe projects HPL/HPCG at the (possibly
    rescaled or degraded) node count and scores the family's application
    KPP margins.  Each metric is a scalar, so a
    ``machine_family=frontier,summit,aurora`` grid tabulates directly.
    """
    fam = family(spec.family)
    p = project_family(fam, node_count=spec.healthy_node_count,
                       nics_per_node=spec.nics_per_node)
    margins = [a.kpp_result(fam.model).margin
               for a in (*CAAR_APPS(), *ECP_APPS())]
    return {
        "hpl_projected_pflops": p.hpl_flops / 1e15,
        "hpcg_projected_pflops": p.hpcg_projected_flops / 1e15,
        "hpl_vs_measured": p.hpl_vs_measured,
        "compute_bound_pflops": p.compute_bound_flops / 1e15,
        "bandwidth_bound_pflops": p.bandwidth_bound_flops / 1e15,
        "interconnect_bound_pflops": p.interconnect_bound_flops / 1e15,
        "kpp_min_margin": float(min(margins)),
        "kpp_mean_margin": float(np.mean(margins)),
        "kpp_met": float(sum(1 for m in margins if m >= 1.0)),
    }


def _congest_neutral_dict(spec: MachineSpec) -> dict[str, Any]:
    """``spec.to_dict()`` with the ECN control knobs erased.

    Two congest tasks whose specs differ *only* in ``congestion.ecn`` /
    ``congestion.ecn_k`` describe the same fabric, the same incast
    traffic, and the same time grid — only the AIMD control law varies.
    This neutral dict is the identity an ensemble batch groups on, and
    the seed source for the scenario build, so every ECN variant draws
    the identical network and flow set.
    """
    doc = spec.to_dict()
    doc.pop("congestion", None)
    # The remaining knobs key per field, so an all-defaults spec and one
    # that spells the defaults out key identically.
    cong = off_default(spec.congestion, ("burst_duty", "incast_fanin"))
    if cong:
        doc["congestion"] = cong
    return doc


def _congest_seed(spec: MachineSpec) -> int:
    """Content-derived scenario seed from the ECN-neutral spec dict."""
    blob = json.dumps(_congest_neutral_dict(spec), sort_keys=True,
                      separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8],
                          "big") >> 1


def _congest_engine(spec: MachineSpec, cfg):
    """A timeflow engine over the congest scenario of the spec's own
    fabric, with its fanin and burst duty, seeded from its ECN-neutral
    content — *not* from the per-task RNG stream — so tasks that differ
    only in ECN knobs build bit-identical scenarios and can integrate as
    one ensemble."""
    knobs = spec.congestion
    return TimeflowEngine(*congest_scenario(spec, CongestConfig(
        fanin=knobs.incast_fanin, duty=knobs.burst_duty,
        seed=_congest_seed(spec))), cfg)


def _congest_config(spec: MachineSpec):
    knobs = spec.congestion
    return TimeflowConfig(ecn=knobs.ecn, ecn_k=float(knobs.ecn_k),
                          warmup_s=1e-4)


def _congest_values(result, cfg) -> dict[str, float]:
    victim = result.cls("victim")
    return {
        "victim_latency_p50_s": victim.latency["p50"],
        "victim_latency_p99_s": victim.latency["p99"],
        "victim_completed": float(victim.completed),
        "congestor_goodput_gbs": result.cls("congestor").goodput / 1e9,
        "max_queue_mtus": result.max_queue_bytes / cfg.mtu_bytes,
        "marks": float(result.marks),
    }


def probe_congest(spec: MachineSpec,
                  rng: np.random.Generator) -> dict[str, float]:
    """One timeflow incast run honouring the spec's congestion knobs.

    This is the sweep face of :mod:`repro.fabric.timeflow`: the
    ``ecn_k`` / ``burst_duty`` / ``incast_fanin`` axes land in
    ``spec.congestion`` and this probe runs exactly that configuration
    (one arm, not the k-sweep study — the grid *is* the sweep) on the
    spec's own fabric, at any scale.

    The scenario (network + flows) seeds from the ECN-neutral spec
    content, not from ``rng``: ECN variants of one spec then share a
    bit-identical scenario, which is what lets the serve layer evaluate
    a batch of them as one :meth:`TimeflowEngine.run_ensemble` call
    (:func:`evaluate_congest_ensemble`) with unchanged per-task values.
    """
    cfg = _congest_config(spec)
    return _congest_values(_congest_engine(spec, cfg).run(), cfg)


def congest_ensemble_key(task: "SweepTask") -> str | None:
    """The grouping identity for ensemble-batchable congest tasks.

    Tasks with equal keys share everything but the ECN control law, so
    :func:`evaluate_congest_ensemble` can integrate them as one batched
    run.  ``None`` marks a task that cannot join an ensemble (any other
    probe).
    """
    if task.probe != "congest":
        return None
    blob = json.dumps(_congest_neutral_dict(task.spec), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def evaluate_congest_ensemble(tasks: Sequence["SweepTask"],
                              isolate_obs: bool = True
                              ) -> dict[str, dict[str, Any]]:
    """Evaluate same-scenario congest tasks as one ensemble integration.

    Returns ``{task_id: artifact document}`` with the same schema as
    :func:`repro.sweep.runner.execute_task` — and, by the engine's
    oracle contract, the same ``values`` each task would produce alone —
    plus ``timing.ensemble_size`` recording the batch width.  All tasks
    must share one :func:`congest_ensemble_key`.  Exceptions propagate:
    the caller (``serve.batching``) falls back to per-task execution.
    """
    keys = {congest_ensemble_key(t) for t in tasks}
    if len(keys) != 1 or None in keys:
        raise ValueError(f"tasks of one ensemble must share a congest "
                         f"scenario; keys: {sorted(map(str, keys))}")
    if isolate_obs:
        obs.reset()
        obs.enable(tracing=False, metrics=True)
    start = time.perf_counter()
    try:
        cfgs = [_congest_config(t.spec) for t in tasks]
        results = _congest_engine(tasks[0].spec, cfgs[0]).run_ensemble(cfgs)
        wall = time.perf_counter() - start
        snapshot = obs.registry().snapshot() if isolate_obs else {}
        docs: dict[str, dict[str, Any]] = {}
        for i, (task, result) in enumerate(zip(tasks, results)):
            values = _congest_values(result, cfgs[i])
            docs[task.task_id] = {
                "schema": ARTIFACT_SCHEMA_VERSION,
                "task": task.to_dict(),
                "status": "ok",
                "values": {k: float(v) for k, v in values.items()},
                "timing": {"wall_time_s": wall, "attempts": 1,
                           "ensemble_size": len(tasks)},
                # one snapshot for the whole batch: attach it once so a
                # merge of every document counts the work exactly once.
                "metrics": snapshot if i == 0 else {},
            }
        return docs
    finally:
        if isolate_obs:
            obs.disable()
            obs.reset()


# -- fault injection (tests + CI smoke) ---------------------------------------


def probe_failing(spec: MachineSpec,
                  rng: np.random.Generator) -> dict[str, float]:
    """Always raises: exercises retry + structured error artifacts."""
    raise RuntimeError(f"injected sweep failure for scenario {spec.name!r}")


def probe_flaky(spec: MachineSpec,
                rng: np.random.Generator) -> dict[str, float]:
    """Fails once per scenario, then succeeds — the retry-success path.

    Needs ``REPRO_SWEEP_FLAKY_DIR`` pointing at a scratch directory the
    attempts share (sentinel files survive the worker-process boundary);
    without it the probe succeeds immediately.
    """
    scratch = os.environ.get("REPRO_SWEEP_FLAKY_DIR", "").strip()
    if not scratch:
        return {"recovered": 0.0}
    sentinel = os.path.join(scratch, f".flaky-{spec.name}")
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("first attempt\n")
        raise RuntimeError(
            f"injected first-attempt failure for scenario {spec.name!r}")
    return {"recovered": 1.0}


def probe_sleepy(spec: MachineSpec,
                 rng: np.random.Generator) -> dict[str, float]:
    """Sleeps ``REPRO_SWEEP_SLEEP_S`` seconds: exercises ``--timeout``."""
    delay = float(os.environ.get("REPRO_SWEEP_SLEEP_S", "0") or 0)
    if delay > 0:
        time.sleep(delay)
    return {"slept_s": delay}


#: Name -> probe; the registry worker processes resolve tasks against.
SWEEP_PROBES: dict[str, SweepProbe] = {
    "mpigraph": probe_mpigraph,
    "comm": probe_comm,
    "storage": probe_storage,
    "placement": probe_placement,
    "chaos": probe_chaos,
    "heal": probe_heal,
    "compare": probe_compare,
    "congest": probe_congest,
    "failing": probe_failing,
    "flaky": probe_flaky,
    "sleepy": probe_sleepy,
}
