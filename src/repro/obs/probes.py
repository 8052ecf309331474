"""Deterministic probe suite exercising every instrumented layer.

Each probe drives one subsystem (fabric, MPI, storage, scheduler) at a
small fixed scale with pinned RNG seeds, returning a dict of scalar model
outputs.  The probes serve two purposes:

* the **perf-regression gate** (:mod:`repro.obs.regression`) snapshots
  their wall time, model values, and observability counters into
  ``benchmarks/BENCH_BASELINE.json`` and fails CI on drift;
* the **benchmark harness** runs them once per session
  (:func:`record_machine_context`) so every ``benchmarks/out/metrics.json``
  carries spans and counters from the fabric, MPI, and storage layers even
  when a single benchmark file only touches one of them.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro import obs

__all__ = ["PROBES", "run_probes", "record_machine_context"]


def probe_fabric() -> dict[str, float]:
    """Flow-level mpiGraph on a reduced-scale dragonfly (taper preserved)."""
    from repro.core.scenario import frontier_spec
    from repro.microbench.mpigraph import simulate_mpigraph

    net = frontier_spec().scaled(8, 4, 4).build_network(rng=0)
    hist = simulate_mpigraph(net, offsets=[1, 8, 16, 32, 48])
    return {
        "min_gbs": hist.min_gbs,
        "max_gbs": hist.max_gbs,
        "median_gbs": hist.quantile(0.5) / 1e9,
        "spread": hist.spread,
    }


def probe_routing() -> dict[str, float]:
    """Batch routing engine on a reduced-scale dragonfly.

    Plans a full shift pattern through ``Router.paths`` (adaptive chunk)
    and cross-checks a ``chunk=1`` plan against the scalar ``path()``
    loop, so the baseline pins both the vectorised planner's outputs and
    its sequential-equivalence contract.  The ``fabric.batch_route.*``
    counters emitted here land in the regression baseline.
    """
    import numpy as np

    from repro.core.scenario import frontier_spec
    from repro.fabric.cache import clear_fabric_caches

    spec = frontier_spec().scaled(8, 4, 4)
    clear_fabric_caches()
    net = spec.build_network(rng=0)
    n = net.config.total_endpoints
    flows, result = net.flow_bandwidths([(i, (i + 9) % n) for i in range(n)])

    # Sequential-equivalence oracle: chunk=1 must replay the scalar loop.
    batch_net = spec.build_network(rng=1)
    scalar_net = spec.build_network(rng=1)
    pairs = [(i, (i + 3) % n) for i in range(n)]
    batch_net.router.reset_load()
    scalar_net.router.reset_load()
    planned = batch_net.router.paths(pairs, chunk=1)
    scalar = [scalar_net.router.path(s, d) for s, d in pairs]
    return {
        "n_flows": float(len(flows)),
        "mean_gbs": float(np.mean(result.rates)) / 1e9,
        "max_link_utilisation": float(result.link_utilisation.max()),
        "chunk1_matches_scalar": float(planned.to_lists() == scalar),
        "links_per_flow": planned.indices.size / float(len(pairs)),
    }


def probe_cache() -> dict[str, float]:
    """Topology memo + router path cache behaviour on a small dragonfly.

    Values are deterministic 0/1 flags plus a path length, never raw
    timings (the regression gate compares values at tight rtol); wall time
    is covered by the probe's own ``wall_time_s``.
    """
    import time as _time

    from repro.core.scenario import frontier_spec
    from repro.fabric.dragonfly import build_dragonfly
    from repro.fabric.cache import clear_fabric_caches

    spec = frontier_spec().scaled(6, 4, 4)
    clear_fabric_caches()
    # Time the memoized step itself (topology materialisation) so the
    # speedup flag is far from the 10x line; router construction is cheap
    # but un-cached and would put a whole-network ratio near the boundary.
    t0 = _time.perf_counter()
    build_dragonfly(spec.fabric_config())
    cold_s = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    build_dragonfly(spec.fabric_config())
    warm_s = _time.perf_counter() - t0
    cold = spec.build_network(rng=0)
    warm = spec.build_network(rng=0)

    # Router path cache: same (src, dst) query twice without registration.
    p1 = warm.router.path(0, warm.config.total_endpoints - 1, register=False)
    p2 = warm.router.path(0, warm.config.total_endpoints - 1, register=False)
    return {
        "topology_cache_shared": float(cold.topology is warm.topology),
        "speedup_at_least_10x": float(cold_s >= 10.0 * warm_s),
        "path_cache_round_trip": float(p1 == p2),
        "path_hops": float(len(p1)),
    }


def probe_mpi() -> dict[str, float]:
    """Communication-cost oracle over a 64-node, 8-PPN job."""
    from repro.mpi.job import JobLayout
    from repro.mpi.simmpi import SimComm

    comm = SimComm(JobLayout.contiguous(64))
    return {
        "p2p_off_node_1MiB_s": comm.p2p_time(0, 300, float(1 << 20)),
        "p2p_on_node_1MiB_s": comm.p2p_time(0, 1, float(1 << 20)),
        "allreduce_8B_s": comm.allreduce_time(8.0),
        "alltoall_1MiB_s": comm.alltoall_time(float(1 << 20)),
        "halo_1MiB_s": comm.halo_exchange_time(float(1 << 20)),
    }


def probe_storage() -> dict[str, float]:
    """Checkpoint burst/drain accounting on a 1,024-node job."""
    from repro.storage.iosim import CheckpointScenario, ingest_time
    from repro.units import TiB

    scenario = CheckpointScenario(nodes=1024)
    summary = scenario.summary()
    return {
        "burst_time_s": summary["burst_time_s"],
        "drain_time_s": summary["drain_time_s"],
        "burst_buffer_speedup": summary["burst_buffer_speedup"],
        "full_ingest_700TiB_s": ingest_time(700 * TiB),
    }


def probe_scheduler() -> dict[str, float]:
    """Topology-aware scheduling of a small mixed workload."""
    from repro.scheduler.placement import allocation_stats
    from repro.scheduler.slurm import JobRequest, SlurmScheduler

    sched = SlurmScheduler(n_nodes=1024)
    sizes = [16, 300, 64, 128, 512, 8, 900, 32]
    ids = [sched.submit(JobRequest(n_nodes=n, duration_s=100.0 + n))
           for n in sizes]
    sched.run_until_idle()
    spanned = sum(
        allocation_stats(sched.job(j).nodes).groups_spanned for j in ids)
    return {
        "makespan_s": sched.now,
        "groups_spanned_total": float(spanned),
        "jobs_completed": float(sum(
            1 for j in ids if sched.job(j).state.value == "CD")),
    }


def probe_sweep() -> dict[str, float]:
    """Mini scenario sweep: expansion, retry/error path, resume ledger.

    Runs inline (``workers=0`` — worker processes would make probe wall
    time machine-dependent) into a throwaway directory, twice: the second
    pass must skip the completed tasks and retry only the injected
    failures.  Values are deterministic counts plus one model value from
    an artifact; the ``sweep.tasks_*`` counters land in the baseline.
    """
    import tempfile

    from repro.core.scenario import frontier_spec
    from repro.sweep import SweepConfig, SweepPlan, run_sweep

    plan = SweepPlan.grid(frontier_spec().scaled(6, 4, 4),
                          {"disabled_nodes": (0, 2)},
                          probes=("storage", "failing"))
    with tempfile.TemporaryDirectory() as out:
        config = SweepConfig(out_dir=out, workers=0, retries=1,
                             backoff_s=0.0)
        first = run_sweep(plan, config)
        resumed = run_sweep(plan, config)
    ok = first.ok_artifacts()
    return {
        "tasks_planned": float(first.planned),
        "tasks_ok": float(len(ok)),
        "tasks_failed": float(first.failed),
        "resume_skipped": float(resumed.skipped),
        "burst_time_s": ok[0]["values"]["burst_time_s"],
    }


def probe_chaos() -> dict[str, float]:
    """Chaos-engine cross-validation: measured vs analytic models.

    Runs the pinned validation scenario (uniform radius-1 blasts, 32
    nodes, ~2,450 events over 1,000 h) and reports the measured/analytic
    ratios per job size plus hard 0/1 gate flags — so CI fails if the
    engine's interrupt statistics drift off ``MttiModel`` (±10%) or its
    efficiency accounting off ``checkpoint_efficiency`` (±5%).  The
    ``chaos.*`` counters emitted by the run land in the baseline too.
    """
    from repro.chaos import cross_validate

    report = cross_validate(seed=0)
    values: dict[str, float] = {
        "events": float(report.n_events),
        "machine_availability": report.machine_availability,
        "mtti_within_10pct": float(all(j.rate_ok for j in report.jobs)),
        "eff_within_5pct": float(all(j.efficiency_ok for j in report.jobs)),
        "passed": float(report.passed),
    }
    for j in report.jobs:
        values[f"rate_ratio_{j.n_nodes}n"] = j.rate_ratio
        values[f"eff_ratio_{j.n_nodes}n"] = j.efficiency_ratio
    return values


def probe_heal() -> dict[str, float]:
    """Self-healing chaos gate: spare pools + adaptive checkpointing.

    Runs the three-arm heal cross-validation
    (:func:`repro.chaos.heal.cross_validate_heal`) on the pinned 32-node
    scenario and pins hard 0/1 flags for the ISSUE acceptance criteria:
    the adaptive controller's steady-state interval within ±10% of the
    analytic Daly optimum when measured == modeled, adaptive beating the
    mis-modeled fixed-analytic interval, and spare-pool healing strictly
    improving fleet job availability over cancel-and-requeue.  The
    ``scheduler.nodes_replaced`` counter rides along in the baseline.
    """
    from repro.chaos import cross_validate_heal

    report = cross_validate_heal(seed=0)
    values: dict[str, float] = {
        "interrupts": float(report.interrupts),
        "intervals_converged": float(report.intervals_converged),
        "adaptive_efficiency": report.adaptive_efficiency,
        "fixed_efficiency": report.fixed_efficiency,
        "adaptive_beats_fixed": float(report.adaptive_beats_fixed),
        "baseline_availability": report.baseline_availability,
        "healed_availability": report.healed_availability,
        "healing_improves_availability": float(
            report.healing_improves_availability),
        "replacements": float(report.replacements),
        "requeues": float(report.requeues),
        "replenished": float(report.replenished),
        "passed": float(report.passed),
    }
    for i, ratio in enumerate(report.interval_ratios):
        values[f"interval_ratio_job{i}"] = ratio
    return values


def probe_congestion() -> dict[str, float]:
    """Timeflow congestion engine cross-validation and GPCNeT shape.

    Two gates on the fluid engine (:mod:`repro.fabric.timeflow`):

    * :func:`~repro.fabric.timeflow.validate_victim_impact` must
      reconstruct the analytic ``CongestionControl`` victim latency
      factor within ±15% (``analytic_within_15pct``);
    * a FIFO-vs-ECN incast pair must show the qualitative GPCNeT shape:
      the victim's p99 latency degrades sharply without backpressure and
      stays bounded with it (``fifo_vs_ecn_p99`` well above 1, and the
      ECN tail near the marking threshold).

    The ``fabric.timeflow.*`` counters emitted here land in the
    regression baseline alongside the values.
    """
    from repro.core.scenario import frontier_spec
    from repro.fabric.congest import CongestConfig, congest_scenario
    from repro.fabric.timeflow import (TimeflowConfig, TimeflowEngine,
                                       validate_victim_impact)

    validation = validate_victim_impact()
    _, net, flows = congest_scenario(frontier_spec(), CongestConfig())
    arms = {}
    for name, ecn in (("fifo", False), ("ecn", True)):
        cfg = TimeflowConfig(ecn=ecn, ecn_k=30.0, warmup_s=1e-4)
        arms[name] = TimeflowEngine(net, flows, cfg).run()
    fifo_p99 = arms["fifo"].cls("victim").latency["p99"]
    ecn_p99 = arms["ecn"].cls("victim").latency["p99"]
    return {
        "analytic_ratio": validation.ratio,
        "analytic_within_15pct": float(validation.ok),
        "validation_samples": float(validation.samples),
        "fifo_victim_p99_us": fifo_p99 * 1e6,
        "ecn_victim_p99_us": ecn_p99 * 1e6,
        "fifo_vs_ecn_p99": fifo_p99 / ecn_p99,
        "ecn_tail_bounded": float(fifo_p99 >= 2.0 * ecn_p99),
        "victim_completed": float(arms["ecn"].cls("victim").completed),
    }


def probe_ensemble() -> dict[str, float]:
    """Ensemble timeflow regression gate: batched == one-column, always.

    Runs one small congest k-sweep through
    :func:`~repro.fabric.congest.run_congest` (one batched ensemble),
    then rebuilds the same scenario and runs each arm alone through
    :meth:`~repro.fabric.timeflow.TimeflowEngine.run` on one engine.  It
    pins both the headline victim statistics and the hard 0/1 fact that
    every arm's document is byte-identical to its one-column run (the
    ``chunk=1``-style oracle ``bench_congest_ensemble.py`` gates at
    scale).  The ``fabric.timeflow.ensemble_*`` counters emitted here
    land in the baseline.
    """
    import json as _json

    from repro.core.scenario import frontier_spec
    from repro.fabric.congest import (CongestConfig, congest_scenario,
                                      run_congest)
    from repro.fabric.timeflow import TimeflowEngine

    spec = frontier_spec().scaled(8, 4, 4)
    config = CongestConfig(ks=(10.0, 60.0), horizon_s=150e-6)
    batched = run_congest(spec, config)
    cfgs = [config.arm_config(arm["ecn_k"]) for arm in batched["arms"]]
    _, net, flows = congest_scenario(spec, config)
    engine = TimeflowEngine(net, flows, cfgs[0])
    matches = all(
        _json.dumps({"mode": arm["mode"], "ecn_k": arm["ecn_k"],
                     **engine.run(cfg).to_doc()}, sort_keys=True)
        == _json.dumps(arm, sort_keys=True)
        for arm, cfg in zip(batched["arms"], cfgs))
    values: dict[str, float] = {
        "arms": float(len(batched["arms"])),
        "matches_sequential": float(matches),
        "fifo_vs_ecn_worst": max(batched["fifo_vs_ecn_p99"].values()),
    }
    for arm in batched["arms"]:
        name = ("fifo" if arm["mode"] == "fifo"
                else f"k{int(arm['ecn_k'])}")
        victim = arm["classes"]["victim"]
        values[f"{name}_victim_p99_us"] = victim["latency_s"]["p99"] * 1e6
        values[f"{name}_marks"] = float(arm["marks"])
    return values


def probe_serve() -> dict[str, float]:
    """Scenario-service regression gate: batching, caching, shedding.

    Drives :class:`~repro.serve.ScenarioService` inline (``workers=0``,
    manual ``flush()`` — worker pools and the wall-clock ticker would
    make the counts machine-dependent) against a throwaway ledger.  A
    cold pass pins batch formation, duplicate coalescing, and synchronous
    queue-overflow shedding; a warm pass with a fresh service (empty
    memory cache) must answer everything from the disk ledger.  The
    ``serve.*`` counters emitted here land in the baseline.
    """
    import asyncio
    import tempfile

    from repro.core.scenario import frontier_spec
    from repro.serve import ScenarioRequest, ScenarioService, ServeConfig

    spec = frontier_spec().scaled(6, 4, 4)

    def req(seed: int, rid: str, probe: str = "storage") -> ScenarioRequest:
        return ScenarioRequest(probe=probe, spec=spec, seed=seed, id=rid)

    async def session(out: str, requests: list[ScenarioRequest],
                      queue_depth: int = 64) -> list:
        service = ScenarioService(ServeConfig(
            workers=0, queue_depth=queue_depth, batch_window_s=60.0,
            out_dir=out))
        await service.start()
        futs = [service.submit(r) for r in requests]
        await service.flush()
        responses = await asyncio.gather(*futs)
        await service.drain()
        return responses

    with tempfile.TemporaryDirectory() as out:
        # Cold pass: 4 distinct storage tasks, 2 coalescing repeats of
        # the first, one placement task (its own batch), and a queue
        # sized so the last two submissions shed synchronously.
        cold_reqs = ([req(s, f"c{s}") for s in range(4)]
                     + [req(0, "dup0"), req(0, "dup1")]
                     + [req(0, "p0", probe="placement")]
                     + [req(9, "shed0"), req(8, "shed1")])
        cold = asyncio.run(session(out, cold_reqs, queue_depth=7))
        # Warm pass: a fresh service re-asks the four storage tasks.
        warm = asyncio.run(session(out, [req(s, f"w{s}") for s in range(4)]))

    ok = [r for r in cold if r.ok]
    shed = [r for r in cold if r.status == "shed"]
    return {
        "requests": float(len(cold) + len(warm)),
        "cold_ok": float(len(ok)),
        "cold_shed": float(len(shed)),
        "shed_is_429": float(all(r.error["code"] == 429 for r in shed)),
        "distinct_tasks": float(len({r.task_id for r in ok})),
        "max_batch_size": float(max(r.batch_size for r in ok)),
        "coalesced_share_task": float(
            len({r.task_id for r in cold if r.id in ("c0", "dup0", "dup1")})
            == 1),
        "warm_all_cached": float(all(r.cached for r in warm)),
        "warm_matches_cold": float(all(
            w.values == c.values for w, c in zip(warm, cold[:4]))),
        "burst_time_s": cold[0].values["burst_time_s"],
    }


def probe_machines() -> dict[str, float]:
    """Machine-family registry regression gate.

    For every registered family: the canonical spec must survive a JSON
    round trip, and the HPL/HPCG roofline projection plus the node
    model's headline bandwidths are snapshotted so CI fails if a preset
    or an efficiency anchor drifts.  The Frontier ±10% HPL cross-check
    (projection vs measured Rmax vs the independent GCD roofline) rides
    along as a hard 0/1 flag.
    """
    from repro.core.compare import compare_machines, project_family
    from repro.core.family import family, family_names
    from repro.core.scenario import MachineSpec

    values: dict[str, float] = {}
    for name in family_names():
        fam = family(name)
        spec = fam.spec()
        round_trip = MachineSpec.from_json(spec.to_json())
        p = project_family(fam)
        node = fam.node()
        values[f"{name}_round_trip"] = float(round_trip == spec)
        values[f"{name}_hpl_pflops"] = p.hpl_flops / 1e15
        values[f"{name}_hpcg_pflops"] = p.hpcg_projected_flops / 1e15
        values[f"{name}_hpl_vs_measured"] = p.hpl_vs_measured
        values[f"{name}_p2p_gbs"] = node.p2p_bandwidth / 1e9
        values[f"{name}_injection_gbs"] = node.injection_bandwidth / 1e9
    doc = compare_machines()
    values["frontier_hpl_within_10pct"] = float(
        doc["frontier_hpl_within_10pct"])
    values["families"] = float(len(family_names()))
    return values


#: Ordered registry: probe name -> callable returning scalar model outputs.
PROBES: dict[str, Callable[[], dict[str, float]]] = {
    "fabric": probe_fabric,
    "routing": probe_routing,
    "cache": probe_cache,
    "mpi": probe_mpi,
    "storage": probe_storage,
    "scheduler": probe_scheduler,
    "sweep": probe_sweep,
    "chaos": probe_chaos,
    "heal": probe_heal,
    "congestion": probe_congestion,
    "ensemble": probe_ensemble,
    "serve": probe_serve,
    "machines": probe_machines,
}


def run_probes(names: list[str] | None = None) -> dict[str, dict[str, Any]]:
    """Run the probe suite; returns {probe: {wall_time_s, values}}.

    Each probe runs under a ``probe.<name>`` span so its layer's spans nest
    beneath it in the exported trace.
    """
    from repro.fabric.cache import clear_fabric_caches

    # Start cold so the topology-cache hit/miss counters the regression
    # gate snapshots are identical run-to-run within one process.
    clear_fabric_caches()
    selected = list(PROBES) if names is None else names
    results: dict[str, dict[str, Any]] = {}
    for name in selected:
        try:
            fn = PROBES[name]
        except KeyError:
            raise KeyError(f"unknown probe {name!r}; "
                           f"have {sorted(PROBES)}") from None
        start = time.perf_counter()
        with obs.span(f"probe.{name}"):
            values = fn()
        results[name] = {
            "wall_time_s": time.perf_counter() - start,
            "values": {k: float(v) for k, v in values.items()},
        }
    return results


def record_machine_context() -> dict[str, dict[str, Any]]:
    """Run every probe under one ``harness.machine_context`` span.

    The benchmark harness calls this once per session so the emitted
    ``metrics.json`` always documents the modeled machine (fabric, MPI,
    storage, scheduler) the benchmarks ran against.
    """
    with obs.span("harness.machine_context"):
        return run_probes()
