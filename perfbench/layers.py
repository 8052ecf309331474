"""Per-layer timing for the traced run: wrappers around public layer calls.

:class:`LayerTracer` replaces module functions and class attributes of
``repro`` with timing wrappers for the rest of one workload process.
Each wrapper records, under a layer metric name:

* **busy time** — wall time inside the outermost call of that name
  (a call nested in another call of the same name is not counted twice);
* **self time** — wall time minus the time of nested wrapped calls;
* **calls**.

Spans stay in memory; :func:`layer_metrics` folds them, together with
the counters ``repro.obs`` already emits, into the flat per-layer table
``BENCHMARK.json`` lists.  Nothing here changes what the program
computes: wrappers pass arguments and results through untouched.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from harness import END_TO_END_UNITS, quantile

#: Probes of ``repro.sweep.probes.SWEEP_PROBES`` the serve stream sends.
SERVED_PROBES = ("mpigraph", "comm", "storage", "placement", "chaos",
                 "heal", "compare", "congest")

#: Slurm scheduler methods timed one by one (``free_nodes`` is a property).
SLURM_CALLS = ("submit", "fail_node", "resume", "replace_node", "free_nodes")


class LayerTracer:
    """In-memory busy/self timers keyed by layer metric name."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()

    def timed(self, name: str, fn: Callable, *,
              before: Callable | None = None,
              after: Callable | None = None) -> Callable:
        """``fn`` wrapped to time each call under ``name``.

        ``before(args, kwargs)`` runs just before the timed call and
        ``after(args, kwargs, result)`` just after it, outside the timed
        interval; both record counts the layer exposes only through its
        arguments or results.
        """
        stack, depth = self._stack, self._depth
        busy, self_time, calls = self.busy, self.self_time, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                depth[name] -= 1
                self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if depth[name] == 0:
                    busy[name] += elapsed
                calls[name] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` (function, method, classmethod or
        property getter; or the entry ``owner[attr]`` of a registry dict)
        with its timed wrapper."""
        raw = owner[attr] if isinstance(owner, dict) else vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.timed(name, raw.__func__, **hooks))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.timed(name, raw.__func__, **hooks))
        elif isinstance(raw, property):
            new = property(self.timed(name, raw.fget, **hooks),
                           raw.fset, raw.fdel, raw.__doc__)
        else:
            new = self.timed(name, raw, **hooks)
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public calls of every layer the workloads reach."""
        from repro import chaos
        from repro.chaos import engine as chaos_engine
        from repro.chaos.heal import SparePool
        from repro.fabric import batchroute, network
        from repro.fabric.timeflow import TimeflowEngine
        from repro.resilience.adaptive import AdaptiveCheckpointController
        from repro.scheduler import slurm
        from repro.serve import batching, cache, service
        from repro.serve.protocol import ScenarioRequest
        from repro.sweep.probes import SWEEP_PROBES

        counts = self.counts

        # fabric: topology build, batch planner, max-min solver, facade
        self.patch(network, "build_dragonfly", "fabric.dragonfly.build")
        self.patch(batchroute, "plan_dragonfly", "fabric.batchroute.plan",
                   after=lambda a, kw, out: counts.update(
                       {"fabric.batchroute.flows": len(out)}))
        self.patch(network, "maxmin_allocate", "fabric.maxmin.solve")
        self.patch(network.FabricNetwork, "flow_bandwidths", "fabric.network")
        self.patch(network.FabricNetwork, "shift_pattern", "fabric.network")
        self.patch(TimeflowEngine, "__init__", "fabric.timeflow.init")

        def count_steps(args, kwargs, out):
            results = out if isinstance(out, tuple) else (out,)
            counts["fabric.timeflow.steps"] += results[0].steps
            if not isinstance(out, tuple):
                counts["fabric.timeflow.scalar_runs"] += 1

        self.patch(TimeflowEngine, "run", "fabric.timeflow.loop",
                   after=count_steps)
        self.patch(TimeflowEngine, "run_ensemble", "fabric.timeflow.loop",
                   after=count_steps)

        # chaos + scheduler + healing + adaptive checkpointing (the
        # package re-exports run_chaos_cached, so wrap both bindings)
        self.patch(chaos, "run_chaos_cached", "chaos.engine")
        self.patch(chaos_engine, "run_chaos_cached", "chaos.engine")
        self.patch(chaos_engine, "sample_timeline", "chaos.events.sample",
                   after=lambda a, kw, out: counts.update(
                       {"chaos.events.count": len(out)}))
        self.patch(chaos_engine, "write_json", "chaos.artifact.write")
        for call in SLURM_CALLS:
            self.patch(slurm.SlurmScheduler, call, f"scheduler.slurm.{call}")
        self.patch(slurm.SlurmScheduler, "resume_to_spare",
                   "scheduler.slurm.resume")
        self.patch(slurm, "place_job", "scheduler.placement.place_job")
        self.patch(SparePool, "take", "chaos.heal.take")
        self.patch(AdaptiveCheckpointController, "update",
                   "resilience.adaptive.update")

        # serve: protocol, admission, cache, batching, probes, ledger
        self.patch(service, "decode_line", "serve.protocol.codec")
        self.patch(service, "encode_line", "serve.protocol.codec")
        self.patch(ScenarioRequest, "from_wire", "serve.protocol.codec")
        self.patch(service.ScenarioService, "submit", "serve.service.admit")
        self.patch(cache.ResponseCache, "get", "serve.cache.get")
        self.patch(cache.ResponseCache, "put", "serve.cache.put")
        self.patch(cache, "write_artifact", "sweep.artifacts.write")

        enqueued: dict[str, list[float]] = defaultdict(list)

        def note_enqueued(args, kwargs):
            for item in args[0]:
                enqueued[item.task.task_id].append(item.enqueued_at)

        def note_waits(args, kwargs):
            now = time.monotonic()     # the event loop's clock
            for task in args[0]:
                for t in enqueued.pop(task.task_id, ()):
                    self.samples["serve.service.queue_wait"].append(now - t)

        self.patch(service, "form_batches", "serve.batching.form",
                   before=note_enqueued)
        self.patch(service, "execute_batch", "serve.batching.execute",
                   before=note_waits)
        self.patch(batching, "evaluate_congest_ensemble",
                   "sweep.probes.congest_ensemble")
        for probe in SERVED_PROBES:
            self.patch(SWEEP_PROBES, probe, f"sweep.probes.{probe}")


#: The per-layer table of a traced run: metric name -> unit.  Layers a
#: workload does not reach read 0.  ``BENCHMARK.json`` lists the same names.
PER_LAYER_UNITS: dict[str, str] = {
    "fabric.dragonfly.build_s": "s",
    "fabric.topology_cache.hits": "count",
    "fabric.topology_cache.misses": "count",
    "fabric.batchroute.plan_s": "s",
    "fabric.batchroute.flows": "count",
    "fabric.maxmin.solve_s": "s",
    "fabric.maxmin.iterations": "count",
    "fabric.network.self_s": "s",
    "fabric.timeflow.init_s": "s",
    "fabric.timeflow.loop_s": "s",
    "fabric.timeflow.steps": "count",
    "fabric.timeflow.us_per_step": "us",
    "fabric.timeflow.scalar_runs": "count",
    "chaos.events.sample_s": "s",
    "chaos.events.count": "count",
    **{f"scheduler.slurm.{call}_{kind}": unit
       for call in SLURM_CALLS
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "scheduler.placement.place_job_s": "s",
    "scheduler.placement.place_job_calls": "count",
    "chaos.heal.take_s": "s",
    "chaos.heal.take_calls": "count",
    "chaos.heal.replace_ratio": "ratio",
    "resilience.adaptive.update_s": "s",
    "chaos.engine.self_s": "s",
    "chaos.artifact.write_s": "s",
    "chaos.artifacts_resumed": "count",
    "serve.protocol.codec_s": "s",
    "serve.service.admit_s": "s",
    "serve.cache.get_s": "s",
    "serve.cache.put_s": "s",
    "serve.cache.hit_ratio": "ratio",
    "serve.cache_hits_disk": "count",
    "serve.service.queue_wait_p50_s": "s",
    "serve.service.queue_wait_p95_s": "s",
    "serve.batching.form_s": "s",
    "serve.batching.execute_s": "s",
    "serve.batches": "count",
    "serve.coalesced": "count",
    "serve.ensemble_batches": "count",
    **{f"sweep.probes.{probe}_s": "s" for probe in SERVED_PROBES},
    "sweep.probes.congest_ensemble_s": "s",
    "sweep.artifacts.write_s": "s",
    "sweep.artifacts.writes": "count",
    "serve.latency_p50_s": "s",
    "serve.latency_p95_s": "s",
    "serve.latency_samples": "count",
    **{f"trace_overhead.{name}": "ratio" for name in END_TO_END_UNITS},
}


def layer_metrics(tracer: LayerTracer, counters: dict[str, float],
                  detail: dict[str, Any]) -> dict[str, float]:
    """The per-layer table from one traced workload process.

    ``counters`` are ``repro.obs`` counter values by name; ``detail`` is
    the workload's own detail block (client latencies, heal report).
    ``trace_overhead.*`` is filled in by the runner, which alone sees
    both the traced and the untraced process.
    """
    busy, self_time, calls = tracer.busy, tracer.self_time, tracer.calls
    counts = tracer.counts
    steps = counts["fabric.timeflow.steps"]
    waits = tracer.samples["serve.service.queue_wait"]
    hits = counters.get("serve.cache_hits", 0.0)
    misses = counters.get("serve.cache_misses", 0.0)
    replaced = detail.get("replacements", 0)
    requeued = detail.get("requeues", 0)
    out: dict[str, float] = {
        "fabric.dragonfly.build_s": busy["fabric.dragonfly.build"],
        "fabric.topology_cache.hits":
            counters.get("fabric.topology_cache.hits", 0.0),
        "fabric.topology_cache.misses":
            counters.get("fabric.topology_cache.misses", 0.0),
        "fabric.batchroute.plan_s": busy["fabric.batchroute.plan"],
        "fabric.batchroute.flows": counts["fabric.batchroute.flows"],
        "fabric.maxmin.solve_s": busy["fabric.maxmin.solve"],
        "fabric.maxmin.iterations":
            counters.get("fabric.maxmin.iterations", 0.0),
        "fabric.network.self_s": self_time["fabric.network"],
        "fabric.timeflow.init_s": busy["fabric.timeflow.init"],
        "fabric.timeflow.loop_s": busy["fabric.timeflow.loop"],
        "fabric.timeflow.steps": steps,
        "fabric.timeflow.us_per_step":
            busy["fabric.timeflow.loop"] / steps * 1e6 if steps else 0.0,
        "fabric.timeflow.scalar_runs": counts["fabric.timeflow.scalar_runs"],
        "chaos.events.sample_s": busy["chaos.events.sample"],
        "chaos.events.count": counts["chaos.events.count"],
        "scheduler.placement.place_job_s":
            busy["scheduler.placement.place_job"],
        "scheduler.placement.place_job_calls":
            calls["scheduler.placement.place_job"],
        "chaos.heal.take_s": busy["chaos.heal.take"],
        "chaos.heal.take_calls": calls["chaos.heal.take"],
        "chaos.heal.replace_ratio":
            replaced / (replaced + requeued) if replaced + requeued else 0.0,
        "resilience.adaptive.update_s": busy["resilience.adaptive.update"],
        "chaos.engine.self_s": self_time["chaos.engine"],
        "chaos.artifact.write_s": busy["chaos.artifact.write"],
        "chaos.artifacts_resumed": counters.get("chaos.artifacts_resumed", 0.0),
        "serve.protocol.codec_s": busy["serve.protocol.codec"],
        "serve.service.admit_s": busy["serve.service.admit"],
        "serve.cache.get_s": busy["serve.cache.get"],
        "serve.cache.put_s": busy["serve.cache.put"],
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache_hits_disk": counters.get("serve.cache_hits_disk", 0.0),
        "serve.service.queue_wait_p50_s": quantile(waits, 0.5) if waits else 0.0,
        "serve.service.queue_wait_p95_s": quantile(waits, 0.95) if waits else 0.0,
        "serve.batching.form_s": busy["serve.batching.form"],
        "serve.batching.execute_s": busy["serve.batching.execute"],
        "serve.batches": counters.get("serve.batches", 0.0),
        "serve.coalesced": counters.get("serve.coalesced", 0.0),
        "serve.ensemble_batches": counters.get("serve.ensemble_batches", 0.0),
        "sweep.probes.congest_ensemble_s": busy["sweep.probes.congest_ensemble"],
        "sweep.artifacts.write_s": busy["sweep.artifacts.write"],
        "sweep.artifacts.writes": calls["sweep.artifacts.write"],
        "serve.latency_p50_s": detail.get("latency_p50_s", 0.0),
        "serve.latency_p95_s": detail.get("latency_p95_s", 0.0),
        "serve.latency_samples": detail.get("latency_samples", 0),
    }
    for call in SLURM_CALLS:
        out[f"scheduler.slurm.{call}_s"] = busy[f"scheduler.slurm.{call}"]
        out[f"scheduler.slurm.{call}_calls"] = calls[f"scheduler.slurm.{call}"]
    for probe in SERVED_PROBES:
        out[f"sweep.probes.{probe}_s"] = busy[f"sweep.probes.{probe}"]
    return {name: float(value) for name, value in out.items()}
