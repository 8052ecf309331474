"""Ensemble timeflow — one step loop for a whole k-sweep.

``python -m repro congest`` and the congest sweep grid ask the same
question many times over one scenario: same fabric, same incast flows,
same time grid — only the control law (``ecn``/``ecn_k``/``backoff``)
varies.  :meth:`TimeflowEngine.run_ensemble` integrates all S arms as
column vectors through one step loop (one sparse matmul per step), so
the whole sweep costs about as much as one arm run alone.

Two claims, both gated:

* **speed** — a 16-mode sweep (FIFO + 15 ECN thresholds) at >= 1,024
  endpoints must run >= 4x faster as one ensemble than as 16 per-arm
  :meth:`TimeflowEngine.run` calls (one-column integrations of the same
  loop) over the same engine.  Each side is timed as the fastest of
  :data:`PASSES` interleaved passes: on a shared machine a single pass
  reads whatever load the other tenants put on it;
* **bit-identity** — every ensemble column's result document must be
  byte-identical to the per-arm run of that config on the same engine
  (the ``chunk=1`` oracle idiom of ``bench_batch_route``).  A fast
  ensemble that drifts is worthless: the k-sweep artifacts, the sweep
  grid, and the serve fast path all resume from content-hash caches
  keyed on the per-arm semantics.

Correctness edge cases (FIFO columns, warmup windows, empty-completion
columns, shared-axis validation) and the per-flow reference loop every
column matches are pinned by ``tests/fabric/test_ensemble.py``; this
file measures the ratio.
"""

import json
import time

from repro.core.scenario import frontier_spec
from repro.fabric.timeflow import (TimeflowConfig, TimeflowEngine,
                                   incast_pattern)
from repro.reporting import Table

from _harness import save_artifact

#: FIFO + 15 ECN marking thresholds = the 16-mode sweep under test.
ECN_KS = (4, 8, 12, 16, 20, 26, 30, 36, 42, 48, 54, 60, 70, 80, 90)
MIN_ENDPOINTS = 1024
MIN_SPEEDUP = 4.0
#: Interleaved timing passes per side; each side keeps its fastest.
PASSES = 5

SPEC = frontier_spec().scaled(16, 8, 8)   # exactly 1,024 endpoints
SEED = 11


def _result_doc(result):
    """A result's full content, canonically serialised — any drifted
    bit anywhere (samples, stats, marks, peak queue) changes it."""
    return json.dumps({
        "classes": {c: {"completed": v.completed, "fct": v.fct,
                        "latency": v.latency,
                        "bytes_injected": v.bytes_injected,
                        "goodput": v.goodput}
                    for c, v in result.classes.items()},
        "fct_samples": {c: v.tolist() for c, v in result.fct_samples.items()},
        "latency_samples": {c: v.tolist()
                            for c, v in result.latency_samples.items()},
        "mean_rates": result.mean_rates.tolist(),
        "max_queue_bytes": result.max_queue_bytes,
        "max_link_utilisation": result.max_link_utilisation,
        "marks": result.marks, "steps": result.steps,
    }, sort_keys=True, default=str)


def _measure():
    net = SPEC.build_network(rng=SEED)
    n_endpoints = net.topology.n_endpoints
    assert n_endpoints >= MIN_ENDPOINTS, n_endpoints
    flows = incast_pattern(net, fanin=8, duty=1.0, elephants=2, rng=SEED)
    configs = [TimeflowConfig(ecn=False, warmup_s=1e-4)] + [
        TimeflowConfig(ecn=True, ecn_k=float(k), warmup_s=1e-4)
        for k in ECN_KS]

    # ONE engine for both arms: path planning is load-adaptive (UGAL
    # draws from the router RNG), so bit-identity is only defined
    # against the same planned paths.
    engine = TimeflowEngine(net, flows, configs[0])
    engine.run(configs[0])                    # warm the step loop

    per_arm_s = ens_s = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        per_arm = [engine.run(cfg) for cfg in configs]
        per_arm_s = min(per_arm_s, time.perf_counter() - t0)

        t0 = time.perf_counter()
        ensemble = engine.run_ensemble(configs)
        ens_s = min(ens_s, time.perf_counter() - t0)

    identical = sum(_result_doc(a) == _result_doc(b)
                    for a, b in zip(per_arm, ensemble))
    return {
        "endpoints": n_endpoints,
        "modes": len(configs),
        "flows": len(flows),
        "steps": per_arm[0].steps,
        "per_arm_s": per_arm_s,
        "ensemble_s": ens_s,
        "speedup_x": per_arm_s / ens_s,
        "identical_modes": identical,
    }


def test_congest_ensemble(benchmark):
    r = benchmark.pedantic(_measure, rounds=1, iterations=1)

    table = Table(["metric", "value"],
                  title="16-mode k-sweep: ensemble vs per-arm runs",
                  float_fmt="{:.3f}")
    table.add_row(["endpoints", r["endpoints"]])
    table.add_row(["modes (FIFO + ECN ks)", r["modes"]])
    table.add_row(["flows", r["flows"]])
    table.add_row(["steps per arm", r["steps"]])
    table.add_row([f"per-arm runs s (min of {PASSES})", r["per_arm_s"]])
    table.add_row([f"ensemble s (min of {PASSES})", r["ensemble_s"]])
    table.add_row(["speedup", r["speedup_x"]])
    table.add_row(["bit-identical modes", r["identical_modes"]])
    save_artifact("congest_ensemble", table.render())

    assert r["identical_modes"] == r["modes"], \
        "ensemble columns drifted from their per-arm runs"
    assert r["speedup_x"] >= MIN_SPEEDUP, \
        f"ensemble only {r['speedup_x']:.1f}x vs per-arm runs (need >= 4x)"
