"""Scaling — vectorised batch routing vs the scalar per-flow loop.

The batch planner (:meth:`repro.fabric.routing.Router.paths`) exists so
full-machine flow experiments (§3.2's mpiGraph shifts at thousands of
endpoints) stop being bottlenecked by per-flow Python routing.  This
bench measures pairs/second at several fabric sizes for three arms:

* **batch** — ``router.paths`` (adaptive chunk) and the CSR max-min path;
* **scalar** — the historical per-flow ``router.path`` loop, current solver;
* **seed reference** — the per-flow loop plus a replica of the pre-batch
  max-min filling loop (sparse ``A[saturated]`` slicing each round), i.e.
  what ``flow_bandwidths`` cost before this engine existed.

Asserts the acceptance criterion: at >= 2,048 endpoints the batch
planner routes >= 5x faster than the scalar loop, and end-to-end
``flow_bandwidths`` beats the seed-equivalent implementation >= 5x.
Equivalence (identical paths and rates at ``chunk=1``) is pinned by
``tests/fabric/test_batchroute.py``; this file only measures speed.
"""

import time

import numpy as np
from scipy import sparse

from repro.fabric.cache import clear_fabric_caches
from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.maxmin import maxmin_allocate
from repro.fabric.network import SlingshotNetwork
from repro.fabric.routing import RoutingPolicy
from repro.reporting import Table

from _harness import save_artifact

#: (groups, switches/group, endpoints/switch) -> 128 / 1,024 / 2,048 endpoints
SCALES = [(8, 4, 4), (16, 8, 8), (16, 8, 16)]
ASSERT_AT = 2048
MIN_SPEEDUP = 5.0


def _seed_maxmin(capacities, paths, demands):
    """Replica of the pre-batch progressive filling loop (seed commit).

    Kept verbatim-in-spirit so the "seed reference" arm times the actual
    historical algorithm: dense ``A @ active`` each round and sparse
    ``A[saturated]`` slicing on every freeze event.
    """
    n_links, n_flows = len(capacities), len(paths)
    cap = np.asarray(capacities, dtype=np.float64)
    rows, cols = [], []
    for f, path in enumerate(paths):
        rows.extend(path)
        cols.extend([f] * len(path))
    A = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)),
                          shape=(n_links, n_flows))
    dem = np.asarray(demands, dtype=np.float64)
    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    remaining = cap.copy()
    eps = 1e-12
    for _ in range(n_links + n_flows + 1):
        if not active.any():
            break
        n_active = A @ active.astype(np.float64)
        used = n_active > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            slack = np.where(used, remaining / np.maximum(n_active, 1), np.inf)
        head_active = np.where(active, dem - rates, np.inf)
        inc = max(min(slack.min(), head_active.min()), 0.0)
        rates[active] += inc
        remaining = np.maximum(remaining - inc * n_active, 0.0)
        saturated = used & (remaining <= eps * cap)
        if saturated.any():
            touching = (A[saturated].T @ np.ones(int(saturated.sum()))) > 0
            active &= ~touching
        finite = np.isfinite(dem)
        capped = active & finite & (
            rates >= np.where(finite, dem, 0.0)
            - eps * np.where(finite, np.maximum(dem, 1.0), 1.0))
        active &= ~capped
        if inc == 0.0 and not saturated.any() and not capped.any():
            raise RuntimeError("stalled")
    else:
        raise RuntimeError("did not converge")
    return rates


def _best_of(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(scale):
    cfg = DragonflyConfig().scaled(*scale)
    clear_fabric_caches()
    net = SlingshotNetwork(cfg, policy=RoutingPolicy.UGAL, rng=1)
    n = cfg.total_endpoints
    pairs = [(i, (i + cfg.endpoints_per_group) % n) for i in range(n)]
    demands = [0.7 * cfg.link_rate] * n
    router = net.router

    def route_batch():
        router.reset_load()
        return router.paths(pairs)

    def route_scalar():
        router.reset_load()
        return [router.path(s, d) for s, d in pairs]

    def e2e_batch():
        return net.flow_bandwidths(pairs)

    def e2e_seed():
        router.reset_load()
        paths = [router.path(s, d) for s, d in pairs]
        return _seed_maxmin(net.topology.capacities(), paths, demands)

    return {
        "n": n,
        "route_batch_s": _best_of(route_batch),
        "route_scalar_s": _best_of(route_scalar),
        "e2e_batch_s": _best_of(e2e_batch),
        "e2e_seed_s": _best_of(e2e_seed),
    }


def test_batch_routing_scaling(benchmark):
    rows = benchmark.pedantic(
        lambda: [_measure(s) for s in SCALES], rounds=1, iterations=1)

    table = Table(["endpoints", "scalar kpairs/s", "batch kpairs/s",
                   "routing speedup", "e2e seed ms", "e2e batch ms",
                   "e2e speedup"],
                  title="Batch routing engine scaling (UGAL group shift)",
                  float_fmt="{:.1f}")
    for r in rows:
        table.add_row([
            r["n"],
            r["n"] / r["route_scalar_s"] / 1e3,
            r["n"] / r["route_batch_s"] / 1e3,
            r["route_scalar_s"] / r["route_batch_s"],
            r["e2e_seed_s"] * 1e3,
            r["e2e_batch_s"] * 1e3,
            r["e2e_seed_s"] / r["e2e_batch_s"],
        ])
    save_artifact("routing_scaling", table.render())

    big = next(r for r in rows if r["n"] >= ASSERT_AT)
    assert big["route_scalar_s"] / big["route_batch_s"] >= MIN_SPEEDUP, \
        "batch planner no longer >= 5x faster than the scalar loop"
    assert big["e2e_seed_s"] / big["e2e_batch_s"] >= MIN_SPEEDUP, \
        "flow_bandwidths no longer >= 5x the seed implementation"
    # Throughput must grow, not collapse, with machine size.
    per_sec = [r["n"] / r["route_batch_s"] for r in rows]
    assert per_sec[-1] > per_sec[0]
