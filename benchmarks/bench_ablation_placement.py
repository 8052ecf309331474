"""Ablation — pack vs spread job placement (§3.4.2's policy).

Quantifies both halves of Slurm's topology-aware rule on a materialised
fabric: a packed small job keeps all traffic on untapered intra-group
links; a spread large job reaches more global links for minimal routing.
"""

import numpy as np

from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.network import SlingshotNetwork
from repro.reporting import Table
from repro.scheduler.placement import (PlacementPolicy, allocation_stats,
                                       place_job)

from _harness import save_artifact

CFG = DragonflyConfig().scaled(8, 4, 4)
NODES_PER_GROUP = CFG.endpoints_per_group // 4   # 4 NICs per node


def _exchange_bandwidth(net: SlingshotNetwork, nodes: np.ndarray) -> float:
    """Mean per-NIC bandwidth of a half-shift exchange over the job.

    Every endpoint sends to the endpoint half the job away — the pattern a
    transpose or butterfly stage produces, and the one that exposes the
    taper when the job spans groups.
    """
    endpoints = [n * 4 + k for n in nodes for k in range(4)]
    half = len(endpoints) // 2
    pairs = [(endpoints[i], endpoints[(i + half) % len(endpoints)])
             for i in range(len(endpoints))]
    flows, _ = net.flow_bandwidths(pairs)
    return float(np.mean([f.bandwidth for f in flows]))


def _max_global_hops(net: SlingshotNetwork, nodes: np.ndarray) -> int:
    """Worst-case global hops for any endpoint pair of the job."""
    endpoints = [n * 4 + k for n in nodes for k in range(4)]
    worst = 0
    for i in range(0, len(endpoints), 3):
        for j in range(1, len(endpoints), 5):
            if endpoints[i] == endpoints[j]:
                continue
            path = net.router.path(endpoints[i], endpoints[j],
                                   register=False)
            worst = max(worst, net.router.global_hops(path))
    return worst


def test_small_job_pack_vs_spread(benchmark):
    """'Slurm will pack allocations tightly to minimize global hops.'"""
    free = np.arange(CFG.groups * NODES_PER_GROUP)
    net = SlingshotNetwork(CFG)

    def run():
        packed = place_job(NODES_PER_GROUP, free, PlacementPolicy.PACK,
                           NODES_PER_GROUP)
        spread = place_job(NODES_PER_GROUP, free, PlacementPolicy.SPREAD,
                           NODES_PER_GROUP)
        return (_max_global_hops(net, packed), _max_global_hops(net, spread),
                _exchange_bandwidth(net, packed),
                _exchange_bandwidth(net, spread), packed, spread)

    (packed_hops, spread_hops, packed_bw, spread_bw,
     packed, spread) = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(["placement", "groups", "max global hops",
                   "exchange GB/s per NIC"],
                  title="Ablation: small-job placement", float_fmt="{:.2f}")
    table.add_row(["pack", allocation_stats(packed, CFG,
                                            NODES_PER_GROUP).groups_spanned,
                   packed_hops, packed_bw / 1e9])
    table.add_row(["spread", allocation_stats(spread, CFG,
                                              NODES_PER_GROUP).groups_spanned,
                   spread_hops, spread_bw / 1e9])
    save_artifact("ablation_placement_small", table.render())
    # Packed small jobs use no tapered global links at all; spread ones do.
    assert packed_hops == 0
    assert spread_hops >= 1
    assert allocation_stats(packed, CFG,
                            NODES_PER_GROUP).intra_group_fraction == 1.0


def test_large_job_spread_gains_global_links(benchmark):
    free = np.arange(CFG.groups * NODES_PER_GROUP)
    big = 3 * NODES_PER_GROUP

    def run():
        packed = place_job(big, free, PlacementPolicy.PACK, NODES_PER_GROUP)
        spread = place_job(big, free, PlacementPolicy.SPREAD, NODES_PER_GROUP)
        return (allocation_stats(packed, CFG, NODES_PER_GROUP),
                allocation_stats(spread, CFG, NODES_PER_GROUP))

    packed_stats, spread_stats = benchmark(run)
    save_artifact(
        "ablation_placement_large",
        f"packed: {packed_stats.groups_spanned} groups, "
        f"{packed_stats.global_bandwidth_per_node / 1e9:.1f} GB/s/node "
        f"minimal-global\n"
        f"spread: {spread_stats.groups_spanned} groups, "
        f"{spread_stats.global_bandwidth_per_node / 1e9:.1f} GB/s/node "
        f"minimal-global")
    # Spreading a big job multiplies the global links reachable minimally.
    assert (spread_stats.global_bandwidth_per_node
            > 2 * packed_stats.global_bandwidth_per_node)
