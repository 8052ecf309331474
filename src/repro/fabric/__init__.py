"""Slingshot interconnect models (paper §3.2, §4.2.2).

* :mod:`repro.fabric.topology` — generic switch/endpoint/link graph.
* :mod:`repro.fabric.dragonfly` — Frontier's 3-hop dragonfly builder
  (80 groups, 64-port switches split 16 L0 / 32 L1 / 16 L2, bundles).
* :mod:`repro.fabric.fattree` — Summit's non-blocking EDR Clos, the
  comparison system in Figure 6.
* :mod:`repro.fabric.routing` — minimal, Valiant, and UGAL-adaptive path
  selection.
* :mod:`repro.fabric.maxmin` — progressive-filling max-min fair bandwidth
  allocation: the engine behind every fabric bandwidth number.
* :mod:`repro.fabric.latency` — per-hop latency model.
* :mod:`repro.fabric.congestion` — Slingshot hardware congestion control.
* :mod:`repro.fabric.collectives` — allreduce / all-to-all models.
* :mod:`repro.fabric.network` — the Slingshot facade used by benchmarks.
* :mod:`repro.fabric.timeflow` — fluid time-stepped congestion engine
  (incast/bursty sources, ECN-style backpressure, FCT percentiles).
* :mod:`repro.fabric.congest` — the k-sweep incast study on that engine,
  its ablation grid, and its resumable artifacts.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "topology": ("LinkKind", "Topology", "NodeId"),
    "dragonfly": ("DragonflyConfig", "build_dragonfly", "FRONTIER_DRAGONFLY"),
    "fattree": ("FatTreeConfig", "build_fattree", "SUMMIT_FATTREE"),
    "routing": ("RoutingPolicy", "Router", "FatTreeRouter"),
    "maxmin": ("maxmin_allocate",),
    "latency": ("LatencyModel",),
    "congestion": ("CongestionControl",),
    "collectives": ("allreduce_latency", "alltoall_per_node_bandwidth"),
    "network": ("FabricNetwork", "SlingshotNetwork", "FatTreeNetwork"),
    "cache": ("clear_fabric_caches",),
    "messages": ("NicMessageModel", "SLINGSHOT_NIC", "EDR_NIC"),
    "queueing": ("PortSimulation",),
    "timeflow": ("FlowSpec", "TimeflowConfig", "TimeflowEngine",
                 "fct_stats", "incast_pattern", "validate_victim_impact"),
})
