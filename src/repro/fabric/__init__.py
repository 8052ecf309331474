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
"""

from repro.fabric.topology import LinkKind, Topology, NodeId
from repro.fabric.dragonfly import DragonflyConfig, build_dragonfly, FRONTIER_DRAGONFLY
from repro.fabric.fattree import FatTreeConfig, build_fattree, SUMMIT_FATTREE
from repro.fabric.routing import RoutingPolicy, Router, FatTreeRouter
from repro.fabric.maxmin import maxmin_allocate
from repro.fabric.latency import LatencyModel
from repro.fabric.congestion import CongestionControl
from repro.fabric.collectives import allreduce_latency, alltoall_per_node_bandwidth
from repro.fabric.network import (FabricNetwork, SlingshotNetwork,
                                  FatTreeNetwork, clear_fabric_caches)
from repro.fabric.messages import NicMessageModel, SLINGSHOT_NIC, EDR_NIC
from repro.fabric.queueing import PortSimulation
from repro.fabric.timeflow import (FlowSpec, TimeflowConfig, TimeflowEngine,
                                   fct_stats, incast_pattern,
                                   validate_victim_impact)

__all__ = [
    "LinkKind", "Topology", "NodeId",
    "DragonflyConfig", "build_dragonfly", "FRONTIER_DRAGONFLY",
    "FatTreeConfig", "build_fattree", "SUMMIT_FATTREE",
    "RoutingPolicy", "Router", "FatTreeRouter",
    "maxmin_allocate",
    "LatencyModel",
    "CongestionControl",
    "allreduce_latency", "alltoall_per_node_bandwidth",
    "FabricNetwork", "SlingshotNetwork", "FatTreeNetwork",
    "clear_fabric_caches",
    "NicMessageModel", "SLINGSHOT_NIC", "EDR_NIC",
    "PortSimulation",
    "FlowSpec", "TimeflowConfig", "TimeflowEngine",
    "fct_stats", "incast_pattern", "validate_victim_impact",
]
