"""Bard Peak node models: Trento CPU, MI250X GPUs, InfinityFabric, NICs.

This subpackage reproduces Section 3.1 (node design) and Section 4.1/4.2.1
(node-level and intra-node evaluation) of the Frontier paper:

* :mod:`repro.node.cpu` — AMD EPYC 7A53 "Trento" (CCDs, NPS modes, DDR4).
* :mod:`repro.node.dram` — DDR4 channel model and the CPU STREAM bandwidth
  model with temporal vs non-temporal stores (Table 3).
* :mod:`repro.node.gpu` / :mod:`repro.node.hbm` — MI250X Graphics Compute
  Dies, HBM2e, and the GPU STREAM model (Table 4).
* :mod:`repro.node.gemm` — the CoralGemm execution model (Figure 3).
* :mod:`repro.node.xgmi` — InfinityFabric links and the 8-GCD twisted-ladder
  topology (Figure 2).
* :mod:`repro.node.transfers` — SDMA vs CU-kernel transfer engines and
  host↔device bandwidth under contention (Figures 4 and 5).
* :mod:`repro.node.stream` — executable NumPy STREAM kernels (semantics) and
  the calibrated reported-bandwidth models.
* :mod:`repro.node.node` — the assembled Bard Peak node.
* :mod:`repro.node.spec` — declarative :class:`NodeSpec`/:class:`NodeModel`
  aggregates plus the Summit (AC922) and Aurora (PVC + Sapphire Rapids)
  nodes consumed by the machine-family registry.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "cpu": ("NpsMode", "TrentoCpu"),
    "dram": ("DdrConfig", "StreamCalibration", "CpuStreamModel"),
    "gpu": ("Gcd", "Mi250x", "Precision"),
    "hbm": ("HbmConfig", "GpuStreamModel"),
    "gemm": ("GemmModel", "GemmPoint"),
    "xgmi": ("XgmiLink", "XgmiClass", "GcdTopology", "twisted_ladder"),
    "transfers": ("TransferEngine", "cu_kernel_bandwidth", "sdma_bandwidth",
                  "host_to_gcd_bandwidth", "aggregate_host_to_gcd_bandwidth"),
    "node": ("BardPeakNode",),
    "spec": ("NodeSpec", "NodeModel", "bard_peak_spec", "SUMMIT_NODE",
             "AURORA_NODE"),
    "roofline": ("GcdRoofline", "project_hpl", "project_hpcg"),
    "memory": ("MemoryPlanner", "Placement"),
})
