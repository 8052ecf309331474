"""The assembled Bard Peak node (HPE Cray EX 235a), paper §3.1.

One node = one Trento CPU + four MI250X OAM packages (eight GCDs) connected
by InfinityFabric, with one 200 Gb/s Slingshot "Cassini" NIC per OAM.  Each
CCD of the CPU is paired 1:1 with a GCD over xGMI-2 — the OS sees eight
GPUs, hence the paper's "1:4 CPU:GPU ratio, sort of".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.node.cpu import TrentoCpu
from repro.node.gpu import Mi250x, Precision
from repro.node.transfers import CU_KERNEL_EFFICIENCY_BY_WIDTH
from repro.node.xgmi import GcdTopology, XgmiClass, XgmiLink, twisted_ladder

__all__ = ["CassiniNic", "BardPeakNode"]


@dataclass(frozen=True)
class CassiniNic:
    """HPE Slingshot NIC: 200 Gb/s Ethernet with HPC-Ethernet OS-bypass."""

    name: str = "Cassini"
    rate_bits: float = 200e9
    os_bypass: bool = True

    @property
    def rate_bytes(self) -> float:
        """25 GB/s per direction."""
        return self.rate_bits / 8.0


@dataclass
class BardPeakNode:
    """Static model of one Frontier compute node."""

    cpu: TrentoCpu = field(default_factory=TrentoCpu)
    oam: Mi250x = field(default_factory=Mi250x)
    oam_count: int = 4
    nic: CassiniNic = field(default_factory=CassiniNic)
    nic_count: int = 4
    gcd_topology: GcdTopology = field(default_factory=twisted_ladder)

    def __post_init__(self) -> None:
        if self.oam_count * self.oam.gcds != self.gcd_topology.n_gcds:
            raise ConfigurationError(
                "GCD topology size must match OAM count x GCDs per OAM")
        if self.nic_count != self.oam_count:
            raise ConfigurationError("Bard Peak attaches one NIC per OAM package")

    # -- composition ------------------------------------------------------

    @property
    def gcd_count(self) -> int:
        """Eight: what the user sees when they query the node."""
        return self.oam_count * self.oam.gcds

    def ccd_for_gcd(self, gcd: int) -> int:
        """The CCD paired with a GCD (1:1 pairing, Figure 2's colours)."""
        if not 0 <= gcd < self.gcd_count:
            raise ConfigurationError(f"no GCD {gcd} on this node")
        return gcd

    def oam_for_gcd(self, gcd: int) -> int:
        if not 0 <= gcd < self.gcd_count:
            raise ConfigurationError(f"no GCD {gcd} on this node")
        return gcd // self.oam.gcds

    def nic_for_gcd(self, gcd: int) -> int:
        """NIC index serving a GCD: one Cassini per OAM (key §3.1.4 design)."""
        return self.oam_for_gcd(gcd)

    # -- aggregate properties (feed Table 1) -------------------------------

    @property
    def ddr_capacity_bytes(self) -> float:
        return self.cpu.memory_capacity_bytes

    @property
    def ddr_bandwidth(self) -> float:
        return self.cpu.peak_dram_bandwidth

    @property
    def hbm_capacity_bytes(self) -> float:
        return self.oam_count * self.oam.hbm_capacity_bytes

    @property
    def hbm_bandwidth(self) -> float:
        """13.08 TB/s aggregate: 8 GCDs x 1.6354 TB/s."""
        return self.oam_count * self.oam.hbm_bandwidth

    @property
    def hbm_to_ddr_bandwidth_ratio(self) -> float:
        """~64x — higher (worse) than Titan's 40x and Summit's 16x (§3.1.2)."""
        return self.hbm_bandwidth / self.ddr_bandwidth

    @property
    def injection_bandwidth(self) -> float:
        """100 GB/s per node: four 25 GB/s Cassini NICs."""
        return self.nic_count * self.nic.rate_bytes

    @property
    def xgmi_p2p_bandwidth(self) -> float:
        """Sustained on-node GCD-to-GCD copy rate over the weakest xGMI hop.

        §4.2.1: CU copy kernels stripe across a pair's ganged links at
        ~75% of the aggregate rate; an arbitrary rank pair may sit on the
        single-link east/west edges of the twisted ladder, so the
        conservative one-hop rate is the narrowest gang's CU-kernel rate
        (37.5 GB/s on Bard Peak).  Derived from the topology so node-model
        changes propagate to MPI cost estimates.
        """
        width = min((link.width for link in self.gcd_topology.links),
                    default=1)
        link = XgmiLink(0, 1, width)
        return CU_KERNEL_EFFICIENCY_BY_WIDTH[width] * link.bandwidth_per_direction

    @property
    def p2p_bandwidth(self) -> float:
        """Family-agnostic name for the on-node device-to-device rate.

        The registry funnel (and SimComm) read ``p2p_bandwidth`` off any
        node model; on Bard Peak it is the xGMI rate above.
        """
        return self.xgmi_p2p_bandwidth

    @property
    def cpu_gcd_bandwidth(self) -> float:
        """Per-direction xGMI-2 rate of the CCD<->GCD pairing (36 GB/s)."""
        return XgmiClass.XGMI2.rate_per_direction

    def peak_flops(self, precision: Precision = Precision.FP64,
                   *, matrix: bool = True) -> float:
        return self.oam_count * self.oam.peak_flops(precision, matrix=matrix)

    @property
    def sustained_dgemm_per_device(self) -> float:
        """Family-agnostic name for the measured per-GCD DGEMM rate."""
        from repro.core.specs_table import SUSTAINED_DGEMM_PER_GCD
        return SUSTAINED_DGEMM_PER_GCD

    @property
    def gpu_threads(self) -> int:
        """Concurrent GPU hardware threads (§5.3: >56k per node)."""
        return self.gcd_count * self.oam.gcd.threads

    @property
    def gpu_flop_fraction(self) -> float:
        """Fraction of node FP64 peak coming from GPUs ("over 99%", §4.1.1).

        CPU FP64 peak: 64 cores x 2 FMA pipes x 4-wide AVX2 x 2 flops x clock.
        """
        cpu_peak = (self.cpu.cores * 2 * 4 * 2 * self.cpu.base_clock_hz)
        gpu_peak = self.peak_flops(Precision.FP64, matrix=True)
        return gpu_peak / (gpu_peak + cpu_peak)
