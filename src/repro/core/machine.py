"""The integrated machine facade.

``Machine`` wires every subsystem model together behind one object: node
design, fabric, center-wide + node-local storage, the Slurm scheduler,
the power model, and the resilience model.  It is the **composition
root** of the reproduction: build one from a serializable
:class:`repro.core.scenario.MachineSpec` (``from_spec``/``spec`` round
trip), then let its factories hand configured collaborators to the
downstream layers — ``network()`` for the materialised fabric, ``comm()``
for the MPI cost oracle, ``scheduler()`` for Slurm, and ``scaled()`` /
``degraded()`` for experiment variants.

``from_spec`` resolves the node model and power inventory through the
machine-family registry (:mod:`repro.core.family`) keyed by the spec's
``family`` tag, so the same facade assembles Frontier, Summit, or Aurora
(or any family registered later).  Bare ``Machine()`` still builds the
paper's Frontier.  ``FrontierMachine`` remains as a deprecation alias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.family import family as resolve_family
from repro.core.scenario import (DegradationSpec, DragonflyGeometry,
                                 FatTreeGeometry, MachineSpec, StorageSpec)
from repro.core.specs_table import FRONTIER_NODE_COUNT, compute_table1
from repro.errors import ConfigurationError
from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.fattree import FatTreeConfig
from repro.fabric.routing import RoutingPolicy
from repro.mpi.simmpi import SimComm
from repro.node.node import BardPeakNode
from repro.power.model import SystemPowerModel
from repro.resilience.mtti import MttiModel
from repro.scheduler.slurm import SlurmScheduler
from repro.storage.lustre import OrionFilesystem
from repro.storage.nvme import Raid0Array, node_local_storage
from repro.storage.pfl import Tier

__all__ = ["Machine", "FrontierMachine"]


@dataclass
class Machine:
    """One machine, assembled.  Defaults build the paper's Frontier."""

    node_count: int = FRONTIER_NODE_COUNT
    node: Any = field(default_factory=BardPeakNode)
    fabric: DragonflyConfig | FatTreeConfig = field(
        default_factory=DragonflyConfig)
    filesystem: OrionFilesystem = field(default_factory=OrionFilesystem)
    node_local: Raid0Array = field(default_factory=node_local_storage)
    power: SystemPowerModel = field(default_factory=SystemPowerModel)
    routing: RoutingPolicy | None = RoutingPolicy.UGAL
    degradation: DegradationSpec = field(default_factory=DegradationSpec)
    name: str = "frontier"
    family: str = "frontier"

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError("machine needs at least one node")
        expected = self.fabric.total_endpoints // self.node.nic_count
        if self.node_count > expected:
            raise ConfigurationError(
                f"{self.node_count} nodes need {self.node_count * self.node.nic_count} "
                f"endpoints; the fabric has {self.fabric.total_endpoints}")
        if isinstance(self.fabric, FatTreeConfig):
            self.routing = None   # fat trees route ECMP, not a policy knob
        elif self.routing is None:
            raise ConfigurationError("dragonfly machines need a routing policy")
        if any(n >= self.node_count for n in self.degradation.failed_nodes):
            raise ConfigurationError("failed node id beyond node_count")
        # The FIT inventory is calibrated on Frontier; other families reuse
        # it scaled to their node count (a documented approximation until a
        # per-family inventory lands).
        self.resilience = MttiModel.frontier()
        self.resilience.total_nodes = self.node_count

    # -- the spec round trip --------------------------------------------------

    @classmethod
    def from_spec(cls, spec: MachineSpec) -> "Machine":
        """Assemble the machine a :class:`MachineSpec` describes.

        The node model and power inventory come from the machine-family
        registry entry named by ``spec.family``.
        """
        fam = resolve_family(spec.family)
        node = fam.node()
        if spec.nics_per_node != node.nic_count:
            raise ConfigurationError(
                f"{fam.name} nodes carry {node.nic_count} NICs; the spec "
                f"says {spec.nics_per_node}")
        return cls(node_count=spec.node_count,
                   node=node,
                   fabric=spec.fabric_config(),
                   filesystem=spec.storage.filesystem(),
                   node_local=spec.storage.node_local(),
                   power=fam.power(),
                   routing=spec.routing_policy,
                   degradation=spec.degradation,
                   name=spec.name,
                   family=fam.name)

    def spec(self) -> MachineSpec:
        """The serializable scenario this machine realises."""
        if isinstance(self.fabric, DragonflyConfig):
            fabric = DragonflyGeometry.from_config(self.fabric)
        else:
            fabric = FatTreeGeometry.from_config(self.fabric)
        return MachineSpec(
            name=self.name,
            family=self.family,
            node_count=self.node_count,
            nics_per_node=self.node.nic_count,
            fabric=fabric,
            routing=self.routing.value if self.routing is not None else "ecmp",
            storage=StorageSpec(ssu_count=self.filesystem.ssu_count,
                                mds_count=self.filesystem.mds_count,
                                nvme_per_node=len(self.node_local.drives)),
            degradation=self.degradation)

    # -- aggregates ---------------------------------------------------------

    @property
    def gcd_count(self) -> int:
        return self.node_count * self.node.gcd_count

    @property
    def gpus_per_node(self) -> int:
        """Accelerator devices the OS sees per node."""
        return self.node.gcd_count

    @property
    def gpu_threads(self) -> int:
        """>500M concurrent GPU threads on Frontier (§5.3)."""
        return self.node_count * self.node.gpu_threads

    @property
    def hbm_capacity_bytes(self) -> float:
        return self.node_count * self.node.hbm_capacity_bytes

    @property
    def ddr_capacity_bytes(self) -> float:
        return self.node_count * self.node.ddr_capacity_bytes

    @property
    def node_local_read_bandwidth(self) -> float:
        """§4.3.1's 67.3 TB/s full-system node-local read rate."""
        return self.node_count * self.node_local.sustained_seq_read

    @property
    def node_local_write_bandwidth(self) -> float:
        return self.node_count * self.node_local.sustained_seq_write

    @property
    def healthy_node_count(self) -> int:
        """Nodes available to the scheduler after draining failures."""
        return self.node_count - len(self.degradation.failed_nodes)

    def table1(self) -> dict[str, float]:
        return compute_table1(self.node_count, self.node, self.fabric)

    # -- factories ------------------------------------------------------------

    def scheduler(self, checknode=None) -> SlurmScheduler:
        """A scheduler over the healthy nodes.

        ``checknode`` follows the batched contract of
        :class:`~repro.scheduler.slurm.SlurmScheduler`: an int64 array of
        node ids in, a bool array of health verdicts out.
        """
        return SlurmScheduler(n_nodes=self.healthy_node_count,
                              checknode=checknode)

    def network(self, *, rng=None, latency=None):
        """The materialised fabric (memoized topology, degradation applied)."""
        return self.spec().build_network(rng=rng, latency=latency)

    def comm(self, layout):
        """A :class:`repro.mpi.simmpi.SimComm` wired to this machine."""
        if not isinstance(self.fabric, DragonflyConfig):
            raise ConfigurationError(
                f"SimComm models dragonfly fabrics; machine {self.name!r} "
                f"is a fat tree. Use spec.build_network() for fat-tree "
                f"flow studies.")
        return SimComm(layout, machine=self)

    def scaled(self, groups: int, switches_per_group: int,
               endpoints_per_switch: int) -> "Machine":
        """A taper-preserving reduced-scale machine (see MachineSpec.scaled)."""
        return Machine.from_spec(
            self.spec().scaled(groups, switches_per_group,
                               endpoints_per_switch))

    def degraded(self, *, failed_links: tuple[int, ...] = (),
                 failed_nodes: tuple[int, ...] = ()) -> "Machine":
        """This machine with extra failed links/nodes applied."""
        return Machine.from_spec(
            self.spec().degraded(failed_links=tuple(failed_links),
                                 failed_nodes=tuple(failed_nodes)))

    def summary(self) -> dict[str, float]:
        t1 = self.table1()
        return {
            **t1,
            "power_MW": self.power.hpl_power / 1e6,
            "gflops_per_watt": self.power.gflops_per_watt,
            "system_mtti_hours": self.resilience.system_mtti_hours,
            "orion_capacity_PB": sum(
                self.filesystem.tier_stats(t).capacity for t in Tier) / 1e15,
        }


#: Deprecation alias — the facade is no longer Frontier-specific.
FrontierMachine = Machine
