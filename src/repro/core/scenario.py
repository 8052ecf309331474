"""The scenario layer: serializable machine descriptions.

A :class:`MachineSpec` is the **composition root** of the reproduction:
one frozen, JSON-round-trippable value that names everything the paper's
evaluation varies — node count, fabric geometry (dragonfly or fat tree),
routing policy, storage tiers, and degradation knobs (failed links and
nodes).  Downstream layers (:class:`repro.mpi.simmpi.SimComm`,
:mod:`repro.scheduler.placement`, :mod:`repro.microbench`,
:mod:`repro.core.evaluation`, the probe suite) obtain their configuration
from a spec — directly or through the :class:`Machine` built from it —
instead of default-constructing :class:`DragonflyConfig` ad hoc.  Every
spec carries a ``family`` tag naming its machine family
(:mod:`repro.core.family`), which resolves the node model, power
inventory, and efficiency anchors.

Typical use::

    spec = frontier_spec()                     # the paper's machine
    machine = spec.machine()                   # FrontierMachine.from_spec
    small = spec.scaled(8, 4, 4)               # taper-preserving reduction
    net = small.degraded(failed_links=(3,)).build_network(rng=0)

Specs serialize losslessly: ``MachineSpec.from_json(spec.to_json()) ==
spec``, which is what makes ``python -m repro mpigraph --spec FILE`` (and
every future sweep harness) reproducible from one artifact.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from typing import Any, Sequence, Union

from repro.core.specs_table import FRONTIER_NODE_COUNT
from repro.errors import ConfigurationError
from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.fattree import FatTreeConfig
from repro.fabric.network import FatTreeNetwork, SlingshotNetwork
from repro.fabric.routing import RoutingPolicy
from repro.storage.lustre import OrionFilesystem
from repro.storage.nvme import NvmeDrive, Raid0Array

__all__ = [
    "DragonflyGeometry", "FatTreeGeometry", "StorageSpec", "DegradationSpec",
    "CongestionSpec", "ResiliencePolicySpec", "REPLACE_POLICIES",
    "MachineSpec", "FRONTIER_SPEC", "SUMMIT_SPEC", "AURORA_SPEC",
    "frontier_spec", "summit_spec", "aurora_spec",
    "resolve_dragonfly", "off_default", "decode_block",
]

#: Spec document schema (bumped on incompatible field changes).
SPEC_SCHEMA_VERSION = 1


# -- the serialization rule ---------------------------------------------------


@lru_cache(maxsize=None)
def _defaults(cls: type) -> Any:
    """``cls()``, built once: the reference every off-default test uses."""
    return cls()


@lru_cache(maxsize=None)
def _names(cls: type) -> tuple[str, ...]:
    """The field names of dataclass ``cls``, in declaration order."""
    return tuple(f.name for f in fields(cls))


def _as_dict(value: Any, names: Sequence[str] | None = None) -> dict[str, Any]:
    """``{field: value}`` of a dataclass (all fields, or ``names``)."""
    return {name: (list(v) if isinstance(v := getattr(value, name), tuple)
                   else v)
            for name in (_names(type(value)) if names is None else names)}


def off_default(value: Any, names: Sequence[str] | None = None, *,
                whole: bool = False) -> dict[str, Any]:
    """The fields of ``value`` (of ``names``, or all) off their defaults.

    The one rule for optional knobs, so that adding a knob never changes
    the bytes of existing spec files, task ids or run ids.  Per field
    (``whole=False``) each changed field serializes alone: ``family``,
    the degradation chaos knobs, ``adaptive_prior_scale``.  Per block
    (``whole=True``) every field serializes once any one is changed:
    ``congestion``, ``resilience``.
    """
    if names is None:
        names = _names(type(value))
    default = _defaults(type(value))
    changed = [n for n in names if getattr(value, n) != getattr(default, n)]
    if not changed:
        return {}
    return _as_dict(value, names if whole else changed)


#: JSON types a spec field accepts, by the type of its default value
#: (the last one names the type in errors).
_JSON_TYPES: dict[type, tuple[type, ...]] = {
    bool: (bool,), int: (int,), float: (int, float), str: (str,),
    tuple: (tuple, list)}


@lru_cache(maxsize=None)
def _field_rules(cls: type) -> dict[str, tuple[type | None, tuple | None]]:
    """``{field: (nested dataclass, accepted JSON types)}`` of ``cls``;
    a field defaulting to ``None`` accepts any type."""
    rules = {}
    for name in _names(cls):
        ref = getattr(_defaults(cls), name)
        rules[name] = ((type(ref), None) if is_dataclass(ref) else
                       (None, None if ref is None else _JSON_TYPES[type(ref)]))
    return rules


def decode_block(cls: type, doc: Any, where: str, **decoded: Any) -> Any:
    """The dataclass ``cls`` from one JSON block of a spec or config.

    Absent fields keep their defaults; nested dataclass blocks decode
    recursively; ``decoded`` supplies fields the caller has already
    built (the machine spec's fabric).  Unknown keys, values of the
    wrong JSON type and values the dataclass rejects all raise
    :class:`ConfigurationError` naming the block, so a malformed
    document never escapes as a bare ``TypeError`` or runs with a
    misspelt knob silently ignored.
    """
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"{where} must be a JSON object, got {type(doc).__name__}")
    rules = _field_rules(cls)
    extras = doc.keys() - rules.keys()
    if extras:
        raise ConfigurationError(f"unknown {where} fields: {sorted(extras)}")
    kwargs = dict(decoded)
    for name, value in doc.items():
        nested, accepted = rules[name]
        if nested is not None:
            value = decode_block(nested, value, name)
        elif accepted is not None and not (
                isinstance(value, accepted)
                and (type(value) is bool) == (bool in accepted)):
            raise ConfigurationError(
                f"{where} field {name!r} wants {accepted[-1].__name__}, "
                f"got {value!r}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid {where}: {exc}") from exc


# -- fabric geometries --------------------------------------------------------


@dataclass(frozen=True)
class DragonflyGeometry:
    """Serializable mirror of :class:`DragonflyConfig` (kind "dragonfly")."""

    groups: int = 74
    switches_per_group: int = 32
    endpoints_per_switch: int = 16
    link_rate: float = 25e9
    global_links_per_pair: int = 4
    l1_ports: int = 32
    l2_ports: int = 16

    kind = "dragonfly"

    def config(self) -> DragonflyConfig:
        """Materialise the (validated) fabric config."""
        return DragonflyConfig(
            groups=self.groups,
            switches_per_group=self.switches_per_group,
            endpoints_per_switch=self.endpoints_per_switch,
            link_rate=self.link_rate,
            global_links_per_pair=self.global_links_per_pair,
            l1_ports=self.l1_ports,
            l2_ports=self.l2_ports)

    @classmethod
    def from_config(cls, cfg: DragonflyConfig) -> "DragonflyGeometry":
        return cls(groups=cfg.groups,
                   switches_per_group=cfg.switches_per_group,
                   endpoints_per_switch=cfg.endpoints_per_switch,
                   link_rate=cfg.link_rate,
                   global_links_per_pair=cfg.global_links_per_pair,
                   l1_ports=cfg.l1_ports,
                   l2_ports=cfg.l2_ports)


@dataclass(frozen=True)
class FatTreeGeometry:
    """Serializable mirror of :class:`FatTreeConfig` (kind "fattree")."""

    edge_switches: int = 18
    endpoints_per_edge: int = 24
    link_rate: float = 12.5e9
    oversubscription: float = 1.0

    kind = "fattree"

    def config(self) -> FatTreeConfig:
        return FatTreeConfig(edge_switches=self.edge_switches,
                             endpoints_per_edge=self.endpoints_per_edge,
                             link_rate=self.link_rate,
                             oversubscription=self.oversubscription)

    @classmethod
    def from_config(cls, cfg: FatTreeConfig) -> "FatTreeGeometry":
        return cls(edge_switches=cfg.edge_switches,
                   endpoints_per_edge=cfg.endpoints_per_edge,
                   link_rate=cfg.link_rate,
                   oversubscription=cfg.oversubscription)


FabricGeometry = Union[DragonflyGeometry, FatTreeGeometry]

_GEOMETRY_KINDS: dict[str, type] = {
    DragonflyGeometry.kind: DragonflyGeometry,
    FatTreeGeometry.kind: FatTreeGeometry,
}


def _geometry_from_dict(doc: Any) -> FabricGeometry:
    kind = doc.get("kind") if isinstance(doc, dict) else None
    cls = _GEOMETRY_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown fabric kind {kind!r}; have {sorted(_GEOMETRY_KINDS)}")
    body = {k: v for k, v in doc.items() if k != "kind"}
    return decode_block(cls, body, f"{kind} fabric")


# -- storage and degradation --------------------------------------------------


@dataclass(frozen=True)
class StorageSpec:
    """Storage tiers: center-wide Orion and the node-local NVMe array."""

    ssu_count: int = 225
    mds_count: int = 40
    nvme_per_node: int = 2

    def __post_init__(self) -> None:
        if self.ssu_count < 1 or self.mds_count < 1:
            raise ConfigurationError("storage needs at least one SSU and MDS")
        if self.nvme_per_node < 1:
            raise ConfigurationError("node-local RAID-0 needs >= 1 drive")

    def filesystem(self):
        """A fresh :class:`repro.storage.lustre.OrionFilesystem`."""
        return OrionFilesystem(ssu_count=self.ssu_count,
                               mds_count=self.mds_count)

    def node_local(self):
        """A fresh :class:`repro.storage.nvme.Raid0Array`."""
        return Raid0Array(drives=tuple(NvmeDrive()
                                       for _ in range(self.nvme_per_node)))


#: Checkpoint policies a chaos run may schedule under (``fixed`` uses
#: the spec's explicit interval).
CHECKPOINT_POLICIES = ("daly", "young", "fixed")


@dataclass(frozen=True)
class DegradationSpec:
    """Failure knobs for degraded-machine experiments.

    ``failed_links`` are topology link indices the fabric manager has
    routed around; ``failed_nodes`` are node ids drained from scheduling.
    Both are stored sorted and de-duplicated so equal degradations compare
    equal regardless of how they were written down.

    ``failure_scale`` and ``checkpoint_policy`` parameterise *dynamic*
    fault injection (:mod:`repro.chaos`): the former multiplies every FIT
    rate in the component inventory, the latter selects how interrupted
    jobs checkpoint (Young/Daly optimum or a fixed
    ``checkpoint_interval_s``).  They default to the pristine machine and
    each serializes only off its default (:func:`off_default`).
    """

    failed_links: tuple[int, ...] = ()
    failed_nodes: tuple[int, ...] = ()
    failure_scale: float = 1.0
    checkpoint_policy: str = "daly"
    checkpoint_interval_s: float | None = None

    def __post_init__(self) -> None:
        for name in ("failed_links", "failed_nodes"):
            raw = getattr(self, name)
            # ``True`` is an int, and ``int()`` of NaN or an infinity
            # raises: check the type and the range before converting.
            if not all(isinstance(i, numbers.Real) and not isinstance(i, bool)
                       and 0 <= i < math.inf and int(i) == i for i in raw):
                raise ConfigurationError(
                    f"degradation {name} must be non-negative integers, "
                    f"got {raw!r}")
            object.__setattr__(self, name, tuple(sorted(set(int(i) for i in raw))))
        if not 0 < self.failure_scale < math.inf:
            raise ConfigurationError("failure_scale must be positive and "
                                     f"finite, got {self.failure_scale!r}")
        object.__setattr__(self, "failure_scale", float(self.failure_scale))
        if self.checkpoint_policy not in CHECKPOINT_POLICIES:
            raise ConfigurationError(
                f"checkpoint_policy must be one of {CHECKPOINT_POLICIES}, "
                f"got {self.checkpoint_policy!r}")
        if self.checkpoint_interval_s is not None:
            if not self.checkpoint_interval_s > 0:
                raise ConfigurationError(
                    "checkpoint_interval_s must be positive")
            object.__setattr__(self, "checkpoint_interval_s",
                               float(self.checkpoint_interval_s))
        elif self.checkpoint_policy == "fixed":
            raise ConfigurationError(
                "checkpoint_policy 'fixed' needs checkpoint_interval_s")

    @property
    def is_pristine(self) -> bool:
        return not self.failed_links and not self.failed_nodes


@dataclass(frozen=True)
class CongestionSpec:
    """Congestion-study knobs (:mod:`repro.fabric.timeflow`).

    ``ecn``/``ecn_k`` select the backpressure arm (``ecn=False`` is the
    FIFO baseline), ``burst_duty`` the congestors' on-fraction, and
    ``incast_fanin`` the number of senders aimed at the victim.  These
    are the ``ecn_k`` / ``burst_duty`` / ``incast_fanin`` sweep axes.
    The block serializes whole once any knob is off its default
    (:func:`off_default`).
    """

    ecn: bool = True
    ecn_k: int = 30
    burst_duty: float = 1.0
    incast_fanin: int = 8

    def __post_init__(self) -> None:
        if self.ecn_k < 1:
            raise ConfigurationError(
                f"ecn_k must be >= 1 MTU, got {self.ecn_k!r}")
        if not 0.0 < self.burst_duty <= 1.0:
            raise ConfigurationError(
                f"burst_duty must be in (0, 1], got {self.burst_duty!r}")
        if self.incast_fanin < 1:
            raise ConfigurationError(
                f"incast_fanin must be >= 1, got {self.incast_fanin!r}")
        object.__setattr__(self, "ecn_k", int(self.ecn_k))
        object.__setattr__(self, "burst_duty", float(self.burst_duty))
        object.__setattr__(self, "incast_fanin", int(self.incast_fanin))

    @property
    def is_default(self) -> bool:
        return self == CongestionSpec()


#: How a spare-pool replacement node is chosen relative to the surviving
#: job block (see :mod:`repro.chaos.heal`): ``pack`` prefers a spare in
#: the dragonfly group holding the most survivors, ``spread`` prefers the
#: group holding the fewest, ``any`` takes the lowest-numbered spare.
REPLACE_POLICIES = ("pack", "spread", "any")


@dataclass(frozen=True)
class ResiliencePolicySpec:
    """Self-healing knobs (:mod:`repro.chaos.heal`).

    ``spare_fraction`` reserves that fraction of nodes as a warm spare
    pool the scheduler backfills blast-radius victims from;
    ``adaptive_checkpointing`` turns on the measurement-driven
    checkpoint-interval controller
    (:mod:`repro.resilience.adaptive`); ``replace_policy`` picks how a
    replacement spare is chosen relative to the surviving job block.
    All defaults are "no healing", and the block serializes whole once
    any knob is off its default (:func:`off_default`).
    """

    spare_fraction: float = 0.0
    adaptive_checkpointing: bool = False
    replace_policy: str = "pack"

    def __post_init__(self) -> None:
        if not 0.0 <= self.spare_fraction <= 0.5:
            raise ConfigurationError(
                f"spare_fraction must be in [0, 0.5], "
                f"got {self.spare_fraction!r}")
        if self.replace_policy not in REPLACE_POLICIES:
            raise ConfigurationError(
                f"replace_policy must be one of {REPLACE_POLICIES}, "
                f"got {self.replace_policy!r}")
        object.__setattr__(self, "spare_fraction", float(self.spare_fraction))
        object.__setattr__(self, "adaptive_checkpointing",
                           bool(self.adaptive_checkpointing))

    @property
    def is_default(self) -> bool:
        return self == ResiliencePolicySpec()


# -- the machine spec ---------------------------------------------------------


@dataclass(frozen=True)
class MachineSpec:
    """One frozen, serializable description of a simulated machine."""

    name: str = "frontier"
    family: str = "frontier"
    node_count: int = FRONTIER_NODE_COUNT
    nics_per_node: int = 4
    fabric: FabricGeometry = field(default_factory=DragonflyGeometry)
    routing: str = RoutingPolicy.UGAL.value
    storage: StorageSpec = field(default_factory=StorageSpec)
    degradation: DegradationSpec = field(default_factory=DegradationSpec)
    congestion: CongestionSpec = field(default_factory=CongestionSpec)
    resilience: ResiliencePolicySpec = field(
        default_factory=ResiliencePolicySpec)

    def __post_init__(self) -> None:
        if not self.family or not isinstance(self.family, str):
            raise ConfigurationError(
                "machine family must be a non-empty string")
        object.__setattr__(self, "family", self.family.lower())
        if self.node_count < 1:
            raise ConfigurationError("a machine needs at least one node")
        if self.nics_per_node < 1:
            raise ConfigurationError("nodes need at least one NIC")
        cfg = self.fabric.config()   # validates the geometry itself
        needed = self.node_count * self.nics_per_node
        if needed > cfg.total_endpoints:
            raise ConfigurationError(
                f"{self.node_count} nodes need {needed} fabric endpoints; "
                f"the {self.fabric.kind} has {cfg.total_endpoints}")
        if isinstance(self.fabric, DragonflyGeometry):
            allowed = {p.value for p in RoutingPolicy}
            if self.routing not in allowed:
                raise ConfigurationError(
                    f"dragonfly routing must be one of {sorted(allowed)}, "
                    f"not {self.routing!r}")
        elif self.routing != "ecmp":
            raise ConfigurationError(
                f"fat-tree scenarios route ECMP, not {self.routing!r}")
        if any(n >= self.node_count for n in self.degradation.failed_nodes):
            raise ConfigurationError("failed node id beyond node_count")

    # -- materialisation -----------------------------------------------------

    def fabric_config(self) -> DragonflyConfig | FatTreeConfig:
        """The validated fabric config (cheap: no topology is built)."""
        return self.fabric.config()

    @property
    def routing_policy(self) -> RoutingPolicy | None:
        """The dragonfly routing policy, or ``None`` for ECMP fat trees."""
        if isinstance(self.fabric, DragonflyGeometry):
            return RoutingPolicy(self.routing)
        return None

    @property
    def healthy_node_count(self) -> int:
        return self.node_count - len(self.degradation.failed_nodes)

    def build_network(self, *, rng=None, latency=None):
        """Materialise the fabric (memoized topology) with degradation applied.

        Returns a :class:`repro.fabric.network.SlingshotNetwork` or
        :class:`~repro.fabric.network.FatTreeNetwork`; every
        ``failed_links`` entry is disabled on the router so minimal routes
        fail over exactly like the Fabric Manager's sweeps.
        """
        cfg = self.fabric_config()
        if isinstance(cfg, DragonflyConfig):
            net = SlingshotNetwork(cfg, policy=RoutingPolicy(self.routing),
                                   latency=latency, rng=rng,
                                   nics_per_node=self.nics_per_node)
        else:
            net = FatTreeNetwork(cfg, rng=rng, latency=latency,
                                 nics_per_node=self.nics_per_node)
        for link in self.degradation.failed_links:
            net.disable_link(link)
        return net

    def machine(self):
        """The :class:`repro.core.machine.Machine` for this spec.

        Node model and power inventory are resolved through the
        machine-family registry (:mod:`repro.core.family`) keyed by
        ``self.family``.
        """
        from repro.core.machine import Machine
        return Machine.from_spec(self)

    # -- variants ------------------------------------------------------------

    def scaled(self, groups: int, switches_per_group: int,
               endpoints_per_switch: int) -> "MachineSpec":
        """A taper-preserving reduced-scale dragonfly variant.

        Node count follows the shrunken endpoint pool; degradation knobs
        are dropped (link indices are not portable across topologies).
        """
        if not isinstance(self.fabric, DragonflyGeometry):
            raise ConfigurationError("only dragonfly scenarios can be scaled")
        cfg = self.fabric_config().scaled(groups, switches_per_group,
                                          endpoints_per_switch)
        return replace(
            self,
            name=f"{self.name}-scaled-{groups}x{switches_per_group}"
                 f"x{endpoints_per_switch}",
            node_count=cfg.total_endpoints // self.nics_per_node,
            fabric=DragonflyGeometry.from_config(cfg),
            # Link/node indices are not portable across topologies; the
            # chaos knobs (rates and policy) are, so they survive.
            degradation=replace(self.degradation, failed_links=(),
                                failed_nodes=()))

    def degraded(self, *, failed_links: tuple[int, ...] = (),
                 failed_nodes: tuple[int, ...] = ()) -> "MachineSpec":
        """This spec plus extra failed links/nodes (merged, deduplicated)."""
        merged = replace(
            self.degradation,
            failed_links=self.degradation.failed_links + tuple(failed_links),
            failed_nodes=self.degradation.failed_nodes + tuple(failed_nodes))
        return replace(self, degradation=merged)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        deg = self.degradation
        doc = {
            "schema": SPEC_SCHEMA_VERSION,
            "name": self.name,
            **off_default(self, ("family",)),
            "node_count": self.node_count,
            "nics_per_node": self.nics_per_node,
            "fabric": {"kind": self.fabric.kind, **_as_dict(self.fabric)},
            "routing": self.routing,
            "storage": _as_dict(self.storage),
            "degradation": _as_dict(deg, ("failed_links", "failed_nodes"))
            | off_default(deg, ("failure_scale", "checkpoint_policy",
                                "checkpoint_interval_s")),
        }
        for name in ("congestion", "resilience"):
            block = off_default(getattr(self, name), whole=True)
            if block:
                doc[name] = block
        return doc

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "MachineSpec":
        if not isinstance(doc, dict):
            raise ConfigurationError("machine spec must be a JSON object")
        schema = doc.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported spec schema {schema!r} "
                f"(this build reads {SPEC_SCHEMA_VERSION})")
        body = {k: v for k, v in doc.items() if k != "schema"}
        fabric = _geometry_from_dict(body.pop("fabric", {"kind": "dragonfly"}))
        return decode_block(cls, body, "machine spec", fabric=fabric)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MachineSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid machine-spec JSON: {exc}") from exc
        return cls.from_dict(doc)

    def save(self, path: str) -> str:
        """Write the spec to ``path``; returns the path."""
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "MachineSpec":
        with open(path) as fh:
            return cls.from_json(fh.read())


#: The paper's machine: 9,472 nodes on the 74-group compute dragonfly.
FRONTIER_SPEC = MachineSpec()

#: Summit, the Figure 6 comparison system: EDR fat tree, one rail modeled.
SUMMIT_SPEC = MachineSpec(
    name="summit", family="summit", node_count=4608, nics_per_node=1,
    fabric=FatTreeGeometry(edge_switches=192, endpoints_per_edge=24),
    routing="ecmp")

#: Aurora: 10,624 nodes x 8 Slingshot NICs on a 166-group dragonfly.  The
#: endpoint pool (166 x 32 x 16 = 84,992) is exactly nodes x NICs; two
#: global links per group pair give Aurora's shallower 0.645 taper (330
#: global vs 512 injection links per group) against Frontier's 0.570.
AURORA_SPEC = MachineSpec(
    name="aurora", family="aurora", node_count=10624, nics_per_node=8,
    fabric=DragonflyGeometry(groups=166, switches_per_group=32,
                             endpoints_per_switch=16,
                             global_links_per_pair=2),
    storage=StorageSpec(ssu_count=74, mds_count=16, nvme_per_node=1))


def frontier_spec() -> MachineSpec:
    """The default (paper) scenario."""
    return FRONTIER_SPEC


def summit_spec() -> MachineSpec:
    """The Summit comparison scenario."""
    return SUMMIT_SPEC


def aurora_spec() -> MachineSpec:
    """The Aurora scenario (Ponte Vecchio nodes, 8-NIC dragonfly)."""
    return AURORA_SPEC


@lru_cache(maxsize=1)
def _default_dragonfly() -> DragonflyConfig:
    return FRONTIER_SPEC.fabric_config()


def resolve_dragonfly(source: Any = None) -> DragonflyConfig:
    """Coerce ``source`` into a dragonfly config.

    Accepts ``None`` (-> the Frontier scenario's fabric), a
    :class:`DragonflyConfig`, a :class:`MachineSpec`, or anything carrying
    a dragonfly ``.fabric`` attribute (a :class:`FrontierMachine`).  This
    is the one funnel downstream layers use instead of default-constructing
    :class:`DragonflyConfig` themselves.
    """
    if source is None:
        return _default_dragonfly()
    if isinstance(source, DragonflyConfig):
        return source
    if isinstance(source, MachineSpec):
        cfg = source.fabric_config()
        if not isinstance(cfg, DragonflyConfig):
            raise ConfigurationError(
                f"scenario {source.name!r} is not a dragonfly machine")
        return cfg
    fabric = getattr(source, "fabric", None)
    if isinstance(fabric, DragonflyConfig):
        return fabric
    raise ConfigurationError(
        f"cannot derive a dragonfly config from {type(source).__name__}")
