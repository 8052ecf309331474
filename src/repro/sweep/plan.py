"""Grid expansion: one base scenario × axes -> a deterministic task list.

A :class:`SweepPlan` is the frozen, fully-expanded work list of a
scenario sweep.  It is built either from a base :class:`MachineSpec`
plus **axes** (named lists of values — ``scale=[0.25, 0.5, 1.0] ×
disabled_links=[0, 8, 64] × routing=[minimal, ugal]``) or from a
directory of spec files.  Every grid point becomes a
:class:`SweepTask`, keyed by a **content hash** of
``(spec_json, probe_name, seed)``:

* the hash names the task's artifact (``<out>/<hash>.json``), which is
  what makes sweeps resumable — a completed hash on disk is skipped;
* two grid points that collapse to the same spec (e.g. ``scale=1.0``
  reached twice) deduplicate, because the hash sees the spec, not the
  path that produced it;
* the per-task RNG seed is itself derived from the spec + probe + the
  sweep seed, so a task draws the same stream no matter where in the
  grid it sits or which worker runs it.

Axes are applied in the fixed order of :data:`AXES`
(``machine_family`` first — it swaps in a registered family's preset,
which the other axes then vary; then scale — a rescale drops degradation
knobs, so degradation axes must land after it), regardless of the order
the caller wrote them down.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.core.family import family
from repro.core.scenario import MachineSpec
from repro.errors import ConfigurationError
from repro.fabric.dragonfly import build_dragonfly
from repro.fabric.fattree import build_fattree
from repro.sweep.probes import SWEEP_PROBES

__all__ = ["AXES", "SweepTask", "SweepPlan", "apply_axes", "scaled_fraction",
           "task_hash", "derive_seed"]


# -- axis appliers -------------------------------------------------------------


def scaled_fraction(spec: MachineSpec, fraction: float) -> MachineSpec:
    """A reduced-scale dragonfly variant at roughly ``fraction`` per dim.

    Groups, switches-per-group, and endpoints-per-switch each shrink to
    ``max(2, round(dim * fraction))`` — taper preserved by
    :meth:`MachineSpec.scaled`.  ``fraction=1.0`` is the identity (the
    full machine, degradation intact).
    """
    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(
            f"scale axis wants a fraction in (0, 1], got {fraction!r}")
    if fraction == 1.0:
        return spec
    geometry = spec.fabric
    if geometry.kind != "dragonfly":
        raise ConfigurationError("only dragonfly scenarios can be scaled")

    def shrink(dim: int) -> int:
        return max(2, round(dim * fraction))

    return spec.scaled(shrink(geometry.groups),
                       shrink(geometry.switches_per_group),
                       shrink(geometry.endpoints_per_switch))


def _axis_machine_family(spec: MachineSpec, value: Any) -> MachineSpec:
    """Swap in a registered family's canonical spec (the base spec is
    discarded — this axis selects *which machine*, so it applies first
    and the remaining axes vary that preset)."""
    return family(str(value)).spec()


def _axis_scale(spec: MachineSpec, value: Any) -> MachineSpec:
    return scaled_fraction(spec, float(value))


def _axis_routing(spec: MachineSpec, value: Any) -> MachineSpec:
    # replace() re-runs __post_init__, so bad policies fail at plan time.
    return replace(spec, routing=str(value))


def _axis_disabled_links(spec: MachineSpec, value: Any) -> MachineSpec:
    """Disable the first N *global* links (a deterministic failure set).

    Global (L2) links are the ones the Fabric Manager can route around —
    killing edge links would strand endpoints and fail every probe rather
    than degrade the machine.  The N failures are spread evenly across
    the global link list (stride sampling) so they hit different group
    pairs, like real cable failures, instead of severing one group.
    Resolving kind -> dense index needs the topology, which is memoized
    per geometry, so a whole grid sharing one scale pays for it once.
    """
    n = int(value)
    if n < 0:
        raise ConfigurationError(
            f"disabled_links axis wants a count >= 0, got {n}")
    if n == 0:
        indices: tuple[int, ...] = ()
    else:
        if spec.fabric.kind == "dragonfly":
            topo = build_dragonfly(spec.fabric_config())
        else:
            topo = build_fattree(spec.fabric_config())
        l2 = tuple(np.flatnonzero(topo.flat.link_kind == 2).tolist())  # L2
        if len(l2) < n:
            raise ConfigurationError(
                f"disabled_links={n}: the {spec.fabric.kind} only has "
                f"{len(l2)} global links")
        stride = len(l2) // n
        indices = l2[::stride][:n]
    return replace(spec, degradation=replace(
        spec.degradation, failed_links=indices))


def _axis_disabled_nodes(spec: MachineSpec, value: Any) -> MachineSpec:
    """Drain the first N nodes from scheduling."""
    n = int(value)
    if n < 0:
        raise ConfigurationError(
            f"disabled_nodes axis wants a count >= 0, got {n}")
    return replace(spec, degradation=replace(
        spec.degradation, failed_nodes=tuple(range(n))))


def _axis_nics(spec: MachineSpec, value: Any) -> MachineSpec:
    return replace(spec, nics_per_node=int(value))


def _axis_failure_scale(spec: MachineSpec, value: Any) -> MachineSpec:
    """Multiply every FIT rate (the chaos axis; 1.0 is as-built)."""
    return replace(spec, degradation=replace(
        spec.degradation, failure_scale=float(value)))


def _axis_checkpoint_policy(spec: MachineSpec, value: Any) -> MachineSpec:
    """Checkpoint policy for chaos runs: ``daly``/``young``, or a number
    (seconds) meaning a fixed interval."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return replace(spec, degradation=replace(
            spec.degradation, checkpoint_policy="fixed",
            checkpoint_interval_s=float(value)))
    return replace(spec, degradation=replace(
        spec.degradation, checkpoint_policy=str(value)))


def _axis_spare_fraction(spec: MachineSpec, value: Any) -> MachineSpec:
    """Fraction of nodes carved into the warm spare pool for chaos-heal
    runs (:mod:`repro.chaos.heal`); ``0.0`` disables healing."""
    return replace(spec, resilience=replace(
        spec.resilience, spare_fraction=float(value)))


def _axis_adaptive_checkpointing(spec: MachineSpec, value: Any) -> MachineSpec:
    """Toggle the measurement-driven checkpoint controller for chaos
    runs (accepts bools or the strings ``on``/``off``/``true``/...)."""
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("1", "true", "on", "yes"):
            flag = True
        elif lowered in ("0", "false", "off", "no"):
            flag = False
        else:
            raise ConfigurationError(
                f"adaptive_checkpointing axis wants a boolean, got {value!r}")
    else:
        flag = bool(value)
    return replace(spec, resilience=replace(
        spec.resilience, adaptive_checkpointing=flag))


def _axis_ecn_k(spec: MachineSpec, value: Any) -> MachineSpec:
    """ECN marking threshold in MTUs for congest runs; ``0`` disables
    backpressure entirely (the FIFO arm of the k-sweep)."""
    k = int(value)
    if k == 0:
        return replace(spec, congestion=replace(
            spec.congestion, ecn=False))
    return replace(spec, congestion=replace(
        spec.congestion, ecn=True, ecn_k=k))


def _axis_burst_duty(spec: MachineSpec, value: Any) -> MachineSpec:
    """Congestor duty cycle (on-fraction) for congest runs."""
    return replace(spec, congestion=replace(
        spec.congestion, burst_duty=float(value)))


def _axis_incast_fanin(spec: MachineSpec, value: Any) -> MachineSpec:
    """Number of incast senders aimed at the victim in congest runs."""
    return replace(spec, congestion=replace(
        spec.congestion, incast_fanin=int(value)))


#: Axis name -> applier, in **application order** (machine_family first —
#: it replaces the spec wholesale, so every other axis varies the chosen
#: preset; then scale: rescaling resets degradation, so failure axes must
#: be applied afterwards).
AXES: dict[str, Callable[[MachineSpec, Any], MachineSpec]] = {
    "machine_family": _axis_machine_family,
    "scale": _axis_scale,
    "nics_per_node": _axis_nics,
    "routing": _axis_routing,
    "disabled_links": _axis_disabled_links,
    "disabled_nodes": _axis_disabled_nodes,
    "failure_scale": _axis_failure_scale,
    "checkpoint_policy": _axis_checkpoint_policy,
    "spare_fraction": _axis_spare_fraction,
    "adaptive_checkpointing": _axis_adaptive_checkpointing,
    "ecn_k": _axis_ecn_k,
    "burst_duty": _axis_burst_duty,
    "incast_fanin": _axis_incast_fanin,
}


def apply_axes(spec: MachineSpec, point: Mapping[str, Any]) -> MachineSpec:
    """Apply one grid point's coordinates to ``spec`` (canonical order)."""
    unknown = set(point) - set(AXES)
    if unknown:
        raise ConfigurationError(
            f"unknown sweep axes {sorted(unknown)}; have {sorted(AXES)}")
    for name, applier in AXES.items():
        if name in point:
            spec = applier(spec, point[name])
    return spec


# -- task identity -------------------------------------------------------------


def _canonical(doc: dict[str, Any]) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def task_hash(spec: MachineSpec, probe: str, seed: int) -> str:
    """Content hash keying a task's artifact (16 hex chars of SHA-256)."""
    return hashlib.sha256(_canonical({
        "spec": spec.to_dict(), "probe": probe, "seed": int(seed),
    })).hexdigest()[:16]


def derive_seed(spec: MachineSpec, probe: str, sweep_seed: int) -> int:
    """The task's own RNG seed: stable in (spec, probe, sweep seed) only.

    Deliberately *not* a function of grid position or execution order, so
    re-planning the same point inside a different grid — or resuming half
    a sweep — replays the identical stream.  Workers turn it into an
    independent generator via :func:`repro.rng.spawn`.
    """
    digest = hashlib.sha256(_canonical({
        "spec": spec.to_dict(), "probe": probe, "sweep_seed": int(sweep_seed),
    })).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative int64


# -- the plan ------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: evaluate ``probe`` on ``spec`` with ``seed``."""

    spec: MachineSpec
    probe: str
    seed: int
    #: Grid coordinates (or provenance like ``spec_file``), for reporting
    #: only — identity is (spec, probe, seed).
    axes: tuple[tuple[str, Any], ...] = ()

    @functools.cached_property
    def task_id(self) -> str:
        """Content hash of (spec, probe, seed), computed once per task."""
        return task_hash(self.spec, self.probe, self.seed)

    def to_dict(self) -> dict[str, Any]:
        """The artifact's ``task`` block (JSON-friendly)."""
        return {
            "id": self.task_id,
            "probe": self.probe,
            "seed": self.seed,
            "axes": {k: v for k, v in self.axes},
            "spec": self.spec.to_dict(),
        }


def _check_probes(probes: Iterable[str]) -> tuple[str, ...]:
    names = tuple(probes)
    if not names:
        raise ConfigurationError("a sweep needs at least one probe")
    unknown = set(names) - set(SWEEP_PROBES)
    if unknown:
        raise ConfigurationError(
            f"unknown sweep probes {sorted(unknown)}; "
            f"have {sorted(SWEEP_PROBES)}")
    return names


@dataclass(frozen=True)
class SweepPlan:
    """A fully-expanded, deduplicated, deterministic list of sweep tasks."""

    tasks: tuple[SweepTask, ...]

    def __len__(self) -> int:
        return len(self.tasks)

    def task_ids(self) -> list[str]:
        return [t.task_id for t in self.tasks]

    # -- constructors --------------------------------------------------------

    @classmethod
    def grid(cls, base: MachineSpec,
             axes: Mapping[str, Iterable[Any]] | None = None,
             probes: Iterable[str] = ("mpigraph",),
             seed: int = 0) -> "SweepPlan":
        """Expand ``base × axes × probes`` into the task list.

        Expansion order is the cartesian product in the caller's axis
        order (outermost first) with probes innermost; points collapsing
        to an identical (spec, probe, seed) dedupe, keeping the first.
        """
        probes = _check_probes(probes)
        named = [(name, tuple(values)) for name, values in (axes or {}).items()]
        for name, values in named:
            if not values:
                raise ConfigurationError(f"axis {name!r} has no values")
        tasks: list[SweepTask] = []
        seen: set[str] = set()
        for combo in itertools.product(*(values for _, values in named)):
            point = {name: value
                     for (name, _), value in zip(named, combo)}
            spec = apply_axes(base, point)
            for probe in probes:
                task = SweepTask(spec=spec, probe=probe,
                                 seed=derive_seed(spec, probe, seed),
                                 axes=tuple(sorted(point.items())))
                if task.task_id not in seen:
                    seen.add(task.task_id)
                    tasks.append(task)
        return cls(tasks=tuple(tasks))

    @classmethod
    def from_spec_dir(cls, path: str,
                      probes: Iterable[str] = ("mpigraph",),
                      seed: int = 0) -> "SweepPlan":
        """One task per ``*.json`` spec file in ``path`` (sorted) × probe."""
        probes = _check_probes(probes)
        names = sorted(n for n in os.listdir(path) if n.endswith(".json"))
        if not names:
            raise ConfigurationError(f"no *.json machine specs under {path}")
        tasks: list[SweepTask] = []
        seen: set[str] = set()
        for name in names:
            spec = MachineSpec.load(os.path.join(path, name))
            for probe in probes:
                task = SweepTask(spec=spec, probe=probe,
                                 seed=derive_seed(spec, probe, seed),
                                 axes=(("spec_file", name),))
                if task.task_id not in seen:
                    seen.add(task.task_id)
                    tasks.append(task)
        return cls(tasks=tuple(tasks))
