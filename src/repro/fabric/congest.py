"""The k-sweep incast study on the timeflow engine, and its artifacts.

A study integrates one incast (:func:`congest_scenario`, also the
``congest`` sweep probe's builder) under a FIFO arm and one ECN arm per
marking threshold as one :meth:`TimeflowEngine.run_ensemble` call;
:func:`run_congest_grid` is the ``k x backoff`` ablation.  Results
persist as resumable content-hash artifacts under
``benchmarks/out/congest/`` in a :class:`~repro.ledger.Ledger`, with the
same trust contract as the sweep and chaos artifacts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.fabric.timeflow import (TimeflowConfig, TimeflowEngine,
                                   incast_pattern)
from repro.ledger import Ledger
from repro.ledger import run_id as congest_run_id
from repro.obs.export import write_json

__all__ = [
    "CongestConfig", "congest_scenario", "run_congest",
    "run_congest_cached", "run_congest_grid", "congest_run_id",
    "CONGEST_LEDGER", "DEFAULT_CONGEST_DIR", "CONGEST_SCHEMA_VERSION",
]

#: Default artifact directory (mirrors the sweep/chaos layout).
DEFAULT_CONGEST_DIR = os.path.join("benchmarks", "out", "congest")

#: Artifact schema (bumped on incompatible document changes; 2: specs
#: above 4,096 endpoints no longer run a silent 8x4x4 reduction).
CONGEST_SCHEMA_VERSION = 2

#: Congest studies: ``congest-<run_id>.json``, id at ``run_id``.
CONGEST_LEDGER = Ledger(prefix="congest-", schema=CONGEST_SCHEMA_VERSION,
                        id_key="run_id")


@dataclass(frozen=True)
class CongestConfig:
    """One ``python -m repro congest`` study: a k-sweep over one incast."""

    ks: tuple[int, ...] = (10, 30, 60)
    include_fifo: bool = True
    fanin: int = 8
    duty: float = 1.0
    burst_period_s: float = 5e-5
    elephants: int = 2
    horizon_s: float = 3e-4
    dt_s: float = 5e-8
    #: Completions in the first third of the horizon are start-up
    #: transient (queues overshoot before the control loop engages);
    #: excluding them is what makes the victim tail scale with ``k``.
    warmup_frac: float = 1 / 3
    seed: int = 0

    def __post_init__(self) -> None:
        if any(not 1 <= k < math.inf for k in self.ks):
            raise ConfigurationError(
                "ECN thresholds must be finite and >= 1 MTU")
        # Dedupe, keeping first-occurrence order: a duplicated k used to
        # silently double the study's work.
        object.__setattr__(self, "ks", tuple(dict.fromkeys(self.ks)))
        # ``fifo_vs_ecn_p99`` keys each ECN arm by ``str(int(k))``.
        keys = [str(int(k)) for k in self.ks]
        if len(set(keys)) < len(keys):
            raise ConfigurationError(
                f"ECN thresholds {self.ks} share an integer part, which "
                f"keys their FIFO-vs-ECN ratios")
        if not self.ks and not self.include_fifo:
            raise ConfigurationError("a congest study needs at least one arm")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigurationError("warmup_frac must be in [0, 1)")
        if not self.fanin >= 1:
            raise ConfigurationError("fanin must be >= 1")
        # A negative count used to run as zero elephants under its own
        # run id.
        if not self.elephants >= 0:
            raise ConfigurationError("elephants must be >= 0")
        if not 0.0 < self.duty <= 1.0:
            raise ConfigurationError("duty must be in (0, 1]")
        for name in ("burst_period_s", "dt_s", "horizon_s"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")

    def to_dict(self) -> dict[str, Any]:
        return {"ks": list(self.ks), "include_fifo": self.include_fifo,
                "fanin": self.fanin, "duty": self.duty,
                "burst_period_s": self.burst_period_s,
                "elephants": self.elephants, "horizon_s": self.horizon_s,
                "dt_s": self.dt_s, "warmup_frac": self.warmup_frac,
                "seed": self.seed}

    def arm_config(self, ecn_k: float | None = None,
                   backoff: float = 0.5) -> TimeflowConfig:
        """The engine config of one arm: FIFO when ``ecn_k`` is ``None``."""
        return TimeflowConfig(dt_s=self.dt_s, horizon_s=self.horizon_s,
                              ecn=ecn_k is not None, ecn_k=ecn_k or 0.0,
                              backoff=backoff,
                              warmup_s=self.warmup_frac * self.horizon_s)


def congest_scenario(spec, config: CongestConfig):
    """``(network, flows)`` of one congest study on ``spec``'s fabric.

    Reads the incast knobs of ``config`` only (``fanin``, ``duty``,
    ``burst_period_s``, ``elephants``, ``seed``).  Deterministic in
    them and ``spec``: the network and the incast's elephant start
    times both draw from ``config.seed``, so two calls plan identical
    paths and every arm of a study sees the same traffic.
    """
    net = spec.build_network(rng=config.seed)
    flows = incast_pattern(
        net, fanin=config.fanin, duty=config.duty,
        burst_period_s=config.burst_period_s, elephants=config.elephants,
        rng=config.seed)
    return net, flows


def _run_arms(spec, config: CongestConfig, cfgs: list[TimeflowConfig],
              span: str, **attrs: int) -> tuple:
    """The study's scenario under every arm config ``cfgs``, one
    ensemble over one path plan (UGAL planning is RNG-fed, so arms must
    share the engine to share the paths)."""
    engine = TimeflowEngine(*congest_scenario(spec, config), cfgs[0])
    with obs.span(span, **attrs):
        return engine.run_ensemble(cfgs)


def run_congest(spec, config: CongestConfig | None = None) -> dict[str, Any]:
    """Run the k-sweep incast study for ``spec``; returns the artifact doc.

    Arms: one FIFO (no backpressure) run plus one ECN run per threshold
    in ``config.ks``, all over the identical traffic pattern, so the
    victim's tail across arms is the GPCNeT Table-5 story told by
    simulation: unbounded under FIFO, pinned near ``k`` MTUs under ECN.
    Each arm of the one ensemble is bit-identical to a one-column
    :meth:`TimeflowEngine.run` of its config on the same engine.
    """
    config = config if config is not None else CongestConfig()
    ks: list[float | None] = [None] if config.include_fifo else []
    ks.extend(float(k) for k in config.ks)
    cfgs = [config.arm_config(k) for k in ks]
    results = _run_arms(spec, config, cfgs, "fabric.timeflow.study",
                        arms=len(cfgs))
    arms: list[dict[str, Any]] = [
        {"mode": "fifo" if k is None else "ecn", "ecn_k": k,
         **result.to_doc()}
        for k, result in zip(ks, results)]
    doc: dict[str, Any] = {
        "schema": CONGEST_SCHEMA_VERSION,
        "status": "ok",
        "run_id": congest_run_id(spec, config),
        "spec": spec.to_dict(),
        "network": spec.name,
        "config": config.to_dict(),
        "arms": arms,
    }
    fifo = next((a for a in arms if a["mode"] == "fifo"), None)
    if fifo is not None and len(arms) > 1:
        fifo_p99 = fifo["classes"]["victim"]["latency_s"]["p99"]
        doc["fifo_vs_ecn_p99"] = {
            str(int(a["ecn_k"])): fifo_p99
            / a["classes"]["victim"]["latency_s"]["p99"]
            for a in arms if a["mode"] == "ecn"}
    return doc


def run_congest_cached(spec, config: CongestConfig | None = None, *,
                       out_dir: str = DEFAULT_CONGEST_DIR,
                       fresh: bool = False
                       ) -> tuple[dict[str, Any], str, bool]:
    """Run (or resume) a congest study; returns (doc, path, resumed)."""
    config = config if config is not None else CongestConfig()
    return CONGEST_LEDGER.cached(
        out_dir, congest_run_id(spec, config),
        lambda: run_congest(spec, config), fresh=fresh, write=write_json,
        counter="fabric.timeflow")


def run_congest_grid(spec, config: CongestConfig | None = None, *,
                     backoffs: Sequence[float] = (0.25, 0.5, 0.75),
                     ) -> dict[str, Any]:
    """The ``k x backoff`` congestion-control ablation grid, one ensemble.

    Every ``(ecn_k, backoff)`` cell — plus the FIFO reference when
    ``config.include_fifo`` — shares the incast flows and incidence, so
    a ``len(ks) x len(backoffs)`` grid costs one integration, with the
    oracle contract of :func:`run_congest`.  Grids are not cached: they
    are interactive ablations, and the ensemble keeps them cheap.
    """
    config = config if config is not None else CongestConfig()
    backoffs = tuple(float(b) for b in backoffs)
    if not backoffs:
        raise ConfigurationError("an ablation grid needs >= 1 backoff")
    if any(not 0.0 < b < 1.0 for b in backoffs):
        raise ConfigurationError("backoffs must be in (0, 1)")
    if not config.ks:
        raise ConfigurationError("an ablation grid needs >= 1 ECN threshold")
    cells: list[tuple[float | None, float | None]] = []
    if config.include_fifo:
        cells.append((None, None))
    cells.extend((float(k), b) for k in config.ks for b in backoffs)
    cfgs = [config.arm_config(k) if b is None else config.arm_config(k, b)
            for k, b in cells]
    results = _run_arms(spec, config, cfgs, "fabric.timeflow.grid",
                        cells=len(cells))
    doc: dict[str, Any] = {
        "schema": CONGEST_SCHEMA_VERSION,
        "status": "ok",
        "network": spec.name,
        "config": config.to_dict(),
        "backoffs": list(backoffs),
        "cells": [],
    }
    for (k, b), result in zip(cells, results):
        victim = result.cls("victim")
        doc["cells"].append({
            "mode": "fifo" if k is None else "ecn",
            "ecn_k": k, "backoff": b,
            "victim_p50_s": victim.latency["p50"],
            "victim_p99_s": victim.latency["p99"],
            "victim_completed": victim.completed,
            "congestor_goodput_bytes_per_s": result.cls("congestor").goodput,
            "max_queue_mtus": result.max_queue_bytes
            / result.config.mtu_bytes,
            "marks": result.marks,
        })
    return doc
