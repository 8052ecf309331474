"""``fabric-full``: mpiGraph phases and an ECN k-sweep on the whole fabric.

Set-up builds the canonical 74-group, 37,888-endpoint Slingshot
dragonfly once and, over it, the GPCNeT-style incast engine (a large
fan-in at one victim plus 2,048 cross-fabric elephants).  The incast
scenario is fixed, so its path plan is too.  The workload seed chooses
only what is measured on it:

* **phase A** — mpiGraph shift phases through ``shift_pattern(k)``:
  the group-boundary phase ``k = endpoints per group`` first (it is the
  reference phase whose bandwidths are pinned), then one seeded
  intra-group offset, then seeded inter-group offsets, one from each
  equal stratum of the inter-group range;
* **phase B** — rounds of ``run_ensemble`` over a FIFO arm plus three
  seeded ECN thresholds.  The FIFO arm does not depend on the seed, so
  its statistics are pinned too.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from harness import Checks, Digest, RunSpeed

#: Router RNG seed of the fabric build and of the incast elephants'
#: start times: the scenario is fixed, the workload seed picks phases.
SCENARIO_SEED = 2023

SIZES = {
    # fanin + 1 victim + elephants = 2,113 flows on the full machine
    "full": {"scaled": None, "fanin": 64, "elephants": 2048,
             "phase_s": 1.85, "round_s": 3.3, "max_k": 80},
    "tiny": {"scaled": (8, 4, 4), "fanin": 8, "elephants": 16,
             "phase_s": 0.2, "round_s": 0.4, "max_k": 40},
}

HORIZON_S = 3e-4
DT_S = 5e-8
#: Completions in the first third of the horizon are start-up transient.
WARMUP_S = HORIZON_S / 3


class FabricFull:
    name = "fabric-full"

    def __init__(self, size: str, seed: int, seconds: float) -> None:
        self.size = SIZES[size]
        self.seed = seed
        self.seconds = seconds

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        from repro.core.scenario import FRONTIER_SPEC
        from repro.fabric.timeflow import (TimeflowConfig, TimeflowEngine,
                                           incast_pattern)
        spec = FRONTIER_SPEC
        if self.size["scaled"] is not None:
            spec = spec.scaled(*self.size["scaled"])
        self.net = spec.build_network(rng=SCENARIO_SEED)
        flows = incast_pattern(self.net, fanin=self.size["fanin"],
                               elephants=self.size["elephants"],
                               rng=SCENARIO_SEED)
        self.fifo = TimeflowConfig(dt_s=DT_S, horizon_s=HORIZON_S, ecn=False,
                                   warmup_s=WARMUP_S)
        self.engine = TimeflowEngine(self.net, flows, self.fifo)
        self.config_type = TimeflowConfig

    # -- inputs --------------------------------------------------------------

    def plan(self) -> tuple[list[tuple[str, int]], list[tuple[int, ...]]]:
        """Seeded phase-A offsets and phase-B ECN thresholds."""
        rng = np.random.default_rng([self.seed, 0xFAB])
        cfg = self.net.config
        n, epg = cfg.total_endpoints, cfg.endpoints_per_group
        a_budget = 0.45 * self.seconds
        n_inter = max(1, round((a_budget - 1.4 * self.size["phase_s"])
                               / self.size["phase_s"]))
        phases = [("boundary", epg),
                  ("intra", int(rng.integers(1, max(2, epg // 16 + 1))))]
        lo, hi = epg + 1, n - epg - 1
        edges = np.linspace(lo, hi, n_inter + 1)
        for j in range(n_inter):
            phases.append(("inter", int(rng.integers(int(edges[j]),
                                                     int(edges[j + 1])))))
        n_rounds = max(1, round(0.55 * self.seconds / self.size["round_s"]))
        rounds = [tuple(sorted(int(k) for k in rng.choice(
                      np.arange(5, self.size["max_k"] + 1), 3, replace=False)))
                  for _ in range(n_rounds)]
        return phases, rounds

    # -- the timed phases ----------------------------------------------------

    def measure(self, checks: Checks, timer: RunSpeed) -> dict:
        from repro.fabric.network import STREAM_EFFICIENCY
        phases, rounds = self.plan()
        link_demand = STREAM_EFFICIENCY * self.net.config.link_rate
        pooled, canary = Digest(), Digest()
        a_wall = a_flows = 0.0
        for label, k in phases:
            gc.collect()
            start = time.perf_counter()
            flows = self.net.shift_pattern(k)
            spent = time.perf_counter() - start
            a_wall += spent
            a_flows += len(flows)
            timer.burst()
            bw = np.fromiter((f.bandwidth for f in flows), dtype=float,
                             count=len(flows))
            pooled.array(bw)
            if label == "boundary":
                canary.array(bw)
            checks.require(bw.size == self.net.config.total_endpoints,
                           f"phase k={k}: {bw.size} flows")
            checks.require(bool(np.all(np.isfinite(bw)) and np.all(bw > 0)
                                and np.all(bw <= link_demand * (1 + 1e-9))),
                           f"phase k={k}: a rate is outside (0, demand]")
            checks.close_op()

        a_factor = timer.factor()
        b_start = timer.mark()
        b_wall = b_work = 0.0
        arms_doc = []
        for ks in rounds:
            cfgs = [self.fifo] + [
                self.config_type(dt_s=DT_S, horizon_s=HORIZON_S, ecn=True,
                                 ecn_k=float(k), warmup_s=WARMUP_S)
                for k in ks]
            gc.collect()
            start = time.perf_counter()
            results = self.engine.run_ensemble(cfgs)
            spent = time.perf_counter() - start
            b_wall += spent
            timer.burst()
            b_work += len(self.engine.flows) * results[0].steps * len(cfgs)
            docs = [_arm_doc(cfg, result) for cfg, result in zip(cfgs, results)]
            arms_doc.append(docs)
            fifo, ecn = docs[0], docs[1:]
            checks.require(fifo == arms_doc[0][0],
                           "FIFO arm differs between ensemble rounds")
            checks.require(fifo["marks"] == 0, "FIFO arm marked packets")
            for doc in ecn:
                checks.require(doc["marks"] > 0,
                               f"ECN k={doc['ecn_k']} never marked")
            for doc in docs:
                p99 = doc["victim_p99_s"]
                checks.require(doc["completed"]["victim"] > 0
                               and np.isfinite(p99) and p99 > 0,
                               f"arm {doc['mode']}: no victim tail")
                checks.require(p99 <= fifo["victim_p99_s"],
                               f"ECN k={doc['ecn_k']} victim p99 above FIFO")
            checks.close_op()
        canary.doc(arms_doc[0][0])
        pooled.doc(arms_doc)
        # each phase is scaled by the machine speed seen around it
        b_factor = timer.factor(b_start)
        return {
            "metrics": {"throughput_per_s": a_flows / (a_wall * a_factor),
                        "secondary_per_s": b_work / (b_wall * b_factor)},
            "detail": {"flows_per_s": a_flows / (a_wall * a_factor),
                       "flow_steps_per_s": b_work / (b_wall * b_factor),
                       "flows_per_s_wall": a_flows / a_wall,
                       "flow_steps_per_s_wall": b_work / b_wall,
                       "phase_a_s": a_wall, "phase_b_s": b_wall,
                       "phases": [f"{label}:{k}" for label, k in phases],
                       "rounds": [list(ks) for ks in rounds],
                       "engine_flows": len(self.engine.flows)},
            "attempted": len(phases) + len(rounds),
            "canary": canary.hexdigest(),
            "digest": pooled.hexdigest(),
        }

    def close(self) -> None:
        pass


def _arm_doc(cfg, result) -> dict:
    """What the digest pins of one congest arm."""
    victim = result.cls("victim")
    return {
        "mode": "ecn" if cfg.ecn else "fifo",
        "ecn_k": cfg.ecn_k if cfg.ecn else None,
        "marks": int(result.marks),
        "completed": {name: rep.completed
                      for name, rep in sorted(result.classes.items())},
        "victim_p99_s": victim.latency["p99"],
    }
