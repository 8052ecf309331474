"""``chaos-heal-full``: policy-armed chaos replays on the whole machine.

Each chaos run replays one sampled fault timeline twice through
``run_chaos_cached`` on the 9,472-node Frontier spec — once with healing
stripped, once with a warm spare pool and adaptive checkpointing — and
writes its artifact into a directory of its own, so no run resumes.
The first run uses a fixed seed (its job and heal reports are pinned);
the workload seed derives the timeline seeds of the others.
"""

from __future__ import annotations

import gc
import os
import tempfile
import time

import numpy as np

from harness import Checks, Digest, RunSpeed

#: Timeline seed of the reference run whose reports are pinned.
REFERENCE_SEED = 0

SIZES = {
    # ~120 timeline events per 12 h at 60x FIT rates: ~240 replays a run.
    # A 0.5% pool runs dry now and then, so jobs are both healed in place
    # and requeued.
    "full": {"scaled": None, "failure_scale": 60.0, "horizon_h": 12.0,
             "spare_fraction": 0.005, "run_s": 1.3},
    "tiny": {"scaled": (8, 8, 4), "failure_scale": 600.0, "horizon_h": 100.0,
             "spare_fraction": 0.125, "run_s": 0.4},
}


class ChaosHealFull:
    name = "chaos-heal-full"

    def __init__(self, size: str, seed: int, seconds: float,
                 workdir: str) -> None:
        self.size = SIZES[size]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def setup(self) -> None:
        from dataclasses import replace

        from repro.chaos import ChaosConfig, run_chaos_cached
        from repro.core.scenario import FRONTIER_SPEC, ResiliencePolicySpec
        spec = FRONTIER_SPEC
        if self.size["scaled"] is not None:
            spec = spec.scaled(*self.size["scaled"])
        self.spec = replace(
            spec,
            degradation=replace(spec.degradation,
                                failure_scale=self.size["failure_scale"]),
            resilience=ResiliencePolicySpec(
                spare_fraction=self.size["spare_fraction"],
                adaptive_checkpointing=True, replace_policy="pack"))
        self.config_type = ChaosConfig
        self.run_chaos_cached = run_chaos_cached

    def plan(self) -> list[int]:
        rng = np.random.default_rng([self.seed, 0xC4A05])
        n_runs = max(2, round(self.seconds / self.size["run_s"]))
        return [REFERENCE_SEED] + [int(s) for s in
                                   rng.integers(1, 2 ** 31 - 1, n_runs - 1)]

    def measure(self, checks: Checks, timer: RunSpeed) -> dict:
        seeds = self.plan()
        pooled, canary = Digest(), Digest()
        wall = replays = interrupts = 0.0
        heal_totals = {"replacements": 0, "requeues": 0}
        for i, seed in enumerate(seeds):
            config = self.config_type(horizon_h=self.size["horizon_h"],
                                      seed=seed, measure_fabric=False,
                                      job_fractions=(0.25, 0.25, 0.5))
            out_dir = tempfile.mkdtemp(prefix="chaos-", dir=self.workdir)
            checks.require(not os.listdir(out_dir), "artifact dir not fresh")
            gc.collect()
            start = time.perf_counter()
            doc, path, resumed = self.run_chaos_cached(self.spec, config,
                                                       out_dir=out_dir)
            spent = time.perf_counter() - start
            wall += spent
            timer.burst()
            heal = doc.get("heal") or {}
            replays += 2 * doc["n_events"]       # baseline + healed arm
            interrupts += sum(job["interrupts"] for job in doc["jobs"])
            for key in heal_totals:
                heal_totals[key] += heal.get(key, 0)
            pinned = {"jobs": doc["jobs"], "heal": heal,
                      "n_events": doc["n_events"]}
            pooled.doc(pinned)
            if i == 0:
                canary.doc(pinned)
            checks.require(not resumed, f"chaos run {seed} resumed an artifact")
            checks.require(doc["status"] == "ok" and os.path.exists(path),
                           f"chaos run {seed}: no artifact")
            checks.require(bool(heal) and heal["adaptive"],
                           f"chaos run {seed}: no heal report")
            checks.require(doc["n_events"] > 0, f"chaos run {seed}: no events")
            checks.require(0.0 < doc["machine_availability"] <= 1.0,
                           f"chaos run {seed}: availability out of range")
            for job in doc["jobs"]:
                checks.require(
                    0.0 <= job["committed_h"] <= job["running_h"] + 1e-9
                    and job["running_h"] + job["queued_h"]
                    <= self.size["horizon_h"] + 1e-6,
                    f"chaos run {seed}: job {job['name']} accounting")
            checks.close_op()
        nominal = wall * timer.factor()
        replaced = heal_totals["replacements"]
        requeued = heal_totals["requeues"]
        return {
            "metrics": {"throughput_per_s": replays / nominal,
                        "secondary_per_s": interrupts / nominal},
            "detail": {"events_per_s": replays / nominal,
                       "interrupts_per_s": interrupts / nominal,
                       "events_per_s_wall": replays / wall,
                       "chaos_s": wall, "runs": len(seeds),
                       "events_replayed": replays,
                       "interrupts": interrupts,
                       "replacements": replaced, "requeues": requeued,
                       "replace_ratio": replaced / (replaced + requeued)
                       if replaced + requeued else 0.0},
            "attempted": len(seeds),
            "canary": canary.hexdigest(),
            "digest": pooled.hexdigest(),
        }

    def close(self) -> None:
        pass
