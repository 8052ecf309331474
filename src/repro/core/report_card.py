"""Section 5 — Frontier vs the 2008 DARPA exascale report.

The report named four fundamental challenges, in descending order of
difficulty: energy/power, memory/storage, concurrency/locality, resiliency.
This module grades Frontier against each the way the paper does:

* **Energy and Power** — PASS: 52 GF/W (>50 target), ~19 MW/EF (<20),
  #1 on TOP500 *and* Green500 simultaneously.
* **Memory and Storage** — PARTIAL: nowhere near the report's arbitrary
  1000x resource scaling (costs did not fall 1000x; memory+storage already
  claim ~45% of system cost), but HBM + tiered flash/disk meet the real
  applications' needs.
* **Concurrency and Locality** — PASS: >500M GPU threads near 1 GHz, two
  ops/cycle; GPUs (which the report did not bet on) supplied the
  concurrency, 2.5D packaging the locality.
* **Resiliency** — STRUGGLE: MTTI near the report's 4-hour (10x-improved)
  projection; memory and power supplies dominate, as the report predicted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.apps import all_apps
from repro.core.specs_table import compute_table1
from repro.power.efficiency import EfficiencyScorecard
from repro.resilience.mtti import MttiModel

__all__ = ["ChallengeGrade", "ChallengeResult", "ExascaleReportCard"]

#: The report's resource-scaling ask: 1000x the 2008 petascale systems.
REPORT_RESOURCE_SCALING = 1000.0
#: Jaguar-era reference points (2008 petascale): memory and storage.
PETASCALE_MEMORY_BYTES = 0.362e15      # Jaguar: ~362 TB DDR2
PETASCALE_STORAGE_BYTES = 10.0e15      # Spider-era: ~10 PB
#: The report's projected concurrency: ~1 billion cores at ~1 GHz.
REPORT_THREAD_TARGET = 0.5e9           # the paper argues >500M suffices


class ChallengeGrade(enum.Enum):
    PASS = "pass"
    PARTIAL = "partial"
    STRUGGLE = "struggle"


@dataclass(frozen=True)
class ChallengeResult:
    challenge: str
    grade: ChallengeGrade
    metrics: dict[str, float | bool | str] = field(default_factory=dict)


@dataclass
class ExascaleReportCard:
    """Grade all four challenges from the live models."""

    node_count: int = 9472

    def energy_and_power(self) -> ChallengeResult:
        score = EfficiencyScorecard.from_model()
        grade = (ChallengeGrade.PASS
                 if score.meets_power_target and score.meets_efficiency_target
                 else ChallengeGrade.PARTIAL)
        lo, hi = score.improvement_over_strawman
        return ChallengeResult("Energy and Power", grade, {
            "gflops_per_watt": score.gflops_per_watt,
            "mw_per_exaflop": score.mw_per_exaflop,
            "meets_20mw_per_ef": score.meets_power_target,
            "meets_50gf_per_w": score.meets_efficiency_target,
            "strawman_improvement_low": lo,
            "strawman_improvement_high": hi,
        })

    def memory_and_storage(self) -> ChallengeResult:
        t1 = compute_table1(self.node_count)
        total_memory = (t1["ddr4_capacity_PiB"] + t1["hbm2e_capacity_PiB"]) * 2.0 ** 50
        memory_scaling = total_memory / PETASCALE_MEMORY_BYTES
        storage_scaling = (679e15 + 11.5e15) / PETASCALE_STORAGE_BYTES
        meets_1000x = (memory_scaling >= REPORT_RESOURCE_SCALING
                       and storage_scaling >= REPORT_RESOURCE_SCALING)
        # PARTIAL by construction: applications' needs are met (the I/O
        # walltime stays <5%/hour, §4.3.2) but the 1000x ask is not.
        grade = ChallengeGrade.PASS if meets_1000x else ChallengeGrade.PARTIAL
        return ChallengeResult("Memory and Storage", grade, {
            "memory_scaling_vs_2008": memory_scaling,
            "storage_scaling_vs_2008": storage_scaling,
            "meets_report_1000x": meets_1000x,
            "memory_cost_share": 0.30,   # paper's estimate
            "storage_cost_share": 0.15,
            "hbm_to_ddr_bw_ratio": t1["hbm_to_ddr_bw_ratio"],
        })

    def concurrency_and_locality(self) -> ChallengeResult:
        t1 = compute_table1(self.node_count)
        threads = t1["gpu_threads_millions"] * 1e6
        grade = (ChallengeGrade.PASS if threads >= REPORT_THREAD_TARGET
                 else ChallengeGrade.PARTIAL)
        return ChallengeResult("Concurrency and Locality", grade, {
            "gpu_threads": threads,
            "threads_target": REPORT_THREAD_TARGET,
            "clock_ghz": 1.7,
            "ops_per_cycle": 2.0,
            "via_gpus": True,   # the report did not bet on GPUs
        })

    def resiliency(self) -> ChallengeResult:
        model = MttiModel.frontier()
        card = model.report_card()
        grade = (ChallengeGrade.PASS if card["reaches_terascale_goal"]
                 else ChallengeGrade.STRUGGLE)
        return ChallengeResult("Resiliency", grade, {**card})

    def evaluate(self) -> dict[str, ChallengeResult]:
        return {
            "energy_and_power": self.energy_and_power(),
            "memory_and_storage": self.memory_and_storage(),
            "concurrency_and_locality": self.concurrency_and_locality(),
            "resiliency": self.resiliency(),
        }

    def meets_spirit_of_exascale(self) -> bool:
        """The paper's thesis: real-application speedups (Tables 6-7), not
        the arbitrary 1000x resource scaling, define success — and every
        application beat its KPP."""
        return all(app.kpp_result().met for app in all_apps())
