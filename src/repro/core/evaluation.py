"""Run-everything evaluation driver.

Regenerates every table and figure of the paper's evaluation section from
the models and returns them as one nested structure.  The benchmark
harnesses call the individual pieces; ``run_full_evaluation`` is used by
examples and by the EXPERIMENTS.md generator.
"""

from __future__ import annotations

from typing import Any

from repro.apps import CAAR_APPS, ECP_APPS
from repro.apps.scaling import WeakScalingModel
from repro.core.baselines import SUMMIT
from repro.core.machine import Machine
from repro.core.report_card import ExascaleReportCard
from repro.economics import SystemCostModel
from repro.fabric.collectives import alltoall_per_node_bandwidth
from repro.microbench.gpcnet import GpcnetConfig, run_gpcnet
from repro.microbench.mpigraph import (frontier_mpigraph_histogram,
                                       summit_mpigraph_histogram)
from repro.node.dram import CpuStreamModel
from repro.node.gemm import GemmModel
from repro.node.hbm import GpuStreamModel
from repro.node.transfers import (TransferEngine, figure4_series,
                                  figure5_series)
from repro.power.energy import suite_energy_table
from repro.storage.fio import FioJob, aggregate_over_nodes, run_fio
from repro.storage.iosim import ingest_time
from repro.units import TiB

__all__ = ["run_full_evaluation"]


def table6() -> list[dict[str, Any]]:
    return [{"application": a.name, "baseline": a.baseline_machine.name,
             "target": a.kpp_target, "achieved": a.speedup(),
             "met": a.kpp_result().met}
            for a in CAAR_APPS()]


def table7() -> list[dict[str, Any]]:
    return [{"application": a.name, "baseline": a.baseline_machine.name,
             "target": a.kpp_target, "achieved": a.speedup(),
             "met": a.kpp_result().met}
            for a in ECP_APPS()]


def run_full_evaluation(*, machine: Machine | None = None,
                        mpigraph_samples: int = 4,
                        gpcnet_ppn: tuple[int, ...] = (8,)) -> dict[str, Any]:
    """Everything the paper's Section 4 and 5 report, from the models.

    ``machine`` is the composition root: every fabric/storage-dependent
    result is drawn from its configuration (default: canonical Frontier),
    so scenario variants (``machine.scaled()``/``degraded()`` or a spec
    loaded from JSON) re-evaluate consistently.
    """
    m = machine if machine is not None else Machine()
    out: dict[str, Any] = {}
    out["table1"] = m.table1()
    out["table2"] = m.filesystem.table2()
    out["table3"] = CpuStreamModel().table3()
    out["table4"] = GpuStreamModel().table4()

    gpcnet: dict[str, Any] = {}
    for ppn in gpcnet_ppn:
        cfg = GpcnetConfig(ppn=ppn, fabric=m.fabric,
                           nics_per_node=m.node.nic_count)
        iso = run_gpcnet(cfg, congested=False)
        con = run_gpcnet(cfg, congested=True)
        gpcnet[f"{ppn}ppn"] = {
            "isolated": {k: (r.average, r.p99, r.units)
                         for k, r in iso.rows.items()},
            "congested": {k: (r.average, r.p99, r.units)
                          for k, r in con.rows.items()},
            "impact": con.impact_vs(iso),
        }
    out["table5"] = gpcnet

    out["table6"] = table6()
    out["table7"] = table7()

    out["figure3"] = GemmModel().figure3()
    out["figure4"] = figure4_series()
    out["figure5"] = {
        "cu": figure5_series(TransferEngine.CU_KERNEL),
        "sdma": figure5_series(TransferEngine.SDMA),
    }

    fh = frontier_mpigraph_histogram(m.fabric,
                                     samples_per_offset=mpigraph_samples)
    sh = summit_mpigraph_histogram()
    out["figure6"] = {
        "frontier": {"min_gbs": fh.min_gbs, "max_gbs": fh.max_gbs,
                     "median_gbs": fh.quantile(0.5) / 1e9,
                     "mass_above_15": fh.mass_above(15.0)},
        "summit": {"min_gbs": sh.min_gbs, "max_gbs": sh.max_gbs,
                   "spread": sh.spread},
    }

    a2a = alltoall_per_node_bandwidth(m.fabric,
                                      nics_per_node=m.node.nic_count)
    out["alltoall"] = {"per_node_gbs": a2a.per_node / 1e9,
                       "per_nic_gbs": a2a.per_nic / 1e9,
                       "binding": a2a.binding_constraint}

    seq_read = run_fio(FioJob.sequential_read())
    seq_write = run_fio(FioJob.sequential_write())
    rand = run_fio(FioJob.random_read_4k())
    out["storage_4_3"] = {
        "node_read_gbs": seq_read.bandwidth / 1e9,
        "node_write_gbs": seq_write.bandwidth / 1e9,
        "node_iops_m": rand.iops / 1e6,
        "system_read_tbs": aggregate_over_nodes(
            seq_read, m.node_count).bandwidth / 1e12,
        "system_write_tbs": aggregate_over_nodes(
            seq_write, m.node_count).bandwidth / 1e12,
        "system_iops_b": aggregate_over_nodes(rand, m.node_count).iops / 1e9,
        "ingest_700tib_s": ingest_time(700 * TiB),
    }

    out["weak_scaling"] = {
        "PIConGPU@9216": WeakScalingModel.picongpu().efficiency(9216),
        "Shift@8192": WeakScalingModel.shift().efficiency(8192),
        "AthenaPK-Frontier@9200": WeakScalingModel.athenapk().efficiency(9200),
        "AthenaPK-Summit@4600": WeakScalingModel.athenapk(
            machine=SUMMIT).efficiency(4600),
    }

    out["energy_to_solution"] = {
        c.application: c.energy_gain for c in suite_energy_table()}

    out["cost"] = SystemCostModel().twenty_mw_rationale()

    card = ExascaleReportCard()
    out["section5"] = {
        name: {"grade": result.grade.value, **{
            k: (v if not isinstance(v, (list, tuple)) else list(v))
            for k, v in result.metrics.items()}}
        for name, result in card.evaluate().items()
    }
    out["meets_spirit_of_exascale"] = card.meets_spirit_of_exascale()
    return out
