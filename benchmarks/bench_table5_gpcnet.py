"""Table 5 — GPCNeT on 9,400 nodes: isolated vs congested, 8 and 32 PPN.

Reproduces both halves of Table 5 (the isolated and congested 8-PPN runs
are statistically identical — the congestion-control headline) and the
32-PPN degradation bands quoted in the text (avg 1.2-1.6x, p99 1.8-7.6x).
"""

import pytest

from repro.microbench.gpcnet import GpcnetConfig, run_gpcnet
from repro.reporting import ComparisonRow, Table

from _harness import check_rows, save_artifact

LAT = "RR Two-sided Lat (8 B)"
BW = "RR Two-sided BW+Sync (131072 B)"
AR = "Multiple Allreduce (8 B)"

#: Table 5 isolated rows: (average, 99%).
PAPER_ISOLATED = {LAT: (2.6, 4.8), BW: (3497.2, 2514.4), AR: (51.5, 54.1)}
PAPER_CONGESTED = {LAT: (2.6, 4.7), BW: (3472.2, 2487.0), AR: (51.6, 54.3)}


def _run_both():
    cfg = GpcnetConfig()
    return (run_gpcnet(cfg, congested=False, rng=1),
            run_gpcnet(cfg, congested=True, rng=1))


def test_table5_isolated_and_congested(benchmark):
    iso, con = benchmark(_run_both)
    rows = []
    for name, (avg, p99) in PAPER_ISOLATED.items():
        rows.append(ComparisonRow(f"isolated {name} avg", avg,
                                  iso.rows[name].average, iso.rows[name].units))
        rows.append(ComparisonRow(f"isolated {name} p99", p99,
                                  iso.rows[name].p99, iso.rows[name].units))
    for name, (avg, p99) in PAPER_CONGESTED.items():
        rows.append(ComparisonRow(f"congested {name} avg", avg,
                                  con.rows[name].average, con.rows[name].units))
    text = check_rows(rows, rel_tol=0.10,
                      title="Table 5: GPCNeT 8 PPN (paper vs simulation)")
    save_artifact("table5_gpcnet", text)
    # the headline: congested == isolated at 8 PPN (impact 1.0x)
    for metrics in con.impact_vs(iso).values():
        assert metrics["avg"] == pytest.approx(1.0, abs=0.06)


def test_dynamic_incast_arm(benchmark):
    """The time-stepped counterpart of Table 5's congestion story.

    The analytic arms above assert the *numbers*; this arm asserts the
    *mechanism* via :mod:`repro.fabric.timeflow`: the same incast run
    with and without ECN-style backpressure must show the GPCNeT shape —
    the victim's p99 latency explodes in FIFO mode and stays bounded
    (pinned near the marking threshold) under ECN.
    """
    from repro.core.scenario import frontier_spec
    from repro.fabric.congest import CongestConfig, run_congest

    def run_study():
        return run_congest(frontier_spec(), CongestConfig(ks=(30,)))

    doc = benchmark(run_study)
    fifo, ecn = doc["arms"]
    table = Table(["Arm", "Victim p50 us", "Victim p99 us", "Max queue MTUs"],
                  title="Dynamic incast arm (timeflow)", float_fmt="{:.2f}")
    for arm in (fifo, ecn):
        victim = arm["classes"]["victim"]["latency_s"]
        table.add_row([arm["mode"], victim["p50"] * 1e6, victim["p99"] * 1e6,
                       arm["max_queue_mtus"]])
    save_artifact("table5_gpcnet_dynamic", table.render())
    fifo_p99 = fifo["classes"]["victim"]["latency_s"]["p99"]
    ecn_p99 = ecn["classes"]["victim"]["latency_s"]["p99"]
    # GPCNeT shape: FIFO tail far above the ECN tail, ECN tail bounded
    # by a queue near the marking threshold (k=30 MTUs of ~4 KiB at
    # 25 GB/s is ~5 us of queue; give slack for the AIMD sawtooth).
    assert fifo_p99 >= 2.0 * ecn_p99
    assert ecn_p99 < 25e-6
    assert ecn["max_queue_mtus"] < fifo["max_queue_mtus"]


def test_32ppn_degradation_bands(benchmark):
    def run32():
        cfg = GpcnetConfig(ppn=32)
        iso = run_gpcnet(cfg, congested=False, rng=2)
        con = run_gpcnet(cfg, congested=True, rng=2)
        return con.impact_vs(iso)

    impact = benchmark(run32)
    table = Table(["Test", "avg impact", "p99 impact"],
                  title="GPCNeT 32 PPN congestion impact (paper: avg "
                        "1.2-1.6x, p99 1.8-7.6x)", float_fmt="{:.2f}")
    for name, m in impact.items():
        table.add_row([name, m["avg"], m["p99"]])
    save_artifact("table5_gpcnet_32ppn", table.render())
    avgs = [m["avg"] for m in impact.values()]
    p99s = [m["p99"] for m in impact.values()]
    assert 1.15 <= max(avgs) <= 1.7
    assert 1.8 <= max(p99s) <= 8.0
