"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and scorecards in the terminal:

=============  =======================================================
``specs``      Table 1 — compute peak specifications
``storage``    Table 2 + the §4.3 measured rates
``stream``     Tables 3 and 4 — CPU and GPU STREAM
``gpcnet``     Table 5 — isolated vs congested
``apps``       Tables 6 and 7 — every KPP row
``scorecard``  §5 — the four-challenge report card
``software``   §3.4.3 — the programming-environment matrix
``evaluate``   everything above as JSON (for scripting)
=============  =======================================================

Observability verbs (see :mod:`repro.obs`), ``trace|metrics [FLAGS]
[VERB [ARGS...]]``:

=============  =======================================================
``trace``      run any verb but ``serve`` (default: the probe suite)
               with the tracer on and print the span tree
               (``--collapsed`` for flamegraph.pl-ready folded stacks)
``metrics``    same but print/export the metrics registry (the perf
               gate is ``benchmarks/_regression.py``)
=============  =======================================================

Flags after a report verb are the wrapper's (``trace storage --json``);
after any other verb they are that verb's (``metrics chaos --json``).

Scenario verbs (see :mod:`repro.core.scenario`):

=============  =======================================================
``scenario``   print (or ``--out`` write) a machine spec as JSON —
               canonical Frontier, ``--scaled G S E`` variants, or a
               round trip of ``--spec FILE``
``mpigraph``   Figure 6 mpiGraph histograms for the machine a spec
               describes (flow-level simulation at reduced scale,
               analytic accounting at full scale)
``sweep``      expand a scenario grid (``--axis key=v1,v2`` over a base
               spec, or ``--specs-dir``) and evaluate it on a worker
               pool (``--workers/--timeout/--retries``); one resumable
               JSON artifact per task under ``--out``
               (``--fresh`` re-runs completed tasks, ``--gc`` prunes
               error/stale artifacts from the ledger)
``chaos``      discrete-event fault injection: replay a seeded failure
               timeline (node deaths, link failures, storage slowdowns,
               MTTR repairs) against scheduler + fabric with
               checkpoint/restart; prints the achieved-vs-ideal
               efficiency table and writes a resumable artifact under
               ``benchmarks/out/chaos`` (``--validate`` scores the
               engine against the analytic MTTI/efficiency models);
               ``--heal`` arms the self-healing policy — spare-pool
               node replacement plus measurement-driven adaptive
               checkpoint intervals — and reports the healed-vs-unhealed
               availability/goodput deltas (``--heal --validate`` runs
               the three-arm heal convergence gate instead)
``congest``    time-stepped congestion study: an incast (N senders ->
               one victim plus elephants) on the spec's whole fabric
               (``--scaled G S E`` shrinks it), run once without
               backpressure and once per ECN marking threshold (``--k``
               sweep), all arms integrated as one batched ensemble;
               prints the victim-tail table and writes a resumable
               artifact under
               ``benchmarks/out/congest``; ``--backoffs B1,B2`` runs
               the k x backoff ablation grid instead (one ensemble, not
               cached); ``--validate`` scores the fluid engine against
               the analytic ``CongestionControl`` impact factor
               (tol ±15%)
``compare``    cross-machine study over the family registry
               (``--families``, default Frontier/Summit/Aurora):
               Table 6/7 app FOMs evaluated against every family plus a
               compute/bandwidth/interconnect HPL+HPCG roofline
               projection checked against the measured list entries
=============  =======================================================

Service verbs (see :mod:`repro.serve`):

=============  =======================================================
``serve``      long-running scenario service (line-delimited JSON over
               TCP or ``--stdio``): coalesces compatible requests into
               batched evaluations, caches answers by sweep content
               hash in the shared artifact ledger, sheds overload from
               a bounded queue (``--queue-depth``), drains gracefully
               on SIGINT/SIGTERM
``query``      one-shot client: send ``--count`` requests for a
               ``--probe`` on a family/spec (``--distinct`` varies the
               seed so they batch) and print an ok/cached/shed/batch
               summary; ``--local`` evaluates inline without a service
               (the cold path the throughput gate compares against)
=============  =======================================================

Each verb is one :data:`VERBS` row (name, help, options, ``run(args)
-> exit code``) that :func:`build_parser` turns into its subparser; a
``run`` parses input, calls the study function and renders the result.
:func:`_spec` is the one spec loader, and :func:`main` prints any
:class:`~repro.errors.ReproError` as ``<verb>: <message>``, exit 2.

``tests/test_cli.py`` asserts every registered verb is documented in
this table and in the README — keep all three in sync.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError, ReproError
from repro.reporting import Table, render_kv

__all__ = ["main"]


def _cmd_specs() -> None:
    from repro.core.specs_table import compute_table1
    t1 = compute_table1()
    print(render_kv({
        "Nodes": f"{t1['nodes']:.0f}",
        "FP64 DGEMM": f"{t1['fp64_dgemm_EF']:.1f} EF",
        "DDR4 Memory Capacity": f"{t1['ddr4_capacity_PiB']:.1f} PiB",
        "DDR4 Memory Bandwidth": f"{t1['ddr4_bandwidth_PBps']:.2f} PB/s",
        "HBM2e Memory Capacity": f"{t1['hbm2e_capacity_PiB']:.1f} PiB",
        "HBM2e Memory Bandwidth": f"{t1['hbm2e_bandwidth_PBps']:.1f} PB/s",
        "Injection Bandwidth/node": "100 GB/s",
        "Global Bandwidth": f"{t1['global_bandwidth_TBps']:.1f}+"
                            f"{t1['global_bandwidth_TBps']:.1f} TB/s",
    }, title="Frontier Compute Peak Specifications"))


def _cmd_storage() -> None:
    from repro.storage.lustre import OrionFilesystem
    from repro.storage.pfl import Tier
    fs = OrionFilesystem()
    table = Table(["Tier", "Capacity PB", "Read TB/s", "Write TB/s",
                   "Measured R/W TB/s"],
                  title="I/O Subsystem", float_fmt="{:.1f}")
    for tier in Tier:
        c = fs.tier_stats(tier)
        m = fs.tier_stats(tier, measured=True)
        table.add_row([f"Orion {tier.value}", c.capacity / 1e15,
                       c.read / 1e12, c.write / 1e12,
                       f"{m.read / 1e12:.1f}/{m.write / 1e12:.1f}"])
    print(table.render())


def _cmd_stream() -> None:
    from repro.node.dram import CpuStreamModel
    from repro.node.hbm import GpuStreamModel
    cpu = Table(["Function", "Temporal (MB/s)", "Non-Temporal (MB/s)"],
                title="CPU STREAM (Table 3)", float_fmt="{:.1f}")
    for name, row in CpuStreamModel().table3().items():
        cpu.add_row([name, row["temporal_MBps"], row["non_temporal_MBps"]])
    print(cpu.render())
    gpu = Table(["Function", "Bandwidth (MB/s)"],
                title="\nGPU STREAM (Table 4)", float_fmt="{:.1f}")
    for name, value in GpuStreamModel().table4().items():
        gpu.add_row([name, value])
    print(gpu.render())


def _cmd_gpcnet() -> None:
    from repro.microbench.gpcnet import run_gpcnet
    iso = run_gpcnet(congested=False)
    con = run_gpcnet(congested=True)
    table = Table(["Name", "Average", "99%", "Units"],
                  title="GPCNeT, 9,400 nodes, 8 PPN (Table 5)",
                  float_fmt="{:.1f}")
    for title, report in (("Isolated", iso), ("Congested", con)):
        table.add_row([f"-- {title} --", "", "", ""])
        for name, row in report.rows.items():
            table.add_row([name, row.average, row.p99, row.units])
    print(table.render())


def _cmd_apps() -> None:
    from repro.apps import CAAR_APPS, ECP_APPS
    for title, apps in (("CAAR and INCITE Application Results (Table 6)",
                         CAAR_APPS()),
                        ("ECP Application Results (Table 7)", ECP_APPS())):
        table = Table(["Application", "Baseline", "Target", "Achieved"],
                      title=title, float_fmt="{:.1f}")
        for app in apps:
            r = app.kpp_result()
            table.add_row([r.application, r.baseline, f"{r.target:.0f}x",
                           f"{r.achieved:.1f}x"])
        print(table.render())
        print()


def _cmd_scorecard() -> None:
    from repro.core.report_card import ExascaleReportCard
    card = ExascaleReportCard()
    table = Table(["Challenge", "Grade", "Key metric"],
                  title="Frontier vs the 2008 exascale report (Section 5)")
    results = card.evaluate()
    highlights = {
        "energy_and_power": lambda m: f"{m['gflops_per_watt']:.1f} GF/W",
        "memory_and_storage": lambda m: (
            f"{m['memory_scaling_vs_2008']:.0f}x memory vs 2008 (ask: 1000x)"),
        "concurrency_and_locality": lambda m: (
            f"{m['gpu_threads'] / 1e6:.0f}M GPU threads"),
        "resiliency": lambda m: f"MTTI {m['system_mtti_hours']:.1f} h",
    }
    for name, result in results.items():
        table.add_row([result.challenge, result.grade.value,
                       highlights[name](result.metrics)])
    print(table.render())
    print("\nMeets the spirit of exascale (all application KPPs exceeded):",
          card.meets_spirit_of_exascale())


def _cmd_software() -> None:
    from repro.software.environment import (ProgrammingModel,
                                            frontier_environment)
    env = frontier_environment()
    table = Table(["Compiler", "Stack", "LLVM", "OpenMP offload", "OpenACC",
                   "HIP", "SYCL"],
                  title="Programming environment (Section 3.4.3)")
    for c in env.compilers:
        table.add_row([
            c.name, c.stack.value.split()[0], "yes" if c.llvm_based else "no",
            c.supports.get(ProgrammingModel.OPENMP_OFFLOAD, "-"),
            c.supports.get(ProgrammingModel.OPENACC, "-"),
            "yes" if ProgrammingModel.HIP in c.supports else "-",
            c.supports.get(ProgrammingModel.SYCL, "-"),
        ])
    print(table.render())
    print(f"\nLow-level GPU model: {env.low_level_gpu_model().value}; "
          f"leading portable model: {env.leading_portable_model().value}")
    print("Vendor OpenACC commitment:", env.vendor_openacc_commitment())


def _cmd_evaluate() -> None:
    from repro.core.evaluation import run_full_evaluation
    print(json.dumps(run_full_evaluation(mpigraph_samples=1), indent=2,
                     default=str))


# -- shared plumbing ----------------------------------------------------------


def _print_json(doc: Any) -> int:
    """A verb's ``--json`` document on stdout; exit 0."""
    print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    return 0


def _print_artifact(path: str, resumed: bool) -> int:
    """The closing line of a cached study; exit 0."""
    print(f"artifact: {path} ({'resumed' if resumed else 'written'})")
    return 0


def _print_validation(passed: bool, detail: str = "") -> int:
    """The closing line of a ``--validate`` gate; its exit code."""
    print(f"\nvalidation {'PASSED' if passed else 'FAILED'}{detail}")
    return 0 if passed else 1


def _spec(args: argparse.Namespace):
    """The MachineSpec a verb works from: ``--spec FILE`` (default:
    canonical Frontier), reduced by ``--scaled G S E`` where the verb has
    that option.  A file that cannot be read as a spec is a
    :class:`ConfigurationError`."""
    from repro.core.scenario import MachineSpec, frontier_spec
    if not args.spec:
        spec = frontier_spec()
    else:
        try:
            spec = MachineSpec.load(args.spec)
        except (ReproError, OSError) as exc:
            raise ConfigurationError(f"--spec {args.spec}: {exc}") from None
    scaled = getattr(args, "scaled", None)
    return spec.scaled(*scaled) if scaled else spec


# -- verbs --------------------------------------------------------------------


def _observe(args: argparse.Namespace) -> tuple[argparse.Namespace, int]:
    """Run ``args.verb`` (default: the probe suite) with collection on.

    Returns the wrapper's arguments and the verb's exit code.  A report
    verb takes no options, so flags after one are the wrapper's (the
    README's ``trace storage --json``); any other verb parses its own.
    """
    from repro import obs
    from repro.obs.probes import run_probes
    if args.verb in COMMANDS and args.verb_args:
        args = args.wrapper.parse_args([*args.verb_args, args.verb],
                                       namespace=args)
    obs.reset()
    obs.enable()
    if args.verb is None:
        run_probes()
        return args, 0
    inner = build_parser().parse_args([args.verb, *args.verb_args])
    return args, inner.run(inner)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.export import export_state, render_collapsed, render_trace
    args, code = _observe(args)
    if args.collapsed:
        print(render_collapsed(obs.tracer()))
    elif args.json:
        _print_json(export_state(obs.tracer(), obs.registry()))
    else:
        print(render_trace(obs.tracer(),
                           title=f"Trace: {args.verb or 'probe suite'}"))
    return code


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.export import export_state, render_metrics, write_json
    args, code = _observe(args)
    if args.out:
        doc = export_state(obs.tracer(), obs.registry(),
                           context={"command": args.verb or "probes"})
        print(f"metrics written: {write_json(args.out, doc)}")
    elif args.json:
        _print_json(export_state(obs.tracer(), obs.registry()))
    else:
        print(render_metrics(
            obs.registry(), title=f"Metrics: {args.verb or 'probe suite'}"))
    return code


def _cmd_scenario(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.out:
        spec.save(args.out)
        print(f"scenario written: {args.out}")
    else:
        print(spec.to_json())
    return 0


def _cmd_mpigraph(args: argparse.Namespace) -> int:
    from repro.microbench.mpigraph import spec_mpigraph

    spec = _spec(args)
    hist, mode = spec_mpigraph(spec, args.seed, analytic=args.analytic)
    counts, edges = hist.histogram(bins=args.bins)
    peak = max(float(c) for c in counts) or 1.0
    table = Table(["GB/s", "density", ""],
                  title=f"mpiGraph ({mode}): {spec.name}", float_fmt="{:.3f}")
    for i, count in enumerate(counts):
        bar = "#" * round(40 * float(count) / peak)
        table.add_row([f"{edges[i]:5.1f}-{edges[i + 1]:5.1f}",
                       float(count), bar])
    print(table.render())
    print(f"\nmin {hist.min_gbs:.2f} GB/s | median "
          f"{hist.quantile(0.5) / 1e9:.2f} GB/s | max {hist.max_gbs:.2f} "
          f"GB/s | spread {hist.spread:.1f}x")
    return 0


def _parse_axis_value(raw: str):
    """An axis value from the command line: int, else float, else string."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_axes(pairs: list[str]) -> dict[str, tuple]:
    """``["scale=0.1", "routing=minimal,ugal"]`` -> axis mapping."""
    axes: dict[str, tuple] = {}
    for pair in pairs:
        key, sep, values = pair.partition("=")
        if not sep or not key or not values:
            raise ConfigurationError(
                f"--axis wants key=v1,v2,..., got {pair!r}")
        axes[key] = tuple(_parse_axis_value(v) for v in values.split(","))
    return axes


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.obs.export import render_metrics
    from repro.sweep import (SWEEP_LEDGER, SweepConfig, SweepPlan,
                             results_table, run_sweep)
    if args.gc:
        report = SWEEP_LEDGER.prune(args.out)
        print(f"sweep --gc {args.out}: {report.counts_line()}")
        return 0
    probes = tuple(args.probe) if args.probe else ("mpigraph",)
    if args.specs_dir:
        plan = SweepPlan.from_spec_dir(args.specs_dir, probes=probes,
                                       seed=args.seed)
    else:
        plan = SweepPlan.grid(_spec(args), axes=_parse_axes(args.axis or []),
                              probes=probes, seed=args.seed)
    config = SweepConfig(out_dir=args.out, workers=args.workers,
                         timeout_s=args.timeout, retries=args.retries,
                         backoff_s=args.backoff,
                         backoff_cap_s=args.backoff_cap,
                         resume=not args.fresh)
    if args.list:
        for task in plan.tasks:
            axes = " ".join(f"{k}={v}" for k, v in task.axes)
            print(f"{task.task_id}  {task.probe:<10} {axes}")
        print(f"{len(plan)} tasks")
        return 0
    summary = run_sweep(plan, config, progress=print if args.verbose else None)
    print(f"\nsweep: {summary.counts_line()} | "
          f"wall: {summary.wall_time_s:.2f}s | artifacts: {config.out_dir}")
    cache_line = summary.topology_cache_line()
    if cache_line is not None:
        print(cache_line)
    docs = sorted(summary.artifacts.values(), key=lambda d: d["task"]["id"])
    if docs:
        print()
        print(results_table(docs).render())
    if summary.metrics.names():
        print()
        print(render_metrics(summary.metrics,
                             title="Merged worker metrics"))
    # Individual failures are recorded artifacts (graceful degradation);
    # only a sweep that produced nothing but failures is a hard error.
    all_failed = summary.planned > 0 and summary.failed == summary.planned
    return 1 if all_failed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.chaos import ChaosConfig, run_chaos_cached
    from repro.chaos.validate import cross_validate

    if args.validate and args.heal:
        from repro.chaos.heal import cross_validate_heal
        heal_report = cross_validate_heal(seed=args.seed)
        ratios = ", ".join(f"{r:.3f}" for r in heal_report.interval_ratios)
        print(render_kv({
            "Interrupts": f"{heal_report.interrupts}",
            "Adaptive/analytic interval ratios": ratios,
            "Intervals converged (±10%)":
                "yes" if heal_report.intervals_converged else "NO",
            "Adaptive efficiency": f"{heal_report.adaptive_efficiency:.4f}",
            "Fixed-analytic efficiency":
                f"{heal_report.fixed_efficiency:.4f}",
            "Adaptive beats fixed":
                "yes" if heal_report.adaptive_beats_fixed else "NO",
            "Job availability (requeue)":
                f"{heal_report.baseline_availability:.4f}",
            "Job availability (spares)":
                f"{heal_report.healed_availability:.4f}",
            "Replacements / requeues / replenished":
                f"{heal_report.replacements} / {heal_report.requeues} / "
                f"{heal_report.replenished}",
        }, title="Self-healing cross-validation (three arms)"))
        return _print_validation(heal_report.passed,
                                 " (interval tol ±10%, >= 200 interrupts)")

    if args.validate:
        report = cross_validate(seed=args.seed)
        table = Table(["Job", "Nodes", "Interrupts", "Rate meas/h",
                       "Rate pred/h", "Ratio", "Eff meas", "Eff pred",
                       "Ratio", "OK"],
                      title=f"Chaos cross-validation "
                            f"({report.n_events} events)",
                      float_fmt="{:.4g}")
        for j in report.jobs:
            table.add_row([j.name, j.n_nodes, j.interrupts,
                           j.measured_rate_per_h, j.analytic_rate_per_h,
                           j.rate_ratio, j.measured_efficiency,
                           j.analytic_efficiency, j.efficiency_ratio,
                           "yes" if j.rate_ok and j.efficiency_ok else "NO"])
        print(table.render())
        return _print_validation(
            report.passed,
            " (rate tol ±10%, efficiency tol ±5%, >= 1000 events)")

    spec = _spec(args)
    overrides = {key: value for key, value in (
        ("failure_scale", args.failure_scale), ("checkpoint_policy", args.policy),
        ("checkpoint_interval_s", args.interval)) if value is not None}
    if overrides:
        spec = replace(spec, degradation=replace(spec.degradation,
                                                 **overrides))
    if args.heal:
        from repro.core.scenario import ResiliencePolicySpec
        spec = replace(spec, resilience=ResiliencePolicySpec(
            spare_fraction=args.spare_fraction,
            adaptive_checkpointing=not args.no_adaptive,
            replace_policy=args.replace_policy))
    config = ChaosConfig(horizon_h=args.hours, seed=args.seed,
                         checkpoint_cost_s=args.checkpoint_cost,
                         restart_s=args.restart,
                         uniform_blast=args.uniform_blast,
                         mttr_scale=args.mttr_scale,
                         adaptive_prior_scale=args.prior_scale)
    doc, path, resumed = run_chaos_cached(spec, config, out_dir=args.out,
                                          fresh=args.fresh)
    if args.json:
        return _print_json(doc)
    counts = doc["event_counts"]
    print(f"chaos: {spec.name} | {config.horizon_h:g} h horizon | "
          f"{doc['n_events']} events "
          f"(node {counts['node']}, link {counts['link']}, "
          f"storage {counts['storage']})")
    table = Table(["Job", "Nodes", "Interval s", "Interrupts", "Running h",
                   "Eff meas", "Eff pred", "Goodput"],
                  title="Achieved vs ideal efficiency", float_fmt="{:.4g}")
    for j in doc["jobs"]:
        table.add_row([j["name"], j["n_nodes"], j["interval_s"],
                       j["interrupts"], j["running_h"],
                       j["measured_efficiency"], j["analytic_efficiency"],
                       j["goodput"]])
    print(table.render())
    print(f"\nmachine availability: {doc['machine_availability']:.6f} "
          f"({doc['node_down_hours']:.2f} node-hours down)")
    heal = doc.get("heal")
    if heal is not None:
        print(f"heal: {heal['spare_target']} spares | "
              f"{heal['replacements']} replacements, "
              f"{heal['requeues']} requeues, "
              f"{heal['replenished']} replenished | "
              f"job availability {heal['baseline_job_availability']:.4f} -> "
              f"{heal['healed_job_availability']:.4f} "
              f"({heal['availability_delta']:+.4f}) | "
              f"goodput {heal['goodput_delta']:+.4f} | "
              f"adaptive: {'on' if heal['adaptive'] else 'off'}")
    return _print_artifact(path, resumed)


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import compare_machines

    doc = compare_machines(tuple(n for n in args.families.split(",") if n))
    if args.json:
        return _print_json(doc)

    fams = [f["family"] for f in doc["families"]]
    summary = Table(["Family", "Nodes", "NICs", "Fabric", "Rpeak PF",
                     "HPL PF", "HPCG PF", "HPL eff", "Power MW", "GF/W"],
                    title="Machine families", float_fmt="{:.1f}")
    for f in doc["families"]:
        summary.add_row([f["family"], f["nodes"], f["nics_per_node"],
                         f["fabric"], f["rpeak_pflops"],
                         f["hpl_rmax_pflops"], f["hpcg_pflops"],
                         f"{f['hpl_efficiency']:.3f}", f["power_mw"],
                         f["gflops_per_watt"]])
    print(summary.render())
    print()

    # The per-family achieved cells use the same "{:.1f}x" format as the
    # `apps` verb, so the Frontier column is bit-identical to its output.
    for title, rows in (
            ("CAAR and INCITE speedups by family (Table 6)", doc["table6"]),
            ("ECP speedups by family (Table 7)", doc["table7"])):
        table = Table(["Application", "Baseline", "Target", *fams],
                      title=title, float_fmt="{:.1f}")
        for row in rows:
            table.add_row([row["application"], row["baseline"],
                           f"{row['target']:.0f}x",
                           *(f"{row['achieved'][f]:.1f}x" for f in fams)])
        print(table.render())
        print()

    proj = Table(["Family", "Nodes", "Compute PF", "Bandwidth PF",
                  "Interconnect PF", "HPL PF", "Measured PF", "Binding",
                  "HPCG PF"],
                 title="HPL/HPCG roofline projection", float_fmt="{:.1f}")
    for p in doc["projection"]:
        proj.add_row([p["family"], p["nodes"], p["compute_bound_pflops"],
                      p["bandwidth_bound_pflops"],
                      p["interconnect_bound_pflops"],
                      p["hpl_projected_pflops"], p["hpl_measured_pflops"],
                      p["binding"], p["hpcg_projected_pflops"]])
    print(proj.render())
    if "frontier_hpl_within_10pct" in doc:
        fp = doc["projection"][fams.index("frontier")]
        print(f"\nFrontier HPL cross-check: projection "
              f"{fp['hpl_projected_pflops']:.0f} PF vs GCD roofline "
              f"{doc['frontier_roofline_hpl_pflops']:.0f} PF vs measured "
              f"{fp['hpl_measured_pflops']:.0f} PF -> within ±10%: "
              f"{doc['frontier_hpl_within_10pct']}")
    return 0


def _csv(kind: type):
    """An argparse ``type=``: a comma-separated list of ``kind``."""
    def parse(raw: str) -> tuple:
        return tuple(kind(v) for v in raw.split(",") if v)
    parse.__name__ = f"comma-separated {kind.__name__}"   # for the error
    return parse


def _cmd_congest(args: argparse.Namespace) -> int:
    from repro.fabric.congest import (CongestConfig, run_congest_cached,
                                      run_congest_grid)
    from repro.fabric.timeflow import validate_victim_impact

    if args.validate:
        val = validate_victim_impact()
        print(render_kv({
            "Measured latency multiplier": f"{val.measured:.4f}",
            "Analytic latency multiplier": f"{val.analytic:.4f}",
            "Ratio": f"{val.ratio:.4f}",
            "Victim samples": f"{val.samples}",
            "Tolerance": f"±{val.tolerance:.0%}",
        }, title="Timeflow cross-validation (victim impact factor)"))
        return _print_validation(val.ok)

    spec = _spec(args)
    config = CongestConfig(
        ks=args.k, include_fifo=not args.no_fifo, fanin=args.fanin,
        duty=args.duty, elephants=args.elephants,
        horizon_s=args.horizon_us * 1e-6, seed=args.seed)
    if args.backoffs:
        doc = run_congest_grid(spec, config, backoffs=args.backoffs)
        if args.json:
            return _print_json(doc)
        print(f"congest grid: {doc['network']} | "
              f"{len(config.ks)} k x {len(args.backoffs)} backoff cells | "
              f"{config.horizon_s * 1e6:g} us horizon (one ensemble)")
        table = Table(["Cell", "Victim p50 us", "Victim p99 us",
                       "Completed", "Congestor GB/s", "Max queue MTUs",
                       "Marks"],
                      title="k x backoff ablation grid", float_fmt="{:.4g}")
        for cell in doc["cells"]:
            name = ("fifo" if cell["mode"] == "fifo"
                    else f"k{cell['ecn_k']:g} b{cell['backoff']:g}")
            table.add_row([
                name, cell["victim_p50_s"] * 1e6,
                cell["victim_p99_s"] * 1e6, cell["victim_completed"],
                cell["congestor_goodput_bytes_per_s"] / 1e9,
                cell["max_queue_mtus"], cell["marks"]])
        print(table.render())
        return 0
    doc, path, resumed = run_congest_cached(spec, config, out_dir=args.out,
                                            fresh=args.fresh)
    if args.json:
        return _print_json(doc)
    print(f"congest: {doc['network']} | fanin {config.fanin} | "
          f"duty {config.duty:g} | {config.horizon_s * 1e6:g} us horizon")
    table = Table(["Arm", "Victim p50 us", "Victim p99 us", "Completed",
                   "Congestor GB/s", "Max queue MTUs", "Marks"],
                  title="Victim tail vs backpressure", float_fmt="{:.4g}")
    for arm in doc["arms"]:
        victim = arm["classes"]["victim"]
        name = "fifo" if arm["mode"] == "fifo" else f"ecn k{arm['ecn_k']:g}"
        table.add_row([
            name, victim["latency_s"]["p50"] * 1e6,
            victim["latency_s"]["p99"] * 1e6, victim["completed"],
            arm["classes"]["congestor"]["goodput_bytes_per_s"] / 1e9,
            arm["max_queue_mtus"], arm["marks"]])
    print(table.render())
    if "fifo_vs_ecn_p99" in doc:
        worst = max(doc["fifo_vs_ecn_p99"].values())
        print(f"\nFIFO victim p99 is up to {worst:.1f}x the ECN tail")
    return _print_artifact(path, resumed)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro import obs
    from repro.obs.export import write_json
    from repro.serve import ScenarioService, ServeConfig

    # Metrics on (the drain summary reads them), tracer off: a
    # long-running service must not accumulate spans without bound.
    obs.enable(tracing=False)
    config = ServeConfig(host=args.host, port=args.port, workers=args.workers,
                         queue_depth=args.queue_depth,
                         batch_window_s=args.batch_window_ms / 1000.0,
                         max_batch=args.max_batch, timeout_s=args.timeout,
                         retries=args.retries, out_dir=args.out)

    def _summary() -> str:
        snap = obs.registry().snapshot()

        def count(name: str) -> int:
            return int(snap.get(name, {}).get("value", 0.0))

        return (f"requests: {count('serve.requests')} | "
                f"cache hits: {count('serve.cache_hits')} | "
                f"shed: {count('serve.shed')} | "
                f"batches: {count('serve.batches')} | "
                f"coalesced: {count('serve.coalesced')}")

    async def _run() -> int:
        service = ScenarioService(config)
        await service.start()
        if args.stdio:
            answered = await service.serve_stdio()
            await service.drain()
            print(f"serve: answered {answered} request(s) over stdio | "
                  f"{_summary()}", file=sys.stderr)
            return 0
        server = await service.serve_tcp()
        host, port = server.sockets[0].getsockname()[:2]
        if args.ready_file:
            write_json(args.ready_file, {"host": host, "port": port})
        print(f"serve: listening on {host}:{port} "
              f"(workers: {config.workers}, queue: {config.queue_depth}, "
              f"window: {config.batch_window_s * 1000:g} ms) — "
              f"SIGINT/SIGTERM drains", file=sys.stderr)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        server.close()
        await server.wait_closed()
        await service.drain()
        print(f"serve: drained | {_summary()}", file=sys.stderr)
        return 0

    return asyncio.run(_run())


def _address(args: argparse.Namespace) -> tuple[str, int]:
    """Where the service listens: ``--addr-file`` (what ``serve
    --ready-file`` writes), else ``--host``/``--port``."""
    if not args.addr_file:
        return args.host, args.port
    with open(args.addr_file) as fh:
        text = fh.read()
    try:
        addr = json.loads(text)
        return str(addr["host"]), int(addr["port"])
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigurationError(f"--addr-file {args.addr_file}: want "
                                 f"{{host, port}} JSON: {exc!r}") from None


def _cmd_query(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ScenarioRequest, query, run_local

    if args.spec and args.family:
        raise ConfigurationError("use --spec or --family, not both")
    base: dict[str, Any] = {"probe": args.probe}
    if args.family:
        base["family"] = args.family
        if args.scaled:
            base["scaled"] = args.scaled
    else:
        base["spec"] = _spec(args).to_dict()
    if args.timeout is not None:
        base["timeout_s"] = args.timeout
    requests = [ScenarioRequest.from_wire(
        {**base, "id": f"q{i}",
         "seed": args.seed + (i if args.distinct else 0)})
        for i in range(args.count)]
    try:
        if args.local:
            responses = [run_local(req) for req in requests]
        else:
            responses = asyncio.run(query(*_address(args), requests,
                                          timeout_s=args.wait))
    except OSError as exc:
        print(f"query: {exc}", file=sys.stderr)
        return 2
    if args.json:
        for response in responses:
            print(json.dumps(response.to_wire(), sort_keys=True))
    ok = sum(1 for r in responses if r.ok)
    cached = sum(1 for r in responses if r.cached)
    shed = sum(1 for r in responses if r.status == "shed")
    max_batch = max((r.batch_size for r in responses), default=0)
    wall = sum(r.wall_time_s for r in responses)
    print(f"query: ok: {ok}/{len(responses)} | cached: {cached} | "
          f"shed: {shed} | max batch: {max_batch} | "
          f"probe wall: {wall:.3f}s")
    failed = ok < len(responses)
    if args.expect_batch_min is not None and max_batch < args.expect_batch_min:
        print(f"query: expected a batch >= {args.expect_batch_min}, "
              f"saw {max_batch}", file=sys.stderr)
        failed = True
    if args.expect_cached_min is not None and cached < args.expect_cached_min:
        print(f"query: expected >= {args.expect_cached_min} cached, "
              f"saw {cached}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


# -- the verb table -----------------------------------------------------------

#: One ``add_argument`` call: its flags and keyword arguments.
Option = tuple[tuple[str, ...], dict[str, Any]]


def _opt(*flags: str, **kwargs: Any) -> Option:
    return flags, kwargs


# Options several verbs share, each declared once.
_SPEC = _opt("--spec", metavar="FILE",
             help="machine spec file (default: Frontier)")
_SCALED = _opt("--scaled", nargs=3, type=int,
               metavar=("GROUPS", "SWITCHES", "ENDPOINTS"),
               help="reduced-scale variant (taper preserved)")
_JSON = _opt("--json", action="store_true",
             help="print the JSON document(s) instead of the table")
_FRESH = _opt("--fresh", action="store_true",
              help="re-run (and overwrite) completed artifacts")


def _out(default: str | None, what: str) -> Option:
    """``--out``: an artifact directory with a default, or a file PATH."""
    if default is None:
        return _opt("--out", metavar="PATH", help=what)
    return _opt("--out", default=default, metavar="DIR",
                help=f"{what} (default: {default})")


def _seed(what: str) -> Option:
    return _opt("--seed", type=int, default=0, help=what)


@dataclass(frozen=True)
class Verb:
    """One CLI verb: ``python -m repro <name> [options]`` -> ``run(args)``."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    options: tuple[Option, ...] = ()
    #: ``trace``/``metrics``: take ``[VERB [ARGS...]]`` and run it observed.
    wraps: bool = False
    #: Whether ``trace``/``metrics`` may run this verb.
    observable: bool = True


def _report(name: str, render: Callable[[], None]) -> Verb:
    def run(args: argparse.Namespace) -> int:
        render()
        return 0
    return Verb(name, f"regenerate the {name!r} section", run)


#: The report verbs (``tests/test_cli.py`` imports this view of the table).
COMMANDS: dict[str, Verb] = {verb.name: verb for verb in (
    _report("apps", _cmd_apps),
    _report("evaluate", _cmd_evaluate),
    _report("gpcnet", _cmd_gpcnet),
    _report("scorecard", _cmd_scorecard),
    _report("software", _cmd_software),
    _report("specs", _cmd_specs),
    _report("storage", _cmd_storage),
    _report("stream", _cmd_stream),
)}

VERBS: tuple[Verb, ...] = (
    *COMMANDS.values(),
    Verb("trace", "run with the tracer on and print the span tree", _cmd_trace, (
        _JSON,
        _opt("--collapsed", action="store_true", help="emit collapsed flamegraph "
             "stacks ('stack;frames self-time-us' lines)"),
    ), wraps=True, observable=False),
    Verb("metrics", "run with metrics on and export them", _cmd_metrics, (
        _JSON, _out(None, "write the JSON document to PATH (atomic)"),
    ), wraps=True, observable=False),
    Verb("scenario", "print or write a machine spec as JSON", _cmd_scenario, (
        _SPEC, _SCALED, _out(None, "write the spec to PATH instead of stdout"),
    )),
    Verb("mpigraph", "Figure 6 mpiGraph histogram from a machine spec", _cmd_mpigraph, (
        _SPEC,
        _opt("--analytic", action="store_true",
             help="force the full-scale analytic accounting"),
        _opt("--bins", type=int, default=20, help="histogram bins (default 20)"),
        _seed("RNG seed for jitter/adaptive routing"),
    )),
    Verb("sweep", "expand a scenario grid and evaluate it on a worker pool (resumable "
                  "artifacts)", _cmd_sweep, (
        _SPEC,
        _opt("--specs-dir", metavar="DIR",
             help="sweep every *.json spec in DIR instead of expanding axes"),
        _opt("--axis", action="append", metavar="KEY=V1,V2",
             help="one grid axis (repeatable); keys: machine_family, scale, "
                  "nics_per_node, routing, disabled_links, disabled_nodes, failure_scale, "
                  "checkpoint_policy, spare_fraction, adaptive_checkpointing, ecn_k, "
                  "burst_duty, incast_fanin"),
        _opt("--probe", action="append", metavar="NAME",
             help="sweep probe(s) to evaluate per grid point (default: mpigraph)"),
        _seed("sweep seed; per-task streams derive from it"),
        _opt("--workers", type=int, default=2, help="worker processes (0 = run inline)"),
        _opt("--timeout", type=float, default=None, metavar="S",
             help="per-task timeout in seconds"),
        _opt("--retries", type=int, default=1, help="retry budget per task (default 1)"),
        _opt("--backoff", type=float, default=0.05, metavar="S",
             help="base retry backoff; attempts add decorrelated jitter up to "
                  "--backoff-cap"),
        _opt("--backoff-cap", type=float, default=2.0, metavar="S",
             help="retry backoff ceiling (default 2)"),
        _opt("--resume", dest="fresh", action="store_false", default=False,
             help="skip tasks with completed artifacts (default)"),
        _FRESH,
        _out("benchmarks/out/sweep", "artifact directory"),
        _opt("--list", action="store_true", help="print the expanded task list and exit"),
        _opt("--gc", action="store_true", help="prune error/schema-stale artifacts from "
             "--out and exit (reports counts)"),
        _opt("--verbose", action="store_true", help="print per-task progress lines"),
    )),
    Verb("chaos", "discrete-event fault injection with checkpoint/restart (resumable "
                  "artifact)", _cmd_chaos, (
        _SPEC, _SCALED,
        _seed("timeline seed (default 0)"),
        _opt("--hours", type=float, default=24.0,
             help="simulated horizon in hours (default 24)"),
        _opt("--failure-scale", type=float, default=None, metavar="X",
             help="multiply every FIT rate by X"),
        _opt("--policy", choices=("daly", "young", "fixed"), default=None,
             help="checkpoint interval policy (default: the spec's, daly)"),
        _opt("--interval", type=float, default=None, metavar="S",
             help="fixed checkpoint interval (with --policy fixed)"),
        _opt("--checkpoint-cost", type=float, default=120.0, metavar="S",
             help="checkpoint write cost (s)"),
        _opt("--restart", type=float, default=600.0, metavar="S",
             help="restart-from-checkpoint cost (s)"),
        _opt("--mttr-scale", type=float, default=1.0,
             help="scale every repair time (default 1)"),
        _opt("--uniform-blast", action="store_true", help="radius-1 node blasts for "
             "every class (the MttiModel-exact validation mode)"),
        _opt("--heal", action="store_true",
             help="arm the self-healing policy: spare-pool node replacement plus "
                  "adaptive checkpoint intervals; the artifact gains a "
                  "healed-vs-unhealed comparison"),
        _opt("--spare-fraction", type=float, default=0.125, metavar="F",
             help="node fraction reserved as spares with --heal (default 0.125)"),
        _opt("--replace-policy", choices=("pack", "spread", "any"), default="pack",
             help="spare placement policy with --heal (default pack: "
                  "topology-closest to the surviving job block)"),
        _opt("--no-adaptive", action="store_true",
             help="with --heal, keep the analytic checkpoint interval instead of "
                  "the measurement-driven controller"),
        _opt("--prior-scale", type=float, default=1.0, metavar="X",
             help="FIT scale the adaptive controller's prior model assumes (default "
                  "1 = the unscaled model; mismatch vs --failure-scale is what "
                  "adaptation corrects)"),
        _opt("--validate", action="store_true",
             help="run the MTTI/efficiency cross-validation gate and exit (nonzero "
                  "on failure); with --heal, run the heal convergence gate"),
        _JSON, _out("benchmarks/out/chaos", "artifact directory"), _FRESH,
    )),
    Verb("congest", "time-stepped incast congestion study with an ECN k-sweep "
                    "(resumable artifact)", _cmd_congest, (
        _SPEC, _SCALED,
        _opt("--k", default="10,30,60", type=_csv(int), metavar="K1,K2",
             help="ECN marking thresholds in MTUs (default 10,30,60)"),
        _opt("--no-fifo", action="store_true", help="skip the FIFO (no backpressure) arm"),
        _opt("--fanin", type=int, default=8,
             help="incast senders aimed at the victim (default 8)"),
        _opt("--duty", type=float, default=1.0,
             help="congestor duty cycle in (0, 1] (default 1)"),
        _opt("--elephants", type=int, default=2,
             help="background elephant flows (default 2)"),
        _opt("--horizon-us", type=float, default=300.0, metavar="US",
             help="simulated horizon in microseconds (default 300)"),
        _seed("RNG seed (elephant start times; default 0)"),
        _opt("--backoffs", type=_csv(float), metavar="B1,B2",
             help="run the k x backoff ablation grid with these multiplicative-"
                  "decrease factors (e.g. 0.25,0.5,0.75) instead of the k-sweep "
                  "study; grids are not cached"),
        _opt("--validate", action="store_true", help="run the analytic "
             "cross-validation gate and exit (nonzero on failure)"),
        _JSON, _out("benchmarks/out/congest", "artifact directory"), _FRESH,
    )),
    Verb("compare", "cross-machine study: Table 6/7 FOMs and an HPL/HPCG roofline "
                    "projection per family", _cmd_compare, (
        _opt("--families", default="frontier,summit,aurora", metavar="F1,F2",
             help="registered machine families to compare "
                  "(default: frontier,summit,aurora)"),
        _JSON,
    )),
    Verb("serve", "long-running scenario service: batches compatible requests, caches "
                  "by spec hash, sheds overload", _cmd_serve, (
        _opt("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"),
        _opt("--port", type=int, default=0,
             help="TCP port (default 0 = kernel-assigned; see --ready-file)"),
        _opt("--stdio", action="store_true", help="serve request lines from stdin "
             "until EOF instead of TCP (responses on stdout)"),
        _opt("--ready-file", metavar="PATH", help="write {host, port} JSON once "
             "listening (how scripts find a --port 0 service)"),
        _opt("--workers", type=int, default=0, help="worker processes for cache "
             "misses (0 = evaluate inline off the event loop)"),
        _opt("--queue-depth", type=int, default=256, help="admission bound; beyond it "
             "requests shed with a 429-style error (default 256)"),
        _opt("--batch-window-ms", type=float, default=20.0,
             help="coalescing tick in milliseconds (default 20)"),
        _opt("--max-batch", type=int, default=64,
             help="unique tasks per evaluated batch (default 64)"),
        _opt("--timeout", type=float, default=None, metavar="S",
             help="per-task evaluation timeout in seconds"),
        _opt("--retries", type=int, default=0, help="retry budget per task (default 0)"),
        _out("benchmarks/out/sweep", "artifact ledger shared with sweep"),
    ), observable=False),
    Verb("query", "one-shot client for a running scenario service (or --local for "
                  "the cold no-service path)", _cmd_query, (
        _opt("--probe", default="storage",
             help="sweep probe to evaluate (default storage)"),
        _opt("--family", metavar="NAME",
             help="registered machine family (default: Frontier)"),
        _SPEC, _SCALED,
        _seed("base request seed (default 0)"),
        _opt("--count", type=int, default=1,
             help="how many requests to send (default 1)"),
        _opt("--distinct", action="store_true", help="vary the seed per request "
             "(distinct tasks that can batch) instead of repeating one"),
        _opt("--host", default="127.0.0.1", help="service address (default 127.0.0.1)"),
        _opt("--port", type=int, default=7901, help="service port (default 7901)"),
        _opt("--addr-file", metavar="PATH",
             help="read {host, port} from a serve --ready-file"),
        _opt("--timeout", type=float, default=None, metavar="S",
             help="per-request timeout_s sent to the service"),
        _opt("--wait", type=float, default=30.0, metavar="S",
             help="client-side stall timeout (default 30)"),
        _opt("--local", action="store_true",
             help="evaluate inline without a service (cold path)"),
        _JSON,
        _opt("--expect-batch-min", type=int, default=None, metavar="N",
             help="exit nonzero unless some response rode a batch of >= N"),
        _opt("--expect-cached-min", type=int, default=None, metavar="N",
             help="exit nonzero unless >= N responses came from cache"),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser, one subparser per :data:`VERBS` row."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the evaluation of 'Frontier: Exploring "
                    "Exascale' (SC '23) from the simulator models.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    observable = [verb.name for verb in VERBS if verb.observable]
    for verb in VERBS:
        p = sub.add_parser(verb.name, help=verb.help)
        for flags, kwargs in verb.options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(run=verb.run)
        if verb.wraps:
            p.add_argument("verb", nargs="?", choices=observable,
                           help="verb to run (default: the probe suite)")
            p.add_argument("verb_args", nargs=argparse.REMAINDER,
                           metavar="ARGS", help="the verb's own arguments")
            p.set_defaults(wrapper=p)   # _observe re-reads flags after a report verb
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader left (``sweep ... | grep -q``): aim the final
        # flush at devnull and exit as a shell reports SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
