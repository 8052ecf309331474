"""One workload process: set up, measure, check, print one JSON line.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP pinned to
one thread.  ``setup_s`` runs from the top of this file (before
``import repro``) to the first timed operation.  With ``--trace`` the
layer wrappers of ``layers.py`` are installed before set-up and
``repro.obs`` counters are switched on; the untraced process runs with
both off.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from harness import Checks, RunSpeed, SpeedProbe, peak_rss_mb  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-failing", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    import repro
    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        print(f"repro was imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from repro import obs

        from layers import LayerTracer
        obs.enable(tracing=False, metrics=True)
        tracer = LayerTracer()
        tracer.install()

    if args.workload == "fabric-full":
        from wl_fabric import FabricFull
        workload = FabricFull(args.size, args.seed, args.seconds)
    elif args.workload == "chaos-heal-full":
        from wl_chaos import ChaosHealFull
        workload = ChaosHealFull(args.size, args.seed, args.seconds,
                                 args.workdir)
    elif args.workload == "serve-mix":
        from wl_serve import ServeMix
        workload = ServeMix(args.size, args.seed, args.seconds, args.workdir,
                            inject_failing=args.inject_failing)
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload.setup()
    setup_wall_s = time.perf_counter() - START
    try:
        peak_before_probe = peak_rss_mb()
        probe = SpeedProbe()
        timer = RunSpeed(probe)
        out = {"setup_wall_s": setup_wall_s}
        if args.setup_only:
            timer.burst()
        else:
            checks = Checks()
            gc.collect()
            result = workload.measure(checks, timer)
            out.update(result)
            out["peak_rss_mb"] = max(peak_before_probe,
                                     peak_rss_mb() - probe.footprint_mb)
            out["probe_unit_s"] = probe.units
            if tracer is not None:
                from repro import obs

                from layers import layer_metrics
                counters = {name: snap["value"] for name, snap
                            in obs.registry().snapshot().items()
                            if snap.get("type") == "counter"}
                out["layers"] = layers = layer_metrics(tracer, counters,
                                                       result["detail"])
                # Fresh directories per run: nothing may be carried over.
                for name in ("chaos.artifacts_resumed", "serve.cache_hits_disk"):
                    checks.require(layers[name] == 0, f"{name} = {layers[name]}")
            checks.close_op()
            out["failures"] = checks.failures
            out["failed"] = checks.failed_ops + result.get("failed_requests", 0)
        out["setup_s"] = setup_wall_s * timer.factor()
    finally:
        workload.close()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
