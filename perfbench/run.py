"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fabric-full --seed 1 --seconds 16 --trace 0

Workloads: ``fabric-full``, ``chaos-heal-full``, ``serve-mix`` (see
``perfbench/README.md``).  Every workload runs in fresh worker processes
(``worker.py``) with BLAS and OpenMP pinned to one thread, against the
``src/`` tree of this checkout.

* ``--trace 0`` runs the set-up in three fresh processes, the last of
  which also measures; ``setup_s`` is the median of the three.  The last
  line holds the end-to-end metrics.
* ``--trace 1`` measures once untraced and once with the layer wrappers
  installed; the last line holds the per-layer table plus
  ``trace_overhead.<metric>`` = traced / untraced for every end-to-end
  metric.

A run is correct when every output check of the workload passes and the
digest of its seed-independent reference work matches the one pinned in
``perfbench/digests.json``; otherwise the result reads
``"correct": false`` and the exit code is 1.  ``--pin`` records the
current reference digest instead (after a deliberate change of the
simulated outputs).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("fabric-full", "chaos-heal-full", "serve-mix")
SETUP_REPS = 3
#: A run must end within 180 s; leave room to report and clean up.
DEADLINE_S = 170.0

#: Each workload's own names for its rates, printed on the ``metric``
#: lines before the result.  The result's end-to-end names are the same
#: for every workload (``harness.END_TO_END_UNITS``).
WORKLOAD_METRICS = {
    "fabric-full": {"flows_per_s": "1/s", "flow_steps_per_s": "1/s"},
    "chaos-heal-full": {"events_per_s": "1/s", "interrupts_per_s": "1/s"},
    "serve-mix": {"requests_per_s": "1/s", "evaluations_per_s": "1/s",
                  "latency_p50_s": "s", "latency_p95_s": "s",
                  "latency_samples": "count"},
}

sys.path.insert(0, HERE)
from harness import END_TO_END_UNITS  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_OBS", None)
    return env


def _run_worker(args, workdir: str, deadline: float, *, trace: bool = False,
                setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.inject_failing:
        cmd.append("--inject-failing")
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:g} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _load_digests(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _check_canary(args, runs: list[dict]) -> list[str]:
    """One failure per run whose reference digest is not the pinned one."""
    pinned = _load_digests(args.digests)
    want = pinned.get(args.size, {}).get(args.workload)
    if args.pin:
        pinned.setdefault(args.size, {})[args.workload] = runs[0]["canary"]
        with open(args.digests, "w") as fh:
            json.dump(pinned, fh, indent=2, sort_keys=True)
            fh.write("\n")
        want = runs[0]["canary"]
    failures = []
    for run in runs:
        if want is None:
            failures.append(f"no pinned reference digest for "
                            f"{args.size}/{args.workload}")
        elif run["canary"] != want:
            failures.append(f"reference digest {run['canary']} != pinned {want}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: reduced machine, for the self-tests")
    parser.add_argument("--digests", default=DIGESTS,
                        help="pinned reference digests (JSON)")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's reference digest")
    parser.add_argument("--inject-failing", action="store_true",
                        help="serve-mix: add one 'failing' probe request")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source at {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    # Byte-compile once so no timed set-up pays for it.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=2)

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        if args.trace:
            plain = _run_worker(args, workdir, deadline)
            traced = _run_worker(args, workdir, deadline, trace=True)
            runs = [plain, traced]
            metrics = dict(traced["layers"])
            plain_e2e = _end_to_end(plain, plain["setup_s"])
            traced_e2e = _end_to_end(traced, traced["setup_s"])
            for name in END_TO_END_UNITS:
                metrics[f"trace_overhead.{name}"] = (traced_e2e[name]
                                                     / plain_e2e[name])
            units = PER_LAYER_UNITS
        else:
            setups = [_run_worker(args, workdir, deadline, setup_only=True)
                      ["setup_s"] for _ in range(SETUP_REPS - 1)]
            measured = _run_worker(args, workdir, deadline)
            runs = [measured]
            setups.append(measured["setup_s"])
            metrics = _end_to_end(measured, statistics.median(setups))
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass

    mismatches = _check_canary(args, runs)
    failures = mismatches + [f for run in runs for f in run["failures"]]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    last = runs[-1]
    for name, unit in WORKLOAD_METRICS[args.workload].items():
        print(f"metric {name} {last['detail'][name]!r} {unit}")
    print(f"digest reference {last['canary']} seeded {last['digest']}")
    print("detail " + json.dumps(last["detail"], sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs) + len(mismatches),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def _end_to_end(run: dict, setup_s: float) -> dict[str, float]:
    return {"setup_s": setup_s, "peak_rss_mb": run["peak_rss_mb"],
            **run["metrics"]}


if __name__ == "__main__":
    sys.exit(main())
