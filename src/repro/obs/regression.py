"""The perf-regression gate: snapshot, compare, update.

A **snapshot** runs the deterministic probe suite
(:mod:`repro.obs.probes`) with observability enabled and records, per
probe, its wall time and model values, plus the simulator-wide counter
totals.  CI compares a fresh snapshot against the committed
``benchmarks/BENCH_BASELINE.json``:

* model **values** must match within ``value_rtol`` (they are
  deterministic; drift means the models changed — intended changes are
  blessed by refreshing the baseline);
* **counters** must match within ``value_rtol`` (a jump in
  ``fabric.maxmin.iterations`` or ``mpi.p2p_messages`` is an algorithmic
  regression even when wall time hides it);
* **wall time** may not exceed ``wall_factor`` x the baseline (floored at
  ``wall_floor_s`` so micro-probes are not judged on scheduler noise).
  The generous default factor absorbs CI-runner variance while still
  catching complexity-class blowups.

Environment overrides: ``REPRO_BENCH_WALL_FACTOR``, ``REPRO_BENCH_RTOL``.
Refresh the baseline with ``python benchmarks/_regression.py --update``.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro import obs
from repro.obs.export import write_json
from repro.obs.probes import run_probes

__all__ = ["snapshot", "compare", "check_baseline", "update_baseline",
           "DEFAULT_WALL_FACTOR", "DEFAULT_VALUE_RTOL"]

SCHEMA_VERSION = 1
DEFAULT_WALL_FACTOR = 10.0
DEFAULT_VALUE_RTOL = 1e-6
DEFAULT_WALL_FLOOR_S = 0.05


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


def snapshot() -> dict[str, Any]:
    """Run the probe suite from a clean slate and capture the baseline."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        probes = run_probes()
        metrics = obs.registry().snapshot()
    finally:
        if not was_enabled:
            obs.disable()
    counters = {name: m["value"] for name, m in metrics.items()
                if m.get("type") == "counter"}
    return {"schema": SCHEMA_VERSION, "probes": probes, "counters": counters}


def compare(baseline: dict[str, Any], current: dict[str, Any],
            *, value_rtol: float | None = None,
            wall_factor: float | None = None,
            wall_floor_s: float = DEFAULT_WALL_FLOOR_S) -> list[str]:
    """Return a list of human-readable regressions (empty = gate passes)."""
    rtol = (value_rtol if value_rtol is not None
            else _env_float("REPRO_BENCH_RTOL", DEFAULT_VALUE_RTOL))
    factor = (wall_factor if wall_factor is not None
              else _env_float("REPRO_BENCH_WALL_FACTOR", DEFAULT_WALL_FACTOR))
    problems: list[str] = []

    for name, base in baseline.get("probes", {}).items():
        cur = current.get("probes", {}).get(name)
        if cur is None:
            problems.append(f"probe {name!r} missing from current run")
            continue
        budget = factor * max(base["wall_time_s"], wall_floor_s)
        if cur["wall_time_s"] > budget:
            problems.append(
                f"probe {name!r} wall time regressed: "
                f"{cur['wall_time_s']:.3f}s > {factor:g}x baseline "
                f"(budget {budget:.3f}s)")
        for key, expected in base.get("values", {}).items():
            got = cur.get("values", {}).get(key)
            if got is None:
                problems.append(f"probe {name!r} no longer reports {key!r}")
            elif not _close(expected, got, rtol):
                problems.append(
                    f"probe {name!r} value {key!r} drifted: "
                    f"baseline {expected!r}, got {got!r}")

    for name, expected in baseline.get("counters", {}).items():
        got = current.get("counters", {}).get(name)
        if got is None:
            problems.append(f"counter {name!r} no longer emitted")
        elif not _close(expected, got, rtol):
            problems.append(f"counter {name!r} drifted: "
                            f"baseline {expected!r}, got {got!r}")
    return problems


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-30)


def update_baseline(path: str) -> str:
    """Write a fresh snapshot to ``path`` (atomically); returns the path."""
    return write_json(path, snapshot())


def check_baseline(path: str, **kwargs: Any) -> list[str]:
    """Compare a fresh snapshot against the baseline at ``path``."""
    if not os.path.exists(path):
        return [f"no baseline at {path}; run with --update to create one"]
    with open(path) as fh:
        baseline = json.load(fh)
    return compare(baseline, snapshot(), **kwargs)


def main(argv: list[str] | None = None, *,
         default_baseline: str | None = None) -> int:
    """Entry point of ``benchmarks/_regression.py``."""
    import argparse
    parser = argparse.ArgumentParser(
        description="Benchmark perf-regression gate (probe suite vs "
                    "committed baseline).")
    parser.add_argument("--baseline", default=default_baseline,
                        help="path to BENCH_BASELINE.json")
    parser.add_argument("--update", action="store_true",
                        help="re-record the baseline instead of checking")
    args = parser.parse_args(argv)
    if not args.baseline:
        parser.error("--baseline is required")
    if args.update:
        path = update_baseline(args.baseline)
        print(f"baseline updated: {path}")
        return 0
    problems = check_baseline(args.baseline)
    if problems:
        print(f"PERF REGRESSION GATE FAILED ({len(problems)} problems):")
        for p in problems:
            print(f"  - {p}")
        print("If the change is intended, refresh the baseline with "
              "`python benchmarks/_regression.py --update`.")
        return 1
    print("perf regression gate passed")
    return 0
