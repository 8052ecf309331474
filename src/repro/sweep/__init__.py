"""``repro.sweep`` — the parallel scenario-sweep engine.

The payoff of the scenario layer: a :class:`MachineSpec` grid (scaled,
degraded, re-routed variants of a base machine — or a directory of spec
files) expands to a deterministic task list, runs on a worker pool with
retries and timeouts, and leaves **one content-addressed JSON artifact
per task** under the output directory.  Completed tasks are skipped on
re-run, so a killed sweep resumes where it stopped and a finished sweep
is a no-op.

Typical use::

    from repro.core.scenario import frontier_spec
    from repro.sweep import SweepConfig, SweepPlan, run_sweep

    plan = SweepPlan.grid(
        frontier_spec(),
        axes={"scale": (0.05,), "disabled_links": (0, 4),
              "routing": ("minimal", "ugal")},
        probes=("mpigraph",), seed=7)
    summary = run_sweep(plan, SweepConfig(out_dir="benchmarks/out/sweep",
                                          workers=2))
    print(summary.counts_line())

The CLI verb is ``python -m repro sweep``; see :mod:`repro.sweep.plan`
for task identity/hashing, :mod:`repro.sweep.runner` for the execution
policy, :mod:`repro.sweep.artifacts` for the artifact schema,
:mod:`repro.ledger` for resume and pruning, and :mod:`repro.sweep.probes`
for what can be evaluated at each grid point.
"""

from repro.sweep.artifacts import (ARTIFACT_SCHEMA_VERSION, SWEEP_LEDGER,
                                   write_artifact)
from repro.sweep.plan import (AXES, SweepPlan, SweepTask, apply_axes,
                              derive_seed, scaled_fraction, task_hash)
from repro.sweep.probes import SWEEP_PROBES
from repro.sweep.runner import (ExecPolicy, SweepConfig, SweepSummary,
                                backoff_delay, execute_task, execute_tasks,
                                results_table, run_sweep)

__all__ = [
    "ARTIFACT_SCHEMA_VERSION", "SWEEP_LEDGER", "write_artifact",
    "AXES", "SweepPlan", "SweepTask", "apply_axes", "derive_seed",
    "scaled_fraction", "task_hash",
    "SWEEP_PROBES",
    "ExecPolicy", "SweepConfig", "SweepSummary", "execute_task",
    "execute_tasks", "results_table", "run_sweep", "backoff_delay",
]
