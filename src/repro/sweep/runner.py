"""Parallel sweep execution: worker pool, retries, timeouts, resume.

:func:`run_sweep` drives a :class:`~repro.sweep.plan.SweepPlan` to one
artifact per task:

* **parallel** — a :class:`~concurrent.futures.ProcessPoolExecutor`
  evaluates tasks on ``workers`` processes (``workers=0`` runs inline in
  this process, handy under a debugger and for the regression probe);
* **isolated RNG** — each worker derives its stream with
  :func:`repro.rng.spawn` from the task's content-derived seed, so
  results do not depend on which worker ran what, or in which order;
* **bounded retry** — a failed attempt is resubmitted up to ``retries``
  times with exponential backoff; the final failure becomes a structured
  *error artifact*, and the sweep carries on (graceful degradation);
* **per-task timeout** — measured from when the task starts running (not
  from submission, so a deep queue is not penalised).  A timed-out task
  is retried/recorded like any failure.  ProcessPoolExecutor cannot kill
  a running function, so the overdue worker is *abandoned*: its slot
  stays busy until the task returns, and shutdown stops waiting for it —
  a deliberate trade for keeping one warm pool across the whole sweep;
* **resume** — tasks whose trusted ``status == "ok"`` artifact already
  exists under ``out_dir`` are skipped (their artifacts still feed the
  summary); each planned task reads only its own artifact, once;
* **telemetry merge** — each worker runs with its own freshly-reset
  metrics registry and ships the snapshot home in the artifact; the
  parent folds them via :meth:`MetricsRegistry.merge` into
  ``summary.metrics`` (and into the process-wide registry when that is
  collecting).

The pool/timeout/retry core is factored out as :func:`execute_tasks` +
:class:`ExecPolicy`, with the sweep-specific parts (resume ledger,
artifact writes, summary counters) kept here in :func:`run_sweep`.  The
scenario service (:mod:`repro.serve`) drives cache-miss batches through
the same :func:`execute_tasks`, passing its own long-lived executor so
one warm pool serves every batch.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from concurrent.futures import (FIRST_COMPLETED, Future, ProcessPoolExecutor,
                                wait)
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.reporting import Table
from repro.rng import spawn
from repro.sweep.artifacts import (ARTIFACT_SCHEMA_VERSION, SWEEP_LEDGER,
                                   write_artifact)
from repro.sweep.plan import SweepPlan, SweepTask
from repro.sweep.probes import SWEEP_PROBES

__all__ = ["ExecPolicy", "SweepConfig", "SweepSummary", "run_sweep",
           "execute_task", "execute_tasks", "results_table",
           "backoff_delay"]

#: How often the dispatch loop polls for completions/timeouts (seconds).
_POLL_S = 0.05


@dataclass(frozen=True)
class ExecPolicy:
    """The task-execution policy: pool size, timeout, retry budget.

    This is the part of :class:`SweepConfig` that is not about artifacts
    or resume — the value :func:`execute_tasks` is parameterised by, and
    the one the scenario service shares with the sweep engine.
    """

    workers: int = 2
    timeout_s: float | None = None
    retries: int = 1
    backoff_s: float = 0.05
    #: upper bound on any single jittered retry delay.
    backoff_cap_s: float = 2.0


@dataclass(frozen=True)
class SweepConfig:
    """Execution knobs (the CLI flags, as a value)."""

    out_dir: str = os.path.join("benchmarks", "out", "sweep")
    workers: int = 2
    timeout_s: float | None = None
    retries: int = 1
    backoff_s: float = 0.05
    backoff_cap_s: float = 2.0
    resume: bool = True

    def policy(self) -> ExecPolicy:
        return ExecPolicy(workers=self.workers, timeout_s=self.timeout_s,
                          retries=self.retries, backoff_s=self.backoff_s,
                          backoff_cap_s=self.backoff_cap_s)


@dataclass
class SweepSummary:
    """What a sweep did, plus the merged worker telemetry."""

    planned: int
    run: int = 0
    skipped: int = 0
    retried: int = 0
    failed: int = 0
    timed_out: int = 0
    wall_time_s: float = 0.0
    #: task id -> artifact document (freshly run *and* resumed ones).
    artifacts: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: worker-process metrics folded together (counters add, etc.).
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=True))

    def counts_line(self) -> str:
        return (f"planned: {self.planned} | run: {self.run} | "
                f"skipped: {self.skipped} | retried: {self.retried} | "
                f"failed: {self.failed}")

    def topology_cache_line(self) -> str | None:
        """The merged workers' topology-cache hit rate, or ``None``.

        Submission order groups same-fabric tasks onto warm workers
        (:func:`_submission_order`); this line makes the effect visible
        in every sweep report without digging into the raw metrics.
        """
        snap = self.metrics.snapshot()
        hits = int(snap.get(
            "fabric.topology_cache.hits", {}).get("value", 0))
        misses = int(snap.get(
            "fabric.topology_cache.misses", {}).get("value", 0))
        total = hits + misses
        if not total:
            return None
        return (f"topology cache: {hits}/{total} hits "
                f"({100.0 * hits / total:.0f}%) across workers")

    def ok_artifacts(self) -> list[dict[str, Any]]:
        return [doc for _, doc in sorted(self.artifacts.items())
                if doc.get("status") == "ok"]


def execute_task(task: SweepTask, attempt: int = 1,
                 isolate_obs: bool = True) -> dict[str, Any]:
    """Evaluate one task to a picklable artifact document; never raises.

    This is the function worker processes run.  With ``isolate_obs`` the
    process-wide registry is reset and enabled around the probe so the
    returned ``metrics`` snapshot contains exactly this task's telemetry
    (correct in a worker, which owns its process).  Inline execution
    passes ``isolate_obs=False`` — the parent's registry must not be
    stomped — and forgoes per-task metrics.
    """
    if isolate_obs:
        obs.reset()
        obs.enable(tracing=False, metrics=True)
    start = time.perf_counter()
    doc: dict[str, Any] = {"schema": ARTIFACT_SCHEMA_VERSION,
                           "task": task.to_dict()}
    try:
        probe = SWEEP_PROBES[task.probe]
        rng = spawn(task.seed, 1)[0]
        values = probe(task.spec, rng)
        doc["status"] = "ok"
        doc["values"] = {k: float(v) for k, v in values.items()}
    except Exception as exc:
        doc["status"] = "error"
        doc["error"] = {"type": type(exc).__name__, "message": str(exc),
                        "traceback": traceback.format_exc(limit=8)}
    doc["timing"] = {"wall_time_s": time.perf_counter() - start,
                     "attempts": attempt}
    doc["metrics"] = obs.registry().snapshot() if isolate_obs else {}
    if isolate_obs:
        obs.disable()
        obs.reset()
    return doc


def _error_doc(task: SweepTask, attempt: int,
               exc: BaseException) -> dict[str, Any]:
    """Parent-side failure (timeout, broken pool) as an artifact document."""
    return {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "task": task.to_dict(),
        "status": "error",
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "timing": {"wall_time_s": 0.0, "attempts": attempt},
        "metrics": {},
    }


def run_sweep(plan: SweepPlan, config: SweepConfig | None = None, *,
              progress: Callable[[str], None] | None = None) -> SweepSummary:
    """Run every not-yet-completed task of ``plan``; returns the summary."""
    config = config or SweepConfig()
    say = progress if progress is not None else (lambda msg: None)
    os.makedirs(config.out_dir, exist_ok=True)
    summary = SweepSummary(planned=len(plan))
    start = time.perf_counter()
    with obs.span("sweep.run", tasks=len(plan), workers=config.workers):
        pending: list[SweepTask] = []
        for task in plan.tasks:
            doc = (SWEEP_LEDGER.resume(config.out_dir, task.task_id)
                   if config.resume else None)
            if doc is None:
                pending.append(task)
                continue
            summary.skipped += 1
            obs.counter("sweep.tasks_skipped").inc()
            summary.artifacts[task.task_id] = doc
            say(f"skip {task.task_id} {task.probe} (artifact exists)")
        if pending:
            def on_timeout(task: SweepTask) -> None:
                summary.timed_out += 1
                obs.counter("sweep.tasks_timed_out").inc()

            execute_tasks(
                pending, config.policy(),
                on_result=lambda doc: _record(doc, config, summary, say),
                on_retry=lambda task, reason: _note_retry(
                    task, summary, say, reason),
                on_timeout=on_timeout)
    summary.wall_time_s = time.perf_counter() - start
    return summary


def _record(doc: dict[str, Any], config: SweepConfig,
            summary: SweepSummary, say: Callable[[str], None]) -> None:
    """Persist a final attempt's document and fold in its telemetry."""
    write_artifact(config.out_dir, doc)
    summary.artifacts[doc["task"]["id"]] = doc
    summary.run += 1
    obs.counter("sweep.tasks_run").inc()
    if doc["status"] == "error":
        summary.failed += 1
        obs.counter("sweep.tasks_failed").inc()
    if doc.get("metrics"):
        summary.metrics.merge(doc["metrics"])
        if obs.registry().enabled:
            obs.registry().merge(doc["metrics"])
    state = (doc["status"] if doc["status"] == "ok"
             else f"error: {doc['error']['type']}")
    say(f"done {doc['task']['id']} {doc['task']['probe']} [{state}] "
        f"({doc['timing']['wall_time_s']:.2f}s, "
        f"attempt {doc['timing']['attempts']})")


def backoff_delay(policy: ExecPolicy, task: SweepTask, attempt: int,
                  prev_s: float) -> float:
    """Decorrelated-jitter retry delay: ``U[base, min(cap, prev * 3)]``.

    Exponential backoff with every retryer on the same schedule makes
    fleet-scale retries *synchronise* — each wave of failures retries in
    lockstep.  Decorrelated jitter spreads the wave: each delay is drawn
    uniformly between the base and three times the *previous* delay,
    capped.  The draw is seeded from ``(task_id, attempt)`` — not wall
    clock, not global RNG state — so any execution path (inline
    ``workers=0`` included) replays the identical delay sequence for the
    same plan.
    """
    if policy.backoff_s <= 0:
        return 0.0
    base = policy.backoff_s
    high = min(policy.backoff_cap_s, max(base, prev_s * 3.0))
    digest = hashlib.sha256(
        f"{task.task_id}:{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base + (high - base) * unit


def _backoff(policy: ExecPolicy, task: SweepTask, attempt: int,
             prev_s: float) -> float:
    """Sleep the jittered delay; returns it (the next draw's ``prev_s``)."""
    delay = backoff_delay(policy, task, attempt, prev_s)
    if delay > 0:
        time.sleep(delay)
    return delay


def _note_retry(task: SweepTask, summary: SweepSummary,
                say: Callable[[str], None], reason: str) -> None:
    summary.retried += 1
    obs.counter("sweep.tasks_retried").inc()
    say(f"retry {task.task_id} {task.probe} ({reason})")


def execute_tasks(tasks: Sequence[SweepTask], policy: ExecPolicy, *,
                  on_result: Callable[[dict[str, Any]], None],
                  on_retry: Callable[[SweepTask, str], None] | None = None,
                  on_timeout: Callable[[SweepTask], None] | None = None,
                  executor: ProcessPoolExecutor | None = None) -> None:
    """Evaluate every task under ``policy``; one final document per task.

    The reusable pool/timeout/retry core shared by :func:`run_sweep` and
    the scenario service (:mod:`repro.serve.batching`):

    * each task's **final** attempt — ``status == "ok"`` or the retry
      budget spent — is delivered to ``on_result`` (exactly once per
      task, in completion order);
    * ``on_retry(task, reason)`` fires before each resubmission, and
      ``on_timeout(task)`` whenever an attempt is abandoned for
      exceeding ``policy.timeout_s`` (the caller owns any counters);
    * ``policy.workers <= 0`` (with no ``executor``) runs inline in this
      thread with ``isolate_obs=False`` — the calling process keeps its
      registry — and cannot preempt an overrunning task;
    * passing ``executor`` reuses the caller's long-lived
      :class:`ProcessPoolExecutor` (the scenario service's warm pool);
      its lifecycle stays with the caller, and a timed-out attempt's
      worker slot stays busy until the task returns, exactly like the
      private-pool case.
    """
    if on_retry is None:
        on_retry = lambda task, reason: None       # noqa: E731
    if on_timeout is None:
        on_timeout = lambda task: None             # noqa: E731
    if executor is None and policy.workers <= 0:
        _execute_serial(tasks, policy, on_result, on_retry)
    else:
        _execute_pool(tasks, policy, on_result, on_retry, on_timeout,
                      executor)


def _execute_serial(tasks: Sequence[SweepTask], policy: ExecPolicy,
                    on_result: Callable[[dict[str, Any]], None],
                    on_retry: Callable[[SweepTask, str], None]) -> None:
    """Inline execution (workers=0): same retry policy, no subprocesses."""
    for task in tasks:
        attempt = 1
        prev_delay = policy.backoff_s
        while True:
            doc = execute_task(task, attempt=attempt, isolate_obs=False)
            if doc["status"] == "ok" or attempt > policy.retries:
                on_result(doc)
                break
            on_retry(task, doc["error"]["type"])
            prev_delay = _backoff(policy, task, attempt, prev_delay)
            attempt += 1


def _submission_order(tasks: Sequence[SweepTask]) -> list[SweepTask]:
    """Pool submission order: same-fabric tasks land consecutively.

    Worker processes key their topology/path LRUs by the fabric config,
    so submitting ``(fabric kind, exact fabric, spec hash)`` runs of
    tasks back-to-back maximises warm-cache hits on whichever worker
    picks them up.  Inline (serial) execution keeps caller order — one
    process sees every task, so ordering buys nothing there.
    """
    import hashlib
    import json

    def key(task: SweepTask) -> tuple:
        spec_hash = hashlib.sha256(json.dumps(
            task.spec.to_dict(), sort_keys=True,
            separators=(",", ":")).encode()).hexdigest()[:16]
        return (task.spec.fabric.kind, repr(task.spec.fabric), spec_hash,
                task.task_id)
    return sorted(tasks, key=key)


def _execute_pool(tasks: Sequence[SweepTask], policy: ExecPolicy,
                  on_result: Callable[[dict[str, Any]], None],
                  on_retry: Callable[[SweepTask, str], None],
                  on_timeout: Callable[[SweepTask], None],
                  shared: ProcessPoolExecutor | None) -> None:
    tasks = _submission_order(tasks)
    attempts: dict[str, int] = {t.task_id: 1 for t in tasks}
    prev_delay: dict[str, float] = {t.task_id: policy.backoff_s
                                    for t in tasks}
    abandoned = False
    executor = shared if shared is not None else ProcessPoolExecutor(
        max_workers=policy.workers)
    # future -> (task, monotonic time it was first seen *running*, or None)
    inflight: dict[Future, tuple[SweepTask, float | None]] = {}

    def submit(task: SweepTask) -> None:
        try:
            fut = executor.submit(execute_task, task,
                                  attempts[task.task_id])
        except RuntimeError as exc:   # pool already broken/shut down
            on_result(_error_doc(task, attempts[task.task_id], exc))
            return
        inflight[fut] = (task, None)

    def finish_attempt(task: SweepTask, doc: dict[str, Any],
                       reason: str) -> None:
        if doc["status"] == "error" and attempts[task.task_id] <= policy.retries:
            on_retry(task, reason)
            prev_delay[task.task_id] = _backoff(
                policy, task, attempts[task.task_id],
                prev_delay[task.task_id])
            attempts[task.task_id] += 1
            submit(task)
        else:
            on_result(doc)

    try:
        for task in tasks:
            submit(task)
        while inflight:
            completed, _ = wait(list(inflight), timeout=_POLL_S,
                                return_when=FIRST_COMPLETED)
            now = time.monotonic()
            for fut in completed:
                task, _started = inflight.pop(fut)
                exc = fut.exception()
                if exc is not None:   # crashed worker / unpicklable result
                    doc = _error_doc(task, attempts[task.task_id], exc)
                    reason = type(exc).__name__
                else:
                    doc = fut.result()
                    reason = doc.get("error", {}).get("type", "error")
                finish_attempt(task, doc, reason)
            if policy.timeout_s is None:
                continue
            for fut, (task, started) in list(inflight.items()):
                if started is None:
                    if fut.running():
                        inflight[fut] = (task, now)
                    continue
                if now - started <= policy.timeout_s:
                    continue
                # Overdue: the pool cannot kill a running call, so stop
                # listening to this future and treat it as a failure.
                inflight.pop(fut)
                fut.cancel()
                abandoned = True
                on_timeout(task)
                timeout = TimeoutError(
                    f"task exceeded --timeout {policy.timeout_s:g}s")
                finish_attempt(task,
                               _error_doc(task, attempts[task.task_id],
                                          timeout),
                               "TimeoutError")
    finally:
        if shared is None:
            executor.shutdown(wait=not abandoned, cancel_futures=True)


# -- reporting ----------------------------------------------------------------


def results_table(docs: Iterable[dict[str, Any]],
                  title: str = "Sweep results") -> Table:
    """The per-axis result table: one row per artifact, axes as columns."""
    docs = list(docs)
    axis_keys = sorted({k for d in docs for k in d["task"].get("axes", {})})
    value_keys = sorted({k for d in docs for k in d.get("values", {})})
    table = Table(["task", "probe", *axis_keys, "status", *value_keys],
                  title=title, float_fmt="{:.4g}")
    ordered = sorted(docs, key=lambda d: (
        d["task"]["probe"],
        tuple(str(d["task"].get("axes", {}).get(k, "")) for k in axis_keys),
        d["task"]["id"]))
    for doc in ordered:
        task = doc["task"]
        values = doc.get("values", {})
        table.add_row([
            task["id"][:8],
            task["probe"],
            *(task.get("axes", {}).get(k, "") for k in axis_keys),
            doc.get("status", "?"),
            *(values.get(k, "") for k in value_keys),
        ])
    return table
