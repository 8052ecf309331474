"""One JSON artifact per sweep task, kept in the sweep's :class:`Ledger`.

Artifact layout (``<out_dir>/<task_id>.json``, written atomically via
:func:`repro.obs.export.write_json` so a killed sweep can never leave a
truncated artifact that a resume would trust)::

    {
      "schema": 2,
      "task":    {"id", "probe", "seed", "axes", "spec"},
      "status":  "ok" | "error",
      "values":  {metric: float, ...},          # ok only
      "error":   {"type", "message"},           # error only
      "timing":  {"wall_time_s", "attempts"},   # the only non-deterministic
                                                # fields in the document
      "metrics": {...}                          # worker registry snapshot
    }

Resume and pruning follow :mod:`repro.ledger`: a task whose trusted
``status == "ok"`` artifact is on disk is skipped; **error artifacts do
not count as completed**, so re-running a sweep retries exactly the
failures.  The scenario service's response cache reads and writes the
same ledger.
"""

from __future__ import annotations

from typing import Any

from repro.ledger import Ledger
from repro.obs.export import write_json

__all__ = ["ARTIFACT_SCHEMA_VERSION", "SWEEP_LEDGER", "write_artifact"]

#: 2: ``congest`` tasks above 4,096 endpoints no longer run on 8x4x4.
ARTIFACT_SCHEMA_VERSION = 2

#: Sweep tasks (and served requests): ``<task_id>.json``, id at ``task.id``.
SWEEP_LEDGER = Ledger(prefix="", schema=ARTIFACT_SCHEMA_VERSION,
                      id_key="task.id")


def write_artifact(out_dir: str, doc: dict[str, Any]) -> str:
    """Atomically persist a task document; returns the artifact path.

    ``write_json`` creates ``out_dir`` (nested) on demand and goes
    through a temp file + ``os.replace``.
    """
    return write_json(SWEEP_LEDGER.path(out_dir, doc["task"]["id"]), doc)
