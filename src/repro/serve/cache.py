"""The response cache: one namespace with the sweep artifact ledger.

Keys are the sweep content hash (spec JSON, probe, seed) — the same
``task_id`` that names a sweep artifact — so the service and the sweep
engine share results in both directions:

* a spec already swept is a **disk hit** on its first request (the
  ledger under ``out_dir`` is the second cache level);
* a spec first served is skipped by a later ``python -m repro sweep``
  over the same grid point (served misses are written back as ordinary
  artifacts).

Only documents :meth:`repro.ledger.Ledger.resume` trusts are cached
(``status == "ok"``, the check a resumed sweep makes): errors are
transient by assumption (a resumed sweep retries them too), so a
failed probe is re-evaluated on the next request rather than replayed
forever.  The in-memory level is a bounded LRU — a long-lived service
over an unbounded request stream must not grow without limit; the ledger
on disk is the capacity beyond it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro import obs
from repro.sweep.artifacts import SWEEP_LEDGER, write_artifact

__all__ = ["ResponseCache"]


class ResponseCache:
    """Two-level (memory LRU over artifact ledger) cache of task documents."""

    def __init__(self, out_dir: str, slots: int = 1024):
        self.out_dir = out_dir
        self.slots = max(1, int(slots))
        self._memory: OrderedDict[str, dict[str, Any]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, task_id: str, *,
            record_miss: bool = True) -> dict[str, Any] | None:
        """The cached ``status == "ok"`` document, or ``None`` on a miss.

        ``record_miss=False`` suppresses the miss counter for the
        service's second look at already-admitted requests, so the
        hit/miss ratio stays per-request, not per-probe-of-the-cache.
        """
        doc = self._memory.get(task_id)
        if doc is not None:
            self._memory.move_to_end(task_id)
            obs.counter("serve.cache_hits").inc()
            obs.counter("serve.cache_hits_memory").inc()
            return doc
        doc = SWEEP_LEDGER.resume(self.out_dir, task_id)
        if doc is not None:
            self._remember(task_id, doc)
            obs.counter("serve.cache_hits").inc()
            obs.counter("serve.cache_hits_disk").inc()
            return doc
        if record_miss:
            obs.counter("serve.cache_misses").inc()
        return None

    def put(self, doc: dict[str, Any]) -> None:
        """Admit a freshly computed document; persist it to the ledger.

        Error documents are written to the ledger (they are ordinary
        sweep artifacts — ``--gc`` prunes them) but **not** admitted to
        the memory level, so the next identical request retries.
        """
        write_artifact(self.out_dir, doc)
        if doc.get("status") == "ok":
            self._remember(doc["task"]["id"], doc)

    def _remember(self, task_id: str, doc: dict[str, Any]) -> None:
        self._memory[task_id] = doc
        self._memory.move_to_end(task_id)
        while len(self._memory) > self.slots:
            self._memory.popitem(last=False)
            obs.counter("serve.cache_evictions").inc()
