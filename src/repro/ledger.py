"""The artifact ledger: one trust contract for every resumable result.

Sweep tasks, chaos runs and congest studies each persist one JSON
document per content hash at ``<out_dir>/<prefix><id>.json``, and a
re-run resumes from it instead of recomputing.  A :class:`Ledger` is
that contract for one kind, built from its file-name prefix (``""``,
``"chaos-"``, ``"congest-"``), its schema version and the path of the
document's own id (``"task.id"`` or ``"run_id"``).

Every id is a content hash, 16 lowercase hex characters, so a ledger
claims only the files named ``<prefix><16 hex>.json``: the sweep
ledger's empty prefix does not make another kind's ``chaos-<id>.json``
its own.

A document is **trusted** when it is a JSON object on the current schema
whose embedded id matches the one asked for; only trusted
``status == "ok"`` documents resume.  Writes stay with the callers,
through the atomic :func:`repro.obs.export.write_json`, so a killed run
never leaves a truncated document that a resume would trust;
:meth:`Ledger.cached` is the run-or-resume step chaos and congest share,
with the caller's writer passed in.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs

__all__ = ["Ledger", "PruneReport", "run_id"]


def run_id(spec: Any, config: Any) -> str:
    """Content hash identifying one (spec, config) chaos or congest run."""
    blob = json.dumps({"spec": spec.to_dict(), "config": config.to_dict()},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class PruneReport:
    """What :meth:`Ledger.prune` found and removed."""

    scanned: int = 0       #: ``<prefix><id>.json`` files examined
    kept: int = 0          #: trusted non-error documents left alone
    errors: int = 0        #: trusted ``status == "error"`` documents deleted
    stale: int = 0         #: off-schema / id-mismatched documents deleted
    unreadable: int = 0    #: unparseable files left alone (never delete blind)

    @property
    def removed(self) -> int:
        return self.errors + self.stale

    def counts_line(self) -> str:
        return (f"scanned: {self.scanned}  removed: {self.removed} "
                f"(errors: {self.errors}, stale: {self.stale})  "
                f"kept: {self.kept}  unreadable: {self.unreadable}")


#: The shape of every ledger id (:func:`run_id` and the sweep task hash).
_ID_SHAPE = re.compile(r"[0-9a-f]{16}")


def _read(path: str) -> Any:
    """The parsed JSON at ``path``, or ``None`` if it cannot be read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


@dataclass(frozen=True)
class Ledger:
    """The resume ledger of one artifact kind (see the module docstring)."""

    prefix: str
    schema: int
    #: dotted path of the id inside a document (``"task.id"``).
    id_key: str

    def path(self, out_dir: str, doc_id: str) -> str:
        return os.path.join(out_dir, f"{self.prefix}{doc_id}.json")

    def _trusts(self, doc: Any, doc_id: str) -> bool:
        if not isinstance(doc, dict) or doc.get("schema") != self.schema:
            return False
        value: Any = doc
        for key in self.id_key.split("."):
            if not isinstance(value, dict):
                return False
            value = value.get(key)
        return value == doc_id

    def load(self, out_dir: str, doc_id: str) -> dict[str, Any] | None:
        """The trusted document for ``doc_id`` (any status), or ``None``."""
        doc = _read(self.path(out_dir, doc_id))
        return doc if self._trusts(doc, doc_id) else None

    def resume(self, out_dir: str, doc_id: str) -> dict[str, Any] | None:
        """The trusted ``status == "ok"`` document for ``doc_id``, or ``None``."""
        doc = self.load(out_dir, doc_id)
        return doc if doc is not None and doc.get("status") == "ok" else None

    def cached(self, out_dir: str, doc_id: str,
               compute: Callable[[], dict[str, Any]], *, fresh: bool,
               write: Callable[[str, dict[str, Any]], Any], counter: str,
               ) -> tuple[dict[str, Any], str, bool]:
        """Resume ``doc_id``, or compute and ``write`` it: ``(doc, path,
        resumed)``.  ``fresh`` skips the resume; each outcome counts in
        ``<counter>.artifacts_resumed`` or ``<counter>.artifacts_written``."""
        path = self.path(out_dir, doc_id)
        doc = None if fresh else self.resume(out_dir, doc_id)
        if doc is not None:
            obs.counter(f"{counter}.artifacts_resumed").inc()
            return doc, path, True
        doc = compute()
        write(path, doc)
        obs.counter(f"{counter}.artifacts_written").inc()
        return doc, path, False

    def _doc_id(self, name: str) -> str | None:
        """The id in a ``<prefix><id>.json`` file name, or ``None`` when
        the name is not one this ledger writes."""
        if not (name.startswith(self.prefix) and name.endswith(".json")):
            return None
        doc_id = name[len(self.prefix):-len(".json")]
        return doc_id if _ID_SHAPE.fullmatch(doc_id) else None

    def prune(self, out_dir: str) -> PruneReport:
        """Delete error and stale (untrusted) documents among this
        ledger's ``<prefix><id>.json`` files; other names are not looked
        at, and files that are not JSON objects are counted but **left in
        place**: they may not be ours, and deleting blind from a shared
        directory is how ledgers eat data."""
        report = PruneReport()
        if not os.path.isdir(out_dir):
            return report
        for name in sorted(os.listdir(out_dir)):
            doc_id = self._doc_id(name)
            if doc_id is None:
                continue
            path = os.path.join(out_dir, name)
            report.scanned += 1
            doc = _read(path)
            if not isinstance(doc, dict):
                report.unreadable += 1
            elif not self._trusts(doc, doc_id):
                os.remove(path)
                report.stale += 1
            elif doc.get("status") == "error":
                os.remove(path)
                report.errors += 1
            else:
                report.kept += 1
        return report
