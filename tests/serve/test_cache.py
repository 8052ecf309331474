"""The two-level response cache and its shared-ledger semantics."""

from __future__ import annotations

import os

from repro import obs
from repro.serve.cache import ResponseCache
from repro.sweep.artifacts import (ARTIFACT_SCHEMA_VERSION, SWEEP_LEDGER,
                                   write_artifact)


def make_doc(task_id: str, status: str = "ok") -> dict:
    doc = {
        "schema": ARTIFACT_SCHEMA_VERSION,
        "task": {"id": task_id, "probe": "storage", "seed": 1, "axes": {},
                 "spec": {"name": "tiny"}},
        "status": status,
        "timing": {"wall_time_s": 0.01, "attempts": 1},
        "metrics": {},
    }
    if status == "ok":
        doc["values"] = {"x": 1.0}
    else:
        doc["error"] = {"type": "RuntimeError", "message": "boom"}
    return doc


class TestCache:
    def test_miss_then_memory_hit(self, tmp_path):
        cache = ResponseCache(str(tmp_path))
        assert cache.get("aaaa000011112222") is None
        doc = make_doc("aaaa000011112222")
        cache.put(doc)
        assert cache.get("aaaa000011112222") == doc

    def test_put_persists_to_the_ledger(self, tmp_path):
        cache = ResponseCache(str(tmp_path))
        cache.put(make_doc("aaaa000011112222"))
        assert os.path.exists(
            SWEEP_LEDGER.path(str(tmp_path), "aaaa000011112222"))

    def test_disk_hit_from_a_sweep_artifact(self, tmp_path):
        """A spec already swept is a cache hit on its first request."""
        write_artifact(str(tmp_path), make_doc("bbbb000011112222"))
        cache = ResponseCache(str(tmp_path))
        doc = cache.get("bbbb000011112222")
        assert doc is not None and doc["status"] == "ok"

    def test_error_documents_are_not_served(self, tmp_path):
        cache = ResponseCache(str(tmp_path))
        cache.put(make_doc("cccc000011112222", status="error"))
        # persisted as an ordinary artifact (the --gc target) ...
        assert os.path.exists(
            SWEEP_LEDGER.path(str(tmp_path), "cccc000011112222"))
        # ... but the next identical request re-evaluates
        assert cache.get("cccc000011112222") is None

    def test_memory_is_a_bounded_lru(self, tmp_path):
        cache = ResponseCache(str(tmp_path), slots=2)
        for tid in ("aaaa000011112222", "bbbb000011112222",
                    "cccc000011112222"):
            cache.put(make_doc(tid))
        assert len(cache) == 2
        # the evicted entry still answers from disk (the ledger level)
        assert cache.get("aaaa000011112222") is not None

    def test_hit_miss_counters(self, tmp_path):
        obs.enable(tracing=False)
        cache = ResponseCache(str(tmp_path))
        cache.get("aaaa000011112222")
        cache.get("bbbb000011112222", record_miss=False)
        cache.put(make_doc("aaaa000011112222"))
        cache.get("aaaa000011112222")
        snap = obs.registry().snapshot()
        assert snap["serve.cache_misses"]["value"] == 1.0
        assert snap["serve.cache_hits"]["value"] == 1.0
        assert snap["serve.cache_hits_memory"]["value"] == 1.0
