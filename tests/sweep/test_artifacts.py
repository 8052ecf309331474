"""Sweep artifacts: atomic writes, the trust gate, the resume ledger."""

from __future__ import annotations

import json
import os

from repro.core.scenario import frontier_spec
from repro.sweep import SweepConfig, SweepPlan, run_sweep
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


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        doc = make_doc("aaaa000011112222")
        path = write_artifact(str(tmp_path), doc)
        assert path == SWEEP_LEDGER.path(str(tmp_path), "aaaa000011112222")
        assert SWEEP_LEDGER.load(str(tmp_path), "aaaa000011112222") == doc

    def test_nested_out_dir_created_on_demand(self, tmp_path):
        out = str(tmp_path / "deep" / "nested" / "sweep")
        path = write_artifact(out, make_doc("bbbb000011112222"))
        assert os.path.exists(path)

    def test_write_leaves_no_temp_files(self, tmp_path):
        write_artifact(str(tmp_path), make_doc("cccc000011112222"))
        assert os.listdir(str(tmp_path)) == ["cccc000011112222.json"]


class TestTrustGate:
    def test_missing_file(self, tmp_path):
        assert SWEEP_LEDGER.load(str(tmp_path), "nope") is None

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "dddd000011112222.json"
        path.write_text('{"schema": 1, "task":')
        assert SWEEP_LEDGER.load(str(tmp_path), "dddd000011112222") is None

    def test_wrong_schema(self, tmp_path):
        doc = make_doc("eeee000011112222")
        doc["schema"] = 99
        path = tmp_path / "eeee000011112222.json"
        path.write_text(json.dumps(doc))
        assert SWEEP_LEDGER.load(str(tmp_path), "eeee000011112222") is None

    def test_non_dict_document(self, tmp_path):
        path = tmp_path / "ffff000011112222.json"
        path.write_text('["not", "an", "artifact"]')
        assert SWEEP_LEDGER.load(str(tmp_path), "ffff000011112222") is None

    def test_filename_id_mismatch(self, tmp_path):
        path = tmp_path / "1111000011112222.json"
        path.write_text(json.dumps(make_doc("2222000011112222")))
        assert SWEEP_LEDGER.load(str(tmp_path), "1111000011112222") is None

    def test_error_documents_load_but_do_not_resume(self, tmp_path):
        doc = make_doc("3333000011112222", status="error")
        write_artifact(str(tmp_path), doc)
        assert SWEEP_LEDGER.load(str(tmp_path), "3333000011112222") == doc
        assert SWEEP_LEDGER.resume(str(tmp_path), "3333000011112222") is None


class TestLedger:
    def test_resume_trusts_ok_only(self, tmp_path):
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222", status="ok"))
        write_artifact(out, make_doc("bbbb000011112222", status="error"))
        (tmp_path / "cccc000011112222.json").write_text("{not json")
        assert SWEEP_LEDGER.resume(out, "aaaa000011112222") is not None
        assert SWEEP_LEDGER.resume(out, "bbbb000011112222") is None
        assert SWEEP_LEDGER.resume(out, "cccc000011112222") is None

    def test_missing_directory_is_empty(self, tmp_path):
        never = str(tmp_path / "never")
        assert SWEEP_LEDGER.load(never, "aaaa000011112222") is None
        assert SWEEP_LEDGER.resume(never, "aaaa000011112222") is None

    def test_resumed_sweep_lists_artifacts_sorted_by_id(self, tmp_path):
        plan = SweepPlan.grid(frontier_spec(),
                              axes={"scale": (0.1, 0.05, 0.2)},
                              probes=("storage",))
        config = SweepConfig(out_dir=str(tmp_path), workers=0)
        run_sweep(plan, config)
        summary = run_sweep(plan, config)
        assert (summary.skipped, summary.run) == (3, 0)
        ids = [doc["task"]["id"] for doc in summary.ok_artifacts()]
        assert ids == sorted(t.task_id for t in plan.tasks)

    def test_resume_reads_each_planned_artifact_once(self, tmp_path,
                                                     monkeypatch):
        """A resumed sweep reads its own tasks' artifacts, not the
        whole directory (which also holds every task ever served)."""
        import repro.ledger
        plan = SweepPlan.grid(frontier_spec(), axes={"scale": (0.1, 0.05)},
                              probes=("storage",))
        config = SweepConfig(out_dir=str(tmp_path), workers=0)
        run_sweep(plan, config)
        for tid in ("aaaa000011112222", "bbbb000011112222"):
            write_artifact(str(tmp_path), make_doc(tid))
        reads = []
        real_read = repro.ledger._read
        monkeypatch.setattr(repro.ledger, "_read",
                            lambda path: reads.append(path) or real_read(path))
        summary = run_sweep(plan, config)
        assert summary.skipped == 2
        assert sorted(reads) == sorted(
            SWEEP_LEDGER.path(str(tmp_path), t.task_id) for t in plan.tasks)


class TestPrune:
    def test_removes_errors_and_stale_keeps_ok(self, tmp_path):
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222", status="ok"))
        write_artifact(out, make_doc("bbbb000011112222", status="error"))
        old = make_doc("cccc000011112222")
        old["schema"] = 0   # a previous ledger generation
        (tmp_path / "cccc000011112222.json").write_text(json.dumps(old))
        (tmp_path / "dddd000011112222.json").write_text(
            json.dumps(make_doc("eeee000011112222")))   # id/filename mismatch

        report = SWEEP_LEDGER.prune(out)
        assert report.scanned == 4
        assert report.errors == 1
        assert report.stale == 2
        assert report.removed == 3
        assert report.kept == 1
        assert sorted(os.listdir(out)) == ["aaaa000011112222.json"]
        assert "removed: 3" in report.counts_line()

    def test_unreadable_files_are_counted_not_deleted(self, tmp_path):
        (tmp_path / "0000aaaa0000aaaa.json").write_text("{not json")
        (tmp_path / "0000bbbb0000bbbb.json").write_text('["not", "ours"]')
        # names that are not <16 hex>.json are not the ledger's to judge
        (tmp_path / "notes.txt").write_text("ignored entirely")
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "chaos-0000cccc0000cccc.json").write_text(
            json.dumps({"schema": 1, "run_id": "0000cccc0000cccc"}))
        report = SWEEP_LEDGER.prune(str(tmp_path))
        assert report.scanned == 2
        assert report.unreadable == 2
        assert report.removed == 0
        assert sorted(os.listdir(str(tmp_path))) == [
            "0000aaaa0000aaaa.json", "0000bbbb0000bbbb.json",
            "chaos-0000cccc0000cccc.json", "junk.json", "notes.txt"]

    def test_missing_directory_is_a_noop(self, tmp_path):
        report = SWEEP_LEDGER.prune(str(tmp_path / "never"))
        assert report.scanned == report.removed == 0

    def test_pruned_errors_leave_resume_gap(self, tmp_path):
        """After --gc, a re-run retries exactly the pruned failures."""
        out = str(tmp_path)
        write_artifact(out, make_doc("aaaa000011112222", status="ok"))
        write_artifact(out, make_doc("bbbb000011112222", status="error"))
        SWEEP_LEDGER.prune(out)
        assert SWEEP_LEDGER.resume(out, "aaaa000011112222") is not None
        assert not os.path.exists(SWEEP_LEDGER.path(out, "bbbb000011112222"))
