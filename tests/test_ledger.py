"""The artifact ledger: documents written by earlier builds still resume.

``tests/fixtures/ledger/`` holds three artifacts written before the
sweep, chaos and congest ledgers shared one implementation:

* ``94a229f22caeffdd.json`` — ``sweep --probe storage --axis scale=0.1``;
* ``chaos-c7ad35d17d64bf64.json`` — ``chaos --scaled 8 4 4 --hours 48``;
* ``congest-20ae383396dc03f0.json`` —
  ``congest --scaled 8 4 4 --horizon-us 150``.

Each must resume through today's code without a recompute, and a
tampered copy of each must not be trusted.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from repro import obs
from repro.chaos import CHAOS_LEDGER, ChaosConfig, run_chaos_cached
from repro.core.scenario import frontier_spec
from repro.fabric.congest import (CONGEST_LEDGER, CongestConfig,
                                  run_congest_cached)
from repro.sweep import SWEEP_LEDGER, SweepConfig, SweepPlan, run_sweep

FIXTURES = Path(__file__).parent / "fixtures" / "ledger"

SWEEP_ID = "94a229f22caeffdd"
CHAOS_ID = "c7ad35d17d64bf64"
CONGEST_ID = "20ae383396dc03f0"

SCALED = frontier_spec().scaled(8, 4, 4)
CHAOS_CONFIG = ChaosConfig(horizon_h=48.0)
CONGEST_CONFIG = CongestConfig(horizon_s=150 * 1e-6)


@pytest.fixture()
def ledger_dir(tmp_path) -> Path:
    """A scratch copy of the committed fixtures."""
    for path in FIXTURES.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    return tmp_path


@pytest.fixture()
def counters():
    obs.reset()
    obs.enable(tracing=False)

    def value(name: str) -> float:
        return obs.registry().snapshot().get(name, {}).get("value", 0.0)

    yield value
    obs.disable()
    obs.reset()


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def _no_recompute(*args, **kwargs):
    raise AssertionError("a trusted artifact was recomputed")


class TestParentArtifactsResume:
    def test_sweep_task(self, ledger_dir, monkeypatch):
        from repro.sweep.probes import SWEEP_PROBES
        monkeypatch.setitem(SWEEP_PROBES, "storage", _no_recompute)
        plan = SweepPlan.grid(frontier_spec(), axes={"scale": (0.1,)},
                              probes=("storage",))
        assert [task.task_id for task in plan.tasks] == [SWEEP_ID]
        summary = run_sweep(plan, SweepConfig(out_dir=str(ledger_dir),
                                              workers=0))
        assert (summary.skipped, summary.run) == (1, 0)
        assert summary.artifacts[SWEEP_ID] == _fixture(f"{SWEEP_ID}.json")

    def test_chaos_run(self, ledger_dir, counters, monkeypatch):
        monkeypatch.setattr("repro.chaos.engine.run_chaos", _no_recompute)
        doc, path, resumed = run_chaos_cached(SCALED, CHAOS_CONFIG,
                                              out_dir=str(ledger_dir))
        assert resumed and Path(path).name == f"chaos-{CHAOS_ID}.json"
        assert doc == _fixture(Path(path).name)
        assert counters("chaos.artifacts_resumed") == 1
        assert counters("chaos.artifacts_written") == 0

    def test_congest_study(self, ledger_dir, counters, monkeypatch):
        monkeypatch.setattr("repro.fabric.congest.run_congest",
                            _no_recompute)
        doc, path, resumed = run_congest_cached(SCALED, CONGEST_CONFIG,
                                                out_dir=str(ledger_dir))
        assert resumed and Path(path).name == f"congest-{CONGEST_ID}.json"
        assert doc == _fixture(Path(path).name)
        assert counters("fabric.timeflow.artifacts_resumed") == 1
        assert counters("fabric.timeflow.artifacts_written") == 0


#: (ledger, fixture id) of each committed artifact.
KINDS = {
    "sweep": (SWEEP_LEDGER, SWEEP_ID),
    "chaos": (CHAOS_LEDGER, CHAOS_ID),
    "congest": (CONGEST_LEDGER, CONGEST_ID),
}

FOREIGN_ID = "0123456789abcdef"


def _tampered(ledger, doc_id: str) -> dict[str, dict]:
    """Three untrustworthy copies of a fixture, keyed by how they fail."""
    doc = json.loads(Path(ledger.path(str(FIXTURES), doc_id)).read_text())
    wrong_schema = dict(doc, schema=ledger.schema + 1)
    failed = dict(doc, status="error")
    return {"wrong_schema": wrong_schema, "failed": failed,
            "foreign": doc}


@pytest.mark.parametrize("kind", sorted(KINDS))
class TestTrust:
    def test_tampered_copies_are_not_trusted(self, kind, tmp_path):
        ledger, doc_id = KINDS[kind]
        copies = _tampered(ledger, doc_id)
        out = str(tmp_path)
        for how, doc in copies.items():
            # the foreign copy sits under another id's file name
            name = FOREIGN_ID if how == "foreign" else doc_id
            Path(ledger.path(out, name)).write_text(json.dumps(doc))
            assert ledger.resume(out, name) is None, how
            if how != "failed":
                assert ledger.load(out, name) is None, how
        # an error document is trusted as a record, never as a result
        assert ledger.load(out, doc_id)["status"] == "error"

    def test_prune_removes_untrusted_and_keeps_unparseable(self, kind,
                                                           tmp_path):
        ledger, doc_id = KINDS[kind]
        copies = _tampered(ledger, doc_id)
        out = str(tmp_path)
        for name, how in ((doc_id, "failed"), (FOREIGN_ID, "foreign"),
                          ("5555aaaa5555aaaa", "wrong_schema")):
            Path(ledger.path(out, name)).write_text(json.dumps(copies[how]))
        # an id-shaped name: the ledger reads it, finds no JSON, keeps it
        truncated = Path(ledger.path(out, "7777bbbb7777bbbb"))
        truncated.write_text('{"schema": 1,')
        # not an id: the ledger does not look at it at all
        foreign = Path(ledger.path(out, "notes"))
        foreign.write_text(json.dumps(copies["wrong_schema"]))
        report = ledger.prune(out)
        assert (report.scanned, report.errors, report.stale,
                report.unreadable, report.kept) == (4, 1, 2, 1, 0)
        assert sorted(os.listdir(out)) == sorted([truncated.name,
                                                  foreign.name])

    def test_prune_keeps_the_trusted_fixture(self, kind, tmp_path):
        ledger, doc_id = KINDS[kind]
        shutil.copy(ledger.path(str(FIXTURES), doc_id),
                    ledger.path(str(tmp_path), doc_id))
        report = ledger.prune(str(tmp_path))
        assert (report.kept, report.removed) == (1, 0)
