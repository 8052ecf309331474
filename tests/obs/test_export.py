"""JSON exporter round-trip, atomic writes, and table rendering."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.export import (collapsed_stacks, export_state, render_collapsed,
                              render_metrics, render_trace, write_json)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.reporting import metrics_table, spans_table


def _populated():
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry(enabled=True)
    with tracer.span("outer", phase="solve"):
        with tracer.span("inner"):
            registry.counter("fabric.paths_computed").inc(12)
    registry.gauge("scheduler.queue_depth").set(3)
    registry.histogram("fabric.link_utilisation").observe_many([0.2, 0.9])
    return tracer, registry


class TestJsonRoundTrip:
    def test_export_survives_json_round_trip(self):
        tracer, registry = _populated()
        doc = export_state(tracer, registry, context={"run": "unit-test"})
        restored = json.loads(json.dumps(doc))
        assert restored == doc
        assert restored["schema"] == 1
        assert restored["context"]["run"] == "unit-test"
        assert restored["spans"][0]["name"] == "outer"
        assert restored["spans"][0]["children"][0]["name"] == "inner"
        assert restored["metrics"]["fabric.paths_computed"]["value"] == 12.0
        assert restored["metrics"]["fabric.link_utilisation"]["count"] == 2

    def test_write_json_is_atomic_and_loadable(self, tmp_path):
        tracer, registry = _populated()
        path = str(tmp_path / "nested" / "metrics.json")
        out = write_json(path, export_state(tracer, registry))
        assert out == path
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["metrics"]["scheduler.queue_depth"]["value"] == 3.0
        # no stray temp files left behind
        assert os.listdir(os.path.dirname(path)) == ["metrics.json"]

    def test_write_json_bytes_match_one_json_dump(self, tmp_path):
        doc = {"b": [1.5, float("inf"), {"z": None, "a": "x"}], "a": 1}
        path = write_json(str(tmp_path / "doc.json"), doc)
        with open(path) as fh:
            written = fh.read()
        assert written == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_unserialisable_document_writes_nothing(self, tmp_path):
        doc: dict = {"schema": 1}
        doc["self"] = doc
        with pytest.raises(ValueError):
            write_json(str(tmp_path / "doc.json"), doc)
        assert os.listdir(tmp_path) == []

    def test_write_json_overwrites_previous_document(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        write_json(path, {"schema": 1, "marker": "first"})
        write_json(path, {"schema": 1, "marker": "second"})
        with open(path) as fh:
            assert json.load(fh)["marker"] == "second"


class TestHumanTables:
    def test_render_metrics_lists_every_instrument(self):
        _, registry = _populated()
        text = render_metrics(registry)
        for name in ("fabric.paths_computed", "scheduler.queue_depth",
                     "fabric.link_utilisation"):
            assert name in text

    def test_render_trace_indents_children(self):
        tracer, _ = _populated()
        text = render_trace(tracer)
        assert "outer" in text
        assert "  inner" in text
        assert "phase=solve" in text

    def test_tables_render_from_exported_dicts(self):
        tracer, registry = _populated()
        doc = json.loads(json.dumps(export_state(tracer, registry)))
        assert "outer" in spans_table(doc["spans"]).render()
        assert "fabric.paths_computed" in metrics_table(doc["metrics"]).render()


class TestCollapsedStacks:
    def test_stacks_are_semicolon_joined_and_weights_are_self_time(self):
        tracer, _ = _populated()
        stacks = collapsed_stacks(tracer)
        assert set(stacks) == {"outer", "outer;inner"}
        outer = next(s for s in tracer.roots if s.name == "outer")
        inner = outer.children[0]
        assert stacks["outer;inner"] == round(inner.duration_s * 1e6)
        expected_self = round(
            max(0.0, outer.duration_s - inner.duration_s) * 1e6)
        assert stacks["outer"] == expected_self

    def test_repeated_stacks_accumulate(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("solve"):
                pass
        stacks = collapsed_stacks(tracer)
        assert set(stacks) == {"solve"}
        total = round(sum(r.duration_s for r in tracer.roots) * 1e6)
        assert abs(stacks["solve"] - total) <= 3  # per-span rounding

    def test_render_is_flamegraph_pl_format(self):
        tracer, _ = _populated()
        for line in render_collapsed(tracer).splitlines():
            stack, _, weight = line.rpartition(" ")
            assert stack and weight.isdigit()

    def test_empty_tracer_renders_nothing(self):
        assert render_collapsed(Tracer(enabled=True)) == ""
