"""Exporters: observability state -> JSON document or human tables.

The JSON document is the interchange format consumed by the benchmark
harness (``benchmarks/out/metrics.json``), the regression gate, and CI
artifact uploads; the tables are what ``python -m repro trace/metrics``
print.  Writes are atomic (temp file + ``os.replace``) so a crashed run
cannot leave a truncated document behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.reporting import metrics_table, spans_table

__all__ = ["export_state", "write_json", "render_metrics", "render_trace",
           "collapsed_stacks", "render_collapsed", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


def export_state(tracer: Tracer, registry: MetricsRegistry,
                 context: dict[str, Any] | None = None) -> dict[str, Any]:
    """One JSON-friendly document holding spans, metrics, and run context."""
    doc: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "spans": tracer.export(),
        "metrics": registry.snapshot(),
    }
    if context:
        doc["context"] = dict(context)
    return doc


def _json_default(value: Any) -> Any:
    if value in (float("inf"), float("-inf")):
        return str(value)
    return str(value)


def write_json(path: str, document: dict[str, Any]) -> str:
    """Atomically serialise a document to ``path``; returns the path."""
    # one dumps and one write: json.dump issues a write per token
    text = json.dumps(document, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".metrics-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def render_metrics(registry: MetricsRegistry,
                   title: str = "Metrics") -> str:
    """Human table of the registry's current state."""
    return metrics_table(registry.snapshot(), title=title).render()


def render_trace(tracer: Tracer, title: str = "Trace") -> str:
    """Human table of the tracer's finished span trees."""
    return spans_table(tracer.export(), title=title).render()


def collapsed_stacks(tracer: Tracer) -> dict[str, int]:
    """Fold the span trees into collapsed flamegraph stacks.

    Returns ``{"root;child;grandchild": self_time_microseconds}`` — the
    format Brendan Gregg's ``flamegraph.pl`` and speedscope ingest.  The
    weight of each stack is *self* time (span duration minus the time
    covered by its children) so the flamegraph's widths add up.
    """
    stacks: dict[str, int] = {}

    def fold(span, prefix: str) -> None:
        stack = f"{prefix};{span.name}" if prefix else span.name
        child_s = sum(c.duration_s for c in span.children)
        self_us = round(max(0.0, span.duration_s - child_s) * 1e6)
        stacks[stack] = stacks.get(stack, 0) + self_us
        for child in span.children:
            fold(child, stack)

    for root in tracer.roots:
        fold(root, "")
    return stacks


def render_collapsed(tracer: Tracer) -> str:
    """Collapsed stacks as ``flamegraph.pl`` input lines."""
    stacks = collapsed_stacks(tracer)
    return "\n".join(f"{stack} {weight}" for stack, weight in stacks.items())
