"""The perf-ledger builder (``benchmarks/ledger.py``).

Fed the per-run values of the first ledger entry, ``BENCH_20.json``
(assembled before the tool existed), it must reproduce that entry's
statistics; it must also pair runs by seed, count the pairs the change
won in the metric's own direction, and keep the traced layers asked for.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location(
        "bench_ledger", ROOT / "benchmarks" / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench20():
    return json.loads((ROOT / "benchmarks" / "BENCH_20.json").read_text())


def _line(side, workload, seed, metrics, *, trace=0, correct=True):
    return {"side": side, "workload": workload, "seed": seed,
            "seconds": 16.0, "trace": trace,
            "result": {"correct": correct, "attempted": 1, "failed": 0,
                       "metrics": {name: {"value": value, "unit": "-"}
                                   for name, value in metrics.items()}}}


def _lines_from(entry, workload):
    """Tagged result lines carrying an entry's per-run values."""
    doc = entry["workloads"][workload]
    lines = []
    for k, seed in enumerate(doc["seeds"]):
        for side in ("change", "parent") if seed % 2 else ("parent",
                                                            "change"):
            lines.append(_line(side, workload, seed, {
                name: m[side]["runs"][k]
                for name, m in doc["end_to_end"].items()}))
    return lines


def test_reproduces_the_first_ledger_entry(ledger, bench20):
    better = ledger._better()
    for workload in bench20["workloads"]:
        built = ledger.build(_lines_from(bench20, workload), title="t",
                             parent_rev="p", host="h", better=better,
                             layers=())
        want = bench20["workloads"][workload]
        got = built["workloads"][workload]
        assert got["seeds"] == want["seeds"]
        assert got["correct"] == {"parent": True, "change": True}
        for name, metric in want["end_to_end"].items():
            mine = got["end_to_end"][name]
            assert mine["better"] == metric["better"]
            assert mine["pairs_change_better"] == metric["pairs_change_better"]
            for side in ("parent", "change"):
                assert mine[side]["runs"] == metric[side]["runs"]
                # the runs are stored to six digits, so a statistic may
                # move in the sixth digit of the median's magnitude
                tol = 1e-5 * abs(metric[side]["median"])
                for stat in ("median", "q1", "q3", "iqr"):
                    assert mine[side][stat] == pytest.approx(
                        metric[side][stat], abs=tol)
            assert mine["change_over_parent"] == pytest.approx(
                metric["change_over_parent"], rel=1e-4)


def test_pairs_by_seed_and_keeps_traced_layers(ledger):
    better = {"setup_s": "lower", "throughput_per_s": "higher"}
    lines = [
        _line("parent", "w", 1, {"setup_s": 2.0, "throughput_per_s": 10.0}),
        _line("change", "w", 1, {"setup_s": 1.0, "throughput_per_s": 12.0}),
        _line("parent", "w", 2, {"setup_s": 1.0, "throughput_per_s": 10.0}),
        _line("change", "w", 2, {"setup_s": 3.0, "throughput_per_s": 9.0}),
        # a seed run on one side only is not a pair
        _line("change", "w", 3, {"setup_s": 0.1, "throughput_per_s": 99.0},
              correct=False),
        _line("parent", "w", 9, {"fabric.timeflow.loop_s": 2.0,
                                 "other.layer_s": 1.0}, trace=1),
        _line("change", "w", 9, {"fabric.timeflow.loop_s": 1.5,
                                 "other.layer_s": 1.0}, trace=1),
    ]
    entry = ledger.build(lines, title="t", parent_rev="p", host="h",
                         better=better, layers=("fabric.timeflow.",))
    doc = entry["workloads"]["w"]
    assert doc["seeds"] == [1, 2]
    assert doc["end_to_end"]["setup_s"]["pairs_change_better"] == "1/2"
    assert doc["end_to_end"]["throughput_per_s"]["pairs_change_better"] \
        == "1/2"
    assert doc["end_to_end"]["setup_s"]["change"]["runs"] == [1.0, 3.0]
    assert doc["traced"] == {"seeds": [9],
                             "parent": {"fabric.timeflow.loop_s": [2.0]},
                             "change": {"fabric.timeflow.loop_s": [1.5]}}
    # every run of a side counts toward its correctness, paired or not
    assert doc["correct"] == {"parent": True, "change": False}
    assert "--seconds 16 " in entry["command"]
