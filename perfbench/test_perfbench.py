"""Self-tests of the benchmark: metric tables, failure accounting, oracles.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs at the ``tiny`` size (a reduced machine, one-second
budget) through ``run.py``, the command ``BENCHMARK.json`` names.  The
two oracles run in-process: an ensemble column of the full-machine
``fabric-full`` engine against the scalar ``engine.run(cfg)``, and a
sample of served values against ``run_local``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from harness import END_TO_END_UNITS, Checks  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from run import WORKLOAD_METRICS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(workload: str, *extra: str, seed: int = 3, trace: int = 0):
    """Run ``run.py`` at the tiny size; (exit code, result, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), lines


def detail(lines: list[str]) -> dict:
    return json.loads(next(line for line in lines
                           if line.startswith("detail "))[len("detail "):])


def test_benchmark_json_lists_the_runner_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_metric_with_its_unit(workload):
    code, result, lines = bench(workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    named = {line.split()[1]: line.split()[3] for line in lines
             if line.startswith("metric ")}
    assert named == WORKLOAD_METRICS[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    code, result, lines = bench(workload, trace=1)
    assert code == 0 and result["correct"]
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == PER_LAYER_UNITS
    assert all(layers[f"trace_overhead.{name}"] > 0 for name in END_TO_END_UNITS)
    if workload == "fabric-full":
        for name in ("fabric.dragonfly.build_s", "fabric.batchroute.plan_s",
                     "fabric.maxmin.solve_s", "fabric.network.self_s",
                     "fabric.timeflow.init_s", "fabric.timeflow.loop_s"):
            assert layers[name] > 0, name
        assert layers["fabric.timeflow.steps"] > 0
        assert layers["fabric.maxmin.iterations"] > 0
    elif workload == "chaos-heal-full":
        for call in ("submit", "fail_node", "resume", "free_nodes"):
            assert layers[f"scheduler.slurm.{call}_calls"] > 0, call
        assert layers["scheduler.placement.place_job_calls"] > 0
        assert layers["chaos.heal.take_calls"] > 0
        assert layers["chaos.events.count"] > 0
        assert layers["chaos.artifacts_resumed"] == 0
        assert 0 < layers["chaos.heal.replace_ratio"] <= 1
    else:
        seen = detail(lines)
        assert layers["serve.batches"] == seen["observed_batches"]
        assert layers["serve.coalesced"] == seen["observed_coalesced"]
        assert layers["serve.ensemble_batches"] \
            == seen["expected_ensemble_batches"]
        assert layers["serve.cache_hits_disk"] == 0
        assert layers["serve.latency_samples"] == seen["latency_samples"]
        for probe in ("mpigraph", "congest", "congest_ensemble", "chaos"):
            assert layers[f"sweep.probes.{probe}_s"] > 0, probe
        assert layers["fabric.timeflow.scalar_runs"] > 0


def test_failing_probe_request_counts_as_failed():
    code, result, lines = bench("serve-mix", "--inject-failing")
    assert code == 0 and result["correct"]
    assert result["failed"] == 1
    plain = detail(bench("serve-mix")[2])
    assert result["attempted"] == plain["observed_requests"] + 1


def test_tampered_reference_digest_fails_the_run(tmp_path):
    with open(os.path.join(HERE, "digests.json")) as fh:
        pinned = json.load(fh)
    good = pinned["tiny"]["chaos-heal-full"]
    pinned["tiny"]["chaos-heal-full"] = good[::-1]
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(pinned))
    code, result, _ = bench("chaos-heal-full", "--digests", str(tampered))
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_seeded_outputs_and_serve_counts_repeat_across_processes():
    first, second = bench("serve-mix", seed=11)[2], bench("serve-mix", seed=11)[2]
    digest = [line for line in first if line.startswith("digest ")]
    assert digest == [line for line in second if line.startswith("digest ")]
    counts = ("observed_evaluations", "observed_batches",
              "observed_coalesced", "observed_hits")
    a, b = detail(first), detail(second)
    assert [a[k] for k in counts] == [b[k] for k in counts]
    assert all(a[k] > 0 for k in counts)


def test_full_serve_stream_is_mostly_cache_hits(tmp_path):
    from wl_serve import ServeMix
    workload = ServeMix("full", seed=11, seconds=BENCHMARK["run_seconds"],
                        workdir=str(tmp_path))
    workload.setup()
    workload.close()
    expected = workload.expected
    assert expected["hits"] > expected["requests"] / 2
    assert expected["coalesced"] > 0 and expected["ensemble_batches"] > 0
    assert max(len(wave) for wave in workload.waves) \
        <= workload.service.config.queue_depth


def test_ensemble_column_equals_scalar_run_on_the_full_fabric():
    from wl_fabric import DT_S, HORIZON_S, WARMUP_S, FabricFull
    workload = FabricFull("full", seed=0, seconds=1.0)
    workload.setup()
    ecn = workload.config_type(dt_s=DT_S, horizon_s=HORIZON_S, ecn=True,
                               ecn_k=30.0, warmup_s=WARMUP_S)
    configs = [workload.fifo, ecn]
    columns = workload.engine.run_ensemble(configs)
    for config, column in zip(configs, columns):
        scalar = workload.engine.run(config)
        # JSON text: bit-exact float reprs, and NaN compares equal to NaN
        assert json.dumps(column.to_doc(), sort_keys=True) \
            == json.dumps(scalar.to_doc(), sort_keys=True)
        assert np.array_equal(column.mean_rates, scalar.mean_rates)
        for name, samples in scalar.fct_samples.items():
            assert np.array_equal(column.fct_samples[name], samples)


class _WallClock:
    """A run speed that leaves wall time as it is (no probe bursts)."""

    @staticmethod
    def burst() -> None:
        pass

    @staticmethod
    def factor() -> float:
        return 1.0


def test_served_values_equal_run_local(tmp_path):
    from repro.serve import ScenarioRequest, run_local
    from repro.serve.protocol import decode_line
    from wl_serve import ServeMix
    workload = ServeMix("tiny", seed=5, seconds=1.0, workdir=str(tmp_path))
    workload.setup()
    try:
        checks = Checks()
        workload.measure(checks, _WallClock())
    finally:
        workload.close()
    assert checks.failures == []
    requests = {}
    for wave in workload.waves:
        for _, line in wave:
            request = ScenarioRequest.from_wire(decode_line(line))
            requests.setdefault(request.task().task_id, request)
    congest = [tid for tid, r in requests.items() if r.probe == "congest"]
    sample = congest + [tid for tid, r in requests.items()
                        if r.probe != "congest"][:6]
    for tid in sample:
        local = run_local(requests[tid])
        assert local.ok and local.values == workload.values_by_task[tid], tid
