"""Every request path gives one answer.

For each probe a served workload sends (``mpigraph``, ``comm``,
``storage``, ``placement``, ``chaos``, ``heal``, ``compare``, and a
``congest`` trio: FIFO plus two ECN thresholds on one scenario), on
several scaled specs and seeds, these paths give byte-identical
``values`` JSON:

* :func:`repro.sweep.runner.execute_task`, what a sweep worker runs;
* :func:`repro.serve.run_local`, the cold path of ``query --local``;
* an in-process :class:`~repro.serve.ScenarioService` (``workers=0``)
  answering over TCP, where the trio batches into one ensemble;
* for the trio, :func:`repro.sweep.probes.evaluate_congest_ensemble`.

The ``--json`` documents of the study verbs equal their study
functions' documents: ``chaos`` is :func:`repro.chaos.run_chaos`,
``congest`` is :func:`repro.fabric.congest.run_congest`, ``congest
--backoffs`` is :func:`~repro.fabric.congest.run_congest_grid` and
``compare`` is :func:`repro.core.compare.compare_machines`.

Verbs with no probe twin, and why:

* ``chaos`` runs the configuration its flags give (horizon, costs,
  blasts, heal policy) and returns the whole document; the ``chaos`` and
  ``heal`` probes run a fixed 24 h horizon with fabric measurement off
  and reduce it to scalars;
* ``congest`` runs the k-sweep study: FIFO plus every ``--k`` arm, with
  a warmup of a third of the horizon (``9.999999999999999e-05`` s at the
  default 300 us).  The probe runs the one arm its spec's ``congestion``
  block names, with a ``1e-4`` s warmup, so the two answer different
  questions; merging them would move served values and their pins;
* ``compare`` tabulates every family in full; the probe scores one
  spec's family at that spec's node count;
* ``mpigraph`` seeds its routing jitter with ``--seed`` itself; the probe
  draws from the task's derived stream, so equal seeds are not equal
  inputs;
* the report verbs and ``scenario`` evaluate no spec-parameterised study.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

import pytest

from repro import obs
from repro.__main__ import main
from repro.core.scenario import CongestionSpec, frontier_spec
from repro.serve import ScenarioRequest, ScenarioService, ServeConfig, query, run_local
from repro.sweep.probes import evaluate_congest_ensemble
from repro.sweep.runner import execute_task

PROBES = ("mpigraph", "comm", "storage", "placement", "chaos", "heal",
          "compare")
#: The congest trio: one scenario, three control laws (one ensemble key).
TRIO = ({"ecn": False}, {"ecn_k": 10}, {"ecn_k": 30})
CASES = [((6, 4, 4), 0), ((8, 4, 4), 3), ((4, 8, 4), 11)]


def _requests(dims, seed) -> list[ScenarioRequest]:
    spec = frontier_spec().scaled(*dims)
    reqs = [ScenarioRequest(probe=p, spec=spec, seed=seed, id=p)
            for p in PROBES]
    reqs += [ScenarioRequest(
        probe="congest", id=f"congest-{i}", seed=seed,
        spec=replace(spec, congestion=CongestionSpec(**knobs)))
        for i, knobs in enumerate(TRIO)]
    return reqs


def _values(values: dict) -> str:
    return json.dumps(values, sort_keys=True)


def _served(reqs, out_dir) -> tuple[list, dict]:
    """The service's answers, and its metrics (one coalescing tick)."""
    async def run():
        service = ScenarioService(ServeConfig(out_dir=out_dir, workers=0,
                                              batch_window_s=0.05))
        await service.start()
        server = await service.serve_tcp()
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await query(host, port, reqs)
        finally:
            server.close()
            await server.wait_closed()
            await service.drain()

    obs.reset()
    obs.enable(tracing=False)
    try:
        return asyncio.run(run()), obs.registry().snapshot()
    finally:
        obs.disable()
        obs.reset()


@pytest.mark.parametrize("dims, seed", CASES)
def test_every_path_gives_the_same_values(dims, seed, tmp_path):
    reqs = _requests(dims, seed)
    tasks = [req.task() for req in reqs]
    direct = [_values(execute_task(t, isolate_obs=False)["values"])
              for t in tasks]
    assert [_values(run_local(req).values) for req in reqs] == direct
    served, metrics = _served(reqs, str(tmp_path / "ledger"))
    assert metrics["serve.ensemble_tasks"]["value"] == len(TRIO)
    assert all(r.ok and not r.cached for r in served)
    assert [_values(r.values) for r in served] == direct
    trio = tasks[len(PROBES):]
    ensemble = evaluate_congest_ensemble(trio, isolate_obs=False)
    assert [_values(ensemble[t.task_id]["values"]) for t in trio] \
        == direct[len(PROBES):]


def _json_of(argv, capsys) -> str:
    assert main(argv) == 0
    return json.dumps(json.loads(capsys.readouterr().out), sort_keys=True)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def test_chaos_json_is_the_study_document(tmp_path, capsys):
    from repro.chaos import ChaosConfig, run_chaos
    spec = frontier_spec().scaled(8, 4, 4)
    spec = replace(spec, degradation=replace(spec.degradation,
                                             failure_scale=200.0))
    doc = run_chaos(spec, ChaosConfig(horizon_h=48.0, seed=0)).to_doc()
    assert _json_of(["chaos", "--scaled", "8", "4", "4", "--seed", "0",
                     "--hours", "48", "--failure-scale", "200",
                     "--out", str(tmp_path), "--json"], capsys) == _dumps(doc)


CONGEST_ARGV = ["congest", "--scaled", "8", "4", "4", "--seed", "0",
                "--k", "10,60", "--horizon-us", "150"]


def _congest_config():
    from repro.fabric.congest import CongestConfig
    return CongestConfig(ks=(10, 60), horizon_s=150.0 * 1e-6, seed=0)


def test_congest_json_is_the_study_document(tmp_path, capsys):
    from repro.fabric.congest import run_congest
    doc = run_congest(frontier_spec().scaled(8, 4, 4), _congest_config())
    assert _json_of([*CONGEST_ARGV, "--out", str(tmp_path), "--json"],
                    capsys) == _dumps(doc)


def test_congest_grid_json_is_the_grid_document(capsys):
    from repro.fabric.congest import run_congest_grid
    doc = run_congest_grid(frontier_spec().scaled(8, 4, 4), _congest_config(),
                           backoffs=(0.25, 0.75))
    assert _json_of([*CONGEST_ARGV, "--backoffs", "0.25,0.75", "--json"],
                    capsys) == _dumps(doc)


def test_compare_json_is_the_study_document(capsys):
    from repro.core.compare import compare_machines
    doc = compare_machines(("frontier", "summit", "aurora"))
    assert _json_of(["compare", "--json"], capsys) == _dumps(doc)
