"""Serve under chaos: a probe dying mid-batch must not poison the service.

The failure contract, end to end: a worker raising inside a batch yields
a structured error response for that request only, the error artifact is
persisted to the disk ledger (an audit trail), the cache never admits it
(the next identical request re-evaluates instead of replaying the
failure), and the service still drains cleanly afterwards.  Same
``asyncio.run``-per-test idiom as ``test_service.py``.
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.core.scenario import frontier_spec
from repro.serve import ScenarioRequest, ScenarioService, ServeConfig
from repro.sweep.artifacts import SWEEP_LEDGER

SMALL = frontier_spec().scaled(6, 4, 4)


def request(probe="storage", seed=0, rid=""):
    return ScenarioRequest(probe=probe, spec=SMALL, seed=seed, id=rid)


def make_service(tmp_path, **kw):
    kw.setdefault("out_dir", str(tmp_path / "ledger"))
    kw.setdefault("workers", 0)
    kw.setdefault("batch_window_s", 60.0)
    return ScenarioService(ServeConfig(**kw))


class TestFailureMidBatch:
    def test_one_dying_probe_does_not_poison_its_batch_mates(self, tmp_path):
        async def run():
            service = make_service(tmp_path)
            await service.start()
            futs = [service.submit(request(seed=i)) for i in range(3)]
            futs.append(service.submit(request(probe="failing", rid="boom")))
            await service.flush()
            responses = await asyncio.gather(*futs)
            await service.drain()
            return responses

        responses = asyncio.run(run())
        healthy = [r for r in responses if r.id != "boom"]
        (failed,) = [r for r in responses if r.id == "boom"]
        assert all(r.ok for r in healthy)
        assert failed.status == "error"
        assert failed.error["type"] == "RuntimeError"

    def test_error_artifact_persisted_but_never_cached(self, tmp_path):
        async def run():
            service = make_service(tmp_path)
            await service.start()
            first = service.submit(request(probe="failing"))
            await service.flush()
            again = service.submit(request(probe="failing"))
            await service.flush()
            await service.drain()
            return await first, await again

        first, again = asyncio.run(run())
        assert first.status == "error"
        # the ledger keeps the structured failure for post-mortems...
        path = SWEEP_LEDGER.path(str(tmp_path / "ledger"), first.task_id)
        assert os.path.exists(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["status"] == "error"
        assert doc["error"]["type"] == "RuntimeError"
        # ...but the cache refused it: the second ask re-evaluated
        assert again.status == "error"
        assert not again.cached

    def test_transient_failure_recovers_on_the_next_request(
            self, tmp_path, monkeypatch):
        """The flaky probe fails once then succeeds: because errors are
        never cached, the *next request* (not a same-task retry) gets the
        recovered evaluation."""
        monkeypatch.setenv("REPRO_SWEEP_FLAKY_DIR", str(tmp_path))

        async def run():
            service = make_service(tmp_path)
            await service.start()
            first = service.submit(request(probe="flaky"))
            await service.flush()
            second = service.submit(request(probe="flaky"))
            await service.flush()
            third = service.submit(request(probe="flaky"))
            await service.flush()
            await service.drain()
            return await first, await second, await third

        first, second, third = asyncio.run(run())
        assert first.status == "error"
        assert second.ok and not second.cached   # re-evaluated, recovered
        assert third.ok and third.cached         # ok docs do cache

    def test_drain_is_clean_after_a_failed_batch(self, tmp_path):
        """The SIGTERM path (serve's signal handler awaits drain()): a
        batch failure must leave nothing that wedges the shutdown."""
        async def run():
            service = make_service(tmp_path)
            await service.start()
            doomed = service.submit(request(probe="failing"))
            pending = service.submit(request(seed=5))
            await service.drain()    # answers both, then sheds new work
            late = service.submit(request(seed=6))
            return await doomed, await pending, await late

        doomed, pending, late = asyncio.run(run())
        assert doomed.status == "error"
        assert pending.ok
        assert late.status == "shed"
