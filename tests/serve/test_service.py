"""The service loop: batching, caching, shedding, timeouts, drain, TCP.

No pytest-asyncio in the container: each test drives its own event loop
with ``asyncio.run``.  Services run with ``workers=0`` (inline in a
thread) except the one pool test, and with manual ``flush()`` instead of
waiting on the ticker wherever determinism matters.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.core.scenario import frontier_spec
from repro.serve import (ScenarioRequest, ScenarioService, ServeConfig,
                         query, run_local)
from repro.serve.protocol import decode_line, encode_line

SMALL = frontier_spec().scaled(6, 4, 4)


def request(probe="storage", seed=0, rid="", timeout_s=None):
    return ScenarioRequest(probe=probe, spec=SMALL, seed=seed, id=rid,
                           timeout_s=timeout_s)


def make_service(tmp_path, **kw):
    kw.setdefault("out_dir", str(tmp_path / "ledger"))
    kw.setdefault("workers", 0)
    # A long window: tests that want determinism flush() by hand.
    kw.setdefault("batch_window_s", 60.0)
    return ScenarioService(ServeConfig(**kw))


async def started(tmp_path, **kw):
    service = make_service(tmp_path, **kw)
    await service.start()
    return service


class TestSubmitFlush:
    def test_batch_answers_every_request(self, tmp_path):
        async def run():
            service = await started(tmp_path)
            futs = [service.submit(request(seed=i)) for i in range(4)]
            await service.flush()
            responses = await asyncio.gather(*futs)
            await service.drain()
            return responses

        responses = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert all(r.batch_size == 4 for r in responses)
        assert all(not r.cached for r in responses)
        assert len({r.task_id for r in responses}) == 4

    def test_identical_requests_coalesce_to_one_evaluation(self, tmp_path):
        async def run():
            obs.enable(tracing=False)
            service = await started(tmp_path)
            futs = [service.submit(request(seed=7)) for _ in range(5)]
            await service.flush()
            responses = await asyncio.gather(*futs)
            await service.drain()
            return responses, obs.registry().snapshot()

        responses, snap = asyncio.run(run())
        assert all(r.ok for r in responses)
        assert len({r.task_id for r in responses}) == 1
        assert snap["serve.batches"]["value"] == 1.0
        assert snap["serve.coalesced"]["value"] == 4.0

    def test_second_submit_is_a_cache_hit(self, tmp_path):
        async def run():
            service = await started(tmp_path)
            first = service.submit(request(seed=1))
            await service.flush()
            again = service.submit(request(seed=1))
            responses = await asyncio.gather(first, again)
            await service.drain()
            return responses

        first, again = asyncio.run(run())
        assert not first.cached and again.cached
        assert again.values == first.values
        assert again.task_id == first.task_id

    def test_ledger_survives_restart(self, tmp_path):
        """The disk level: a new service instance (fresh memory) answers
        from the artifacts the previous one wrote."""
        async def run(expect_cached):
            service = await started(tmp_path)
            fut = service.submit(request(seed=2))
            await service.flush()
            response = await fut
            await service.drain()
            assert response.cached is expect_cached
            return response

        cold = asyncio.run(run(False))
        warm = asyncio.run(run(True))
        assert warm.values == cold.values

    def test_probe_error_is_a_structured_response(self, tmp_path):
        async def run():
            service = await started(tmp_path)
            fut = service.submit(request(probe="failing"))
            await service.flush()
            response = await fut
            # errors are not cached: the next ask re-evaluates
            again = service.submit(request(probe="failing"))
            await service.flush()
            await service.drain()
            return response, await again

        response, again = asyncio.run(run())
        assert response.status == "error"
        assert response.error["type"] == "RuntimeError"
        assert again.status == "error" and not again.cached

    def test_ticker_flushes_without_manual_flush(self, tmp_path):
        async def run():
            service = await started(tmp_path, batch_window_s=0.01)
            response = await asyncio.wait_for(
                service.submit(request(seed=3)), timeout=10.0)
            await service.drain()
            return response

        assert asyncio.run(run()).ok


class TestBackpressure:
    def test_overflow_sheds_with_429(self, tmp_path):
        async def run():
            obs.enable(tracing=False)
            service = await started(tmp_path, queue_depth=2)
            futs = [service.submit(request(seed=i)) for i in range(5)]
            shed = [f for f in futs if f.done()]
            await service.flush()
            responses = await asyncio.gather(*futs)
            await service.drain()
            return responses, len(shed), obs.registry().snapshot()

        responses, shed_immediately, snap = asyncio.run(run())
        shed = [r for r in responses if r.status == "shed"]
        served = [r for r in responses if r.ok]
        assert len(shed) == 3 and len(served) == 2
        assert shed_immediately == 3   # refused synchronously, not queued
        assert all(r.error["code"] == 429 for r in shed)
        assert snap["serve.shed"]["value"] == 3.0

    def test_queue_drains_then_admits_again(self, tmp_path):
        async def run():
            service = await started(tmp_path, queue_depth=1)
            first = service.submit(request(seed=0))
            await service.flush()
            second = service.submit(request(seed=1))
            await service.flush()
            responses = await asyncio.gather(first, second)
            await service.drain()
            return responses

        assert all(r.ok for r in asyncio.run(run()))

    def test_per_request_timeout_expires_in_queue(self, tmp_path):
        async def run():
            service = await started(tmp_path)
            doomed = service.submit(request(seed=0, timeout_s=0.01))
            patient = service.submit(request(seed=1))
            await asyncio.sleep(0.05)
            await service.flush()
            responses = await asyncio.gather(doomed, patient)
            await service.drain()
            return responses

        doomed, patient = asyncio.run(run())
        assert doomed.status == "timeout"
        assert doomed.error["type"] == "TimeoutError"
        assert patient.ok


class TestDrain:
    def test_drain_answers_pending_then_sheds(self, tmp_path):
        async def run():
            service = await started(tmp_path)
            fut = service.submit(request(seed=0))
            await service.drain()
            late = service.submit(request(seed=9))
            return await fut, await late

        answered, late = asyncio.run(run())
        assert answered.ok
        assert late.status == "shed"

    def test_drain_on_idle_service_is_clean(self, tmp_path):
        async def run():
            service = await started(tmp_path)
            await service.drain()

        asyncio.run(run())


class TestWorkerPool:
    def test_pool_path_merges_worker_metrics(self, tmp_path):
        async def run():
            obs.enable(tracing=False)
            service = await started(tmp_path, workers=1)
            futs = [service.submit(request(seed=i)) for i in range(2)]
            await service.flush()
            responses = await asyncio.gather(*futs)
            await service.drain()
            return responses, obs.registry().snapshot()

        responses, snap = asyncio.run(run())
        assert all(r.ok for r in responses)
        # worker-isolated registries were folded into the service's
        assert any(not name.startswith("serve.") for name in snap)


class TestTcpFrontend:
    def test_query_round_trip_batches_then_caches(self, tmp_path):
        async def run():
            service = await started(tmp_path, batch_window_s=0.01)
            server = await service.serve_tcp()
            host, port = server.sockets[0].getsockname()[:2]
            cold = await query(host, port,
                               [request(seed=i, rid=f"c{i}")
                                for i in range(6)])
            warm = await query(host, port,
                               [request(seed=i, rid=f"w{i}")
                                for i in range(6)])
            server.close()
            await server.wait_closed()
            await service.drain()
            return cold, warm

        cold, warm = asyncio.run(run())
        assert all(r.ok for r in cold + warm)
        assert [r.id for r in cold] == [f"c{i}" for i in range(6)]
        assert max(r.batch_size for r in cold) >= 2
        assert all(r.cached for r in warm)

    def test_bad_lines_answer_400_without_killing_the_connection(
            self, tmp_path):
        async def run():
            service = await started(tmp_path, batch_window_s=0.01)
            server = await service.serve_tcp()
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"garbage\n")
            writer.write(encode_line({"probe": "nope", "id": "bad"}))
            writer.write(encode_line({
                "probe": "storage", "id": "bad-spec",
                "spec": {"congestion": {"bogus": 1}}}))
            writer.write(encode_line(
                request(seed=0, rid="good").to_wire()))
            await writer.drain()
            docs = [decode_line(await asyncio.wait_for(reader.readline(),
                                                       10.0))
                    for _ in range(4)]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.drain()
            return docs

        docs = asyncio.run(run())
        by_id = {doc["id"]: doc for doc in docs}
        assert by_id["good"]["status"] == "ok"
        assert by_id["bad"]["status"] == "error"
        assert by_id["bad"]["error"]["code"] == 400
        assert by_id["bad-spec"]["error"]["code"] == 400
        assert "bogus" in by_id["bad-spec"]["error"]["message"]
        assert by_id[""]["error"]["code"] == 400

    def test_a_line_that_breaks_admission_answers_500_alone(
            self, tmp_path, monkeypatch):
        """Each line is its own error boundary: an unexpected exception
        while admitting one line answers that line with a 500, and the
        lines before and after it on the connection are still answered
        (the exception used to close the connection on all of them)."""
        real = ScenarioRequest.from_wire.__func__

        def from_wire(cls, doc):
            if doc.get("id") == "boom":
                raise RuntimeError("admission fault")
            return real(cls, doc)

        monkeypatch.setattr(ScenarioRequest, "from_wire",
                            classmethod(from_wire))

        async def run():
            service = await started(tmp_path, batch_window_s=0.01)
            server = await service.serve_tcp()
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            for rid, seed in (("before", 0), ("boom", 1), ("after", 2)):
                writer.write(encode_line(request(seed=seed,
                                                 rid=rid).to_wire()))
            await writer.drain()
            docs = [decode_line(await asyncio.wait_for(reader.readline(),
                                                       10.0))
                    for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            counters = obs.registry().snapshot()
            await service.drain()
            return docs, counters

        obs.enable(tracing=False)
        docs, counters = asyncio.run(run())
        by_id = {doc["id"]: doc for doc in docs}
        assert by_id["before"]["status"] == by_id["after"]["status"] == "ok"
        assert by_id["boom"]["status"] == "error"
        assert by_id["boom"]["error"] == {"type": "RuntimeError",
                                          "code": 500,
                                          "message": "admission fault"}
        assert counters["serve.internal_errors"]["value"] == 1
        assert "serve.bad_requests" not in counters


class TestRunLocal:
    def test_local_matches_served_values(self, tmp_path):
        local = run_local(request(seed=4))

        async def run():
            service = await started(tmp_path)
            fut = service.submit(request(seed=4))
            await service.flush()
            response = await fut
            await service.drain()
            return response

        served = asyncio.run(run())
        assert local.ok and served.ok
        assert local.values == served.values
        assert local.task_id == served.task_id

    def test_local_error_is_structured(self):
        response = run_local(request(probe="failing"))
        assert response.status == "error"
        assert response.error["type"] == "RuntimeError"


class TestQueryClientErrors:
    def test_query_rejects_duplicate_ids(self, tmp_path):
        from repro.errors import ProtocolError

        async def run():
            await query("127.0.0.1", 1,
                        [request(rid="x"), request(rid="x")])

        with pytest.raises(ProtocolError):
            asyncio.run(run())
