"""The asyncio scenario service: admission, ticking, drain, frontends.

Request lifecycle::

    submit() --cache hit--> resolved future          (fast path, no queue)
             --queue full-> shed 429 future          (backpressure)
             --otherwise--> PendingRequest in the bounded queue

    ticker (every batch_window_s) --> flush():
        expire per-request timeouts, re-check the cache (an identical
        request may have completed last tick), form batches, and run
        each batch through execute_batch() OFF the event loop — inline
        in a thread (workers=0, keeps this process's topology LRUs hot)
        or fanned out on the long-lived worker pool (workers>0).

    drain(): stop admitting, flush what is queued, shut the pool down —
        the SIGINT/SIGTERM path, so an operator's ^C answers every
        in-flight request before the process exits.

``submit`` is synchronous and must be called on the event loop: the
queue and cache are loop-thread-only state (no locks), and the returned
``asyncio.Future`` resolves on the loop.  Everything observable goes
through :mod:`repro.obs` — ``serve.request``/``serve.batch`` spans,
queue-depth gauge, cache-hit/shed/coalesced counters, and batch-size and
latency histograms — one registry shared with the probes the service
evaluates, which is why :class:`~repro.obs.metrics.MetricsRegistry` is
thread-safe.
"""

from __future__ import annotations

import asyncio
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.errors import ProtocolError, ReproError
from repro.serve.batching import (PendingRequest, execute_batch, form_batches)
from repro.serve.cache import ResponseCache
from repro.serve.protocol import (ScenarioRequest, ScenarioResponse,
                                  decode_line, encode_line)
from repro.sweep.runner import ExecPolicy

__all__ = ["ServeConfig", "ScenarioService"]

#: Histogram edges for request latencies (seconds): sub-ms to tens of s.
LATENCY_EDGES = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)
#: Histogram edges for batch sizes (requests per evaluated batch).
BATCH_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass(frozen=True)
class ServeConfig:
    """Service policy: frontend address, queue bound, batching, workers."""

    host: str = "127.0.0.1"
    port: int = 0                    #: 0 = let the kernel pick (see ready file)
    workers: int = 0                 #: 0 = evaluate inline in a thread
    queue_depth: int = 256           #: admission bound; beyond it, shed
    batch_window_s: float = 0.02     #: coalescing tick
    max_batch: int = 64              #: unique tasks per evaluated batch
    timeout_s: float | None = None   #: per-task evaluation timeout
    retries: int = 0                 #: retry budget per task (serving: none)
    backoff_s: float = 0.05
    out_dir: str = "benchmarks/out/sweep"   #: the shared artifact ledger
    cache_slots: int = 1024          #: in-memory LRU bound

    def policy(self) -> ExecPolicy:
        return ExecPolicy(workers=self.workers, timeout_s=self.timeout_s,
                          retries=self.retries, backoff_s=self.backoff_s)


class ScenarioService:
    """The long-running batching/caching/shedding scenario evaluator."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.cache = ResponseCache(self.config.out_dir,
                                   slots=self.config.cache_slots)
        self._pending: list[PendingRequest] = []
        self._executor: ProcessPoolExecutor | None = None
        self._ticker: asyncio.Task | None = None
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up the worker pool and the batch ticker."""
        self._loop = asyncio.get_running_loop()
        if self.config.workers > 0:
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers)
        self._ticker = self._loop.create_task(self._tick_loop())

    async def drain(self) -> None:
        """Graceful shutdown: answer everything queued, then stop."""
        self._draining = True
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
            self._ticker = None
        await self.flush()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.batch_window_s)
            if self._pending:
                await self.flush()

    # -- admission -----------------------------------------------------------

    def submit(self, request: ScenarioRequest) -> "asyncio.Future":
        """Admit one request; the future resolves to a ScenarioResponse.

        Synchronous on purpose: the cache fast path and the shed
        decision happen immediately, so an overloaded service answers
        429 in microseconds instead of queueing latency it cannot pay.
        """
        assert self._loop is not None, "ScenarioService.start() first"
        fut: asyncio.Future = self._loop.create_future()
        with obs.span("serve.request", probe=request.probe):
            obs.counter("serve.requests").inc()
            task = request.task()
            doc = self.cache.get(task.task_id)
            if doc is not None:
                fut.set_result(ScenarioResponse.from_artifact(
                    request, doc, cached=True, batch_size=0, wall_time_s=0.0))
                return fut
            if self._draining or len(self._pending) >= self.config.queue_depth:
                obs.counter("serve.shed").inc()
                fut.set_result(ScenarioResponse.shed(
                    request, queue_depth=self.config.queue_depth))
                return fut
            self._pending.append(PendingRequest(
                request, task, fut, self._loop.time()))
            obs.gauge("serve.queue_depth").set(len(self._pending))
        return fut

    # -- the batch engine ----------------------------------------------------

    async def flush(self) -> int:
        """Drain the queue now; returns how many requests were answered.

        The ticker calls this every window; tests and the stdio frontend
        call it directly for deterministic batch boundaries.
        """
        answered = 0
        while self._pending:
            pending, self._pending = self._pending, []
            obs.gauge("serve.queue_depth").set(0)
            live = self._expire_and_recheck(pending)
            answered += len(pending) - len(live)
            for batch in form_batches(live, self.config.max_batch):
                await self._run_batch(batch)
                answered += len(batch)
        return answered

    def _expire_and_recheck(self, pending: list[PendingRequest],
                            ) -> list[PendingRequest]:
        """Resolve expired and freshly-cached requests; the rest run."""
        assert self._loop is not None
        now = self._loop.time()
        live: list[PendingRequest] = []
        for item in pending:
            if item.future.done():     # caller went away / cancelled
                continue
            waited = now - item.enqueued_at
            timeout = item.request.timeout_s
            if timeout is not None and waited > timeout:
                obs.counter("serve.timeouts").inc()
                item.future.set_result(ScenarioResponse.timed_out(
                    item.request, wall_time_s=waited))
                continue
            doc = self.cache.get(item.task.task_id, record_miss=False)
            if doc is not None:        # computed since it queued
                item.future.set_result(ScenarioResponse.from_artifact(
                    item.request, doc, cached=True, batch_size=0,
                    wall_time_s=waited))
                continue
            live.append(item)
        return live

    async def _run_batch(self, batch: list[PendingRequest]) -> None:
        assert self._loop is not None
        unique: dict[str, Any] = {}
        for item in batch:
            unique.setdefault(item.task.task_id, item.task)
        obs.counter("serve.batches").inc()
        obs.counter("serve.coalesced").inc(len(batch) - len(unique))
        obs.histogram("serve.batch_size", edges=BATCH_EDGES).observe(
            len(batch))
        if self.config.workers <= 0:
            # Inline mode: evaluate on the loop thread.  The GIL makes a
            # helper thread pure overhead for CPU-bound probes, and
            # keeping the work here lets spans nest under the caller's
            # trace instead of surfacing as foreign thread roots.
            docs = execute_batch(list(unique.values()), self.config.policy())
        else:
            docs = await self._loop.run_in_executor(
                None, execute_batch, list(unique.values()),
                self.config.policy(), self._executor)
        now = self._loop.time()
        with obs.span("serve.batch", size=len(batch), tasks=len(unique)):
            for doc in docs.values():
                self.cache.put(doc)
                if obs.registry().enabled and doc.get("metrics"):
                    obs.registry().merge(doc["metrics"])
            latency = obs.histogram("serve.latency_s", edges=LATENCY_EDGES)
            for item in batch:
                if item.future.done():
                    continue
                doc = docs.get(item.task.task_id)
                wall = now - item.enqueued_at
                if doc is None:        # defensive: executor lost the task
                    item.future.set_result(ScenarioResponse(
                        id=item.request.id, status="error",
                        task_id=item.task.task_id,
                        error={"type": "ServeError",
                               "message": "batch produced no document"},
                        wall_time_s=wall))
                    continue
                latency.observe(wall)
                item.future.set_result(ScenarioResponse.from_artifact(
                    item.request, doc, cached=False, batch_size=len(batch),
                    wall_time_s=wall))

    # -- frontends -----------------------------------------------------------

    async def serve_tcp(self) -> "asyncio.Server":
        """Listen on ``config.host:port``; returns the running server."""
        return await asyncio.start_server(self._handle_connection,
                                          self.config.host, self.config.port)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()
        replies: set[asyncio.Task] = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                fut = self._admit_line(line)
                reply = asyncio.ensure_future(
                    self._write_reply(fut, writer, lock))
                replies.add(reply)
                reply.add_done_callback(replies.discard)
            if replies:
                await asyncio.gather(*replies, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _admit_line(self, line: bytes) -> "asyncio.Future":
        """Decode + submit one protocol line; bad lines answer inline:
        400 for bad input, 500 for any other exception, which must not
        close the connection on the answers still pending there."""
        assert self._loop is not None
        request_id = ""
        try:
            doc = decode_line(line)
            request_id = str(doc.get("id", ""))
            return self.submit(ScenarioRequest.from_wire(doc))
        except (ProtocolError, ReproError) as exc:
            obs.counter("serve.bad_requests").inc()
            response = ScenarioResponse.bad_request(exc, request_id)
        except Exception as exc:
            traceback.print_exc()
            obs.counter("serve.internal_errors").inc()
            response = ScenarioResponse.bad_request(exc, request_id, 500)
        fut: asyncio.Future = self._loop.create_future()
        fut.set_result(response)
        return fut

    @staticmethod
    async def _write_reply(fut: "asyncio.Future",
                           writer: asyncio.StreamWriter,
                           lock: asyncio.Lock) -> None:
        response: ScenarioResponse = await fut
        async with lock:
            try:
                writer.write(encode_line(response.to_wire()))
                await writer.drain()
            except (ConnectionError, OSError):
                pass               # client went away; nothing to answer

    async def serve_stdio(self) -> int:
        """Answer requests from stdin until EOF; responses on stdout.

        The curl-free frontend: pipe request lines in, read response
        lines out, no socket involved.  Returns the number of requests
        answered.
        """
        assert self._loop is not None
        reader = asyncio.StreamReader()
        await self._loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
        replies: set[asyncio.Task] = set()

        async def write_out(fut: "asyncio.Future") -> None:
            response: ScenarioResponse = await fut
            sys.stdout.write(encode_line(response.to_wire()).decode())
            sys.stdout.flush()

        answered = 0
        while True:
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            fut = self._admit_line(line)
            answered += 1
            reply = asyncio.ensure_future(write_out(fut))
            replies.add(reply)
            reply.add_done_callback(replies.discard)
        await self.flush()
        if replies:
            await asyncio.gather(*replies)
        return answered
