"""The one-shot client: query a running service, or evaluate locally.

:func:`query` is what ``python -m repro query`` uses — open one TCP
connection, pipeline every request line, and collect responses until
each request id has its answer (the service replies in completion
order, not request order).  :func:`run_local` is the cold path the
throughput benchmark compares against: the same request evaluated
inline with no service, no batching, and no warm caches.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from repro.errors import ProtocolError, ServeError
from repro.serve.protocol import (ScenarioRequest, ScenarioResponse,
                                  decode_line, encode_line)
from repro.sweep.runner import execute_task

__all__ = ["query", "run_local"]


async def query(host: str, port: int,
                requests: Sequence[ScenarioRequest],
                timeout_s: float = 30.0) -> list[ScenarioResponse]:
    """Send ``requests`` over one connection; responses in request order.

    Requests without an ``id`` get ``q0``, ``q1``, ... so the answers
    can be re-ordered to match the input.  Raises :class:`ServeError`
    if the service closes the connection before every id is answered,
    ``TimeoutError`` if it stalls past ``timeout_s``.
    """
    tagged = [req if req.id else
              ScenarioRequest(probe=req.probe, spec=req.spec, seed=req.seed,
                              id=f"q{i}", timeout_s=req.timeout_s)
              for i, req in enumerate(requests)]
    ids = [req.id for req in tagged]
    if len(set(ids)) != len(ids):
        raise ProtocolError(f"duplicate request ids: {sorted(ids)}")

    reader, writer = await asyncio.open_connection(host, port)
    try:
        for req in tagged:
            writer.write(encode_line(req.to_wire()))
        await writer.drain()
        by_id: dict[str, ScenarioResponse] = {}
        while len(by_id) < len(ids):
            line = await asyncio.wait_for(reader.readline(), timeout_s)
            if not line:
                raise ServeError(
                    f"service closed the connection after "
                    f"{len(by_id)}/{len(ids)} responses")
            response = ScenarioResponse.from_wire(decode_line(line))
            by_id[response.id] = response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ServeError(f"no response for request ids {missing}")
    return [by_id[i] for i in ids]


def run_local(request: ScenarioRequest) -> ScenarioResponse:
    """Evaluate one request inline — the no-service cold path.

    Exactly what a cold ``python -m repro`` process does per question:
    resolve the task, run the probe, no cache read, no batching.  The
    throughput benchmark's denominator.
    """
    task = request.task()
    doc = execute_task(task, isolate_obs=False)
    return ScenarioResponse.from_artifact(
        request, doc, cached=False, batch_size=1,
        wall_time_s=doc["timing"]["wall_time_s"])
