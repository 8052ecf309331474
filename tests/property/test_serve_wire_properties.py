"""Fuzz the serve wire protocol over one TCP connection.

Every request line a client sends gets exactly one reply: an answer, or
a structured ``400`` error naming what was wrong (never a ``500``: bad
input, non-finite floats in a spec block included, is the client's).  A bad line must not
close the connection, so a good request sent *before* it on the same
connection is still answered.  Requests either are arbitrary bytes or
are arbitrary JSON documents over the request fields (the one real
probe they may name is the cheap ``storage``).
"""

from __future__ import annotations

import asyncio
import json
import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ScenarioService, ServeConfig
from repro.serve.protocol import STATUSES

GOOD = b'{"id":"good","probe":"storage","scaled":[4,4,4]}\n'

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)



def _mostly(valid: st.SearchStrategy) -> st.SearchStrategy:
    """``valid`` three times in four, else arbitrary JSON."""
    return st.one_of(valid, valid, valid, _json)


#: Degradation id lists: valid ids, and floats Python's ``json`` writes
#: and reads back (``NaN``, ``Infinity``, ``1e400``) or ``true``.
_ids = st.lists(st.integers(0, 8) | st.floats() | st.booleans()
                | st.sampled_from([math.inf, -math.inf, math.nan]),
                max_size=3)

requests = st.fixed_dictionaries({"probe": _mostly(st.just("storage"))}, optional={
    "scaled": _mostly(st.lists(st.integers(-2, 10) | st.booleans(),
                               min_size=3, max_size=3)),
    "family": _mostly(st.sampled_from(["frontier", "summit", "aurora"])),
    "spec": st.fixed_dictionaries({}, optional={
        "fabric": _json, "node_count": _json,
        "degradation": _mostly(st.fixed_dictionaries({}, optional={
            "failed_links": _ids, "failed_nodes": _ids,
            "failure_scale": st.floats()})),
        "schema": _json}) | _json,
    "seed": _mostly(st.integers()),
    "timeout_s": _mostly(st.floats()),
    "id": _json,
    "schema": _mostly(st.just(1)),
})


def _exchange(payload: bytes) -> list[dict]:
    """Send ``GOOD`` then ``payload`` on one connection; every reply."""
    lines = [line for line in payload.split(b"\n") if line.strip()]

    async def run() -> list[dict]:
        with tempfile.TemporaryDirectory() as ledger:
            service = ScenarioService(ServeConfig(
                out_dir=ledger, workers=0, batch_window_s=0.001))
            await service.start()
            server = await service.serve_tcp()
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(GOOD + payload + b"\n")
            await writer.drain()
            replies = [json.loads(await asyncio.wait_for(reader.readline(), 30))
                       for _ in range(len(lines) + 1)]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await service.drain()
            return replies

    return asyncio.run(run())


def _check(replies: list[dict]) -> None:
    assert any(r["id"] == "good" and r["status"] == "ok" for r in replies)
    for reply in replies:
        assert reply["status"] in STATUSES
        if reply["status"] == "error":
            assert reply["error"]["type"] and reply["error"]["message"]
            assert reply["error"].get("code") != 500, reply


@given(st.binary(max_size=200))
@settings(max_examples=40, deadline=None)
def test_arbitrary_bytes_get_a_reply_each(payload):
    _check(_exchange(payload))


@given(requests)
@settings(max_examples=60, deadline=None)
def test_arbitrary_request_documents_get_a_reply_each(doc):
    _check(_exchange(json.dumps(doc).encode()))


@given(st.sampled_from(["failed_links", "failed_nodes"]),
       _ids.filter(bool))
@settings(max_examples=30, deadline=None)
def test_degradation_ids_get_a_reply_each(field, ids):
    """A valid request but for its degradation ids, which may be NaN,
    infinite or ``true``: answered, or a 400, and ``GOOD`` still is."""
    doc = {"id": "ids", "probe": "storage", "scaled": [4, 4, 4],
           "spec": {"degradation": {field: ids}}}
    replies = _exchange(json.dumps(doc).encode())
    _check(replies)
    (reply,) = [r for r in replies if r["id"] == "ids"]
    if any(isinstance(i, bool) or not math.isfinite(i) for i in ids):
        assert reply["error"]["code"] == 400, reply
