"""Wire protocol: framing, validation, and sweep-identity equivalence."""

from __future__ import annotations

import pytest

from repro.core.scenario import frontier_spec
from repro.errors import ProtocolError
from repro.serve.protocol import (SERVE_SCHEMA_VERSION, ScenarioRequest,
                                  ScenarioResponse, decode_line, encode_line)
from repro.sweep import SweepPlan

SMALL = frontier_spec().scaled(6, 4, 4)


class TestFraming:
    def test_encode_decode_round_trip(self):
        doc = {"probe": "storage", "seed": 3}
        line = encode_line(doc)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_line(line) == doc

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json at all\n")

    @pytest.mark.parametrize("line", [b"[" * 100_000 + b"\n",
                                      b"1" * 5_000 + b"\n"])
    def test_decode_rejects_what_json_cannot_parse(self, line):
        # RecursionError and the int-digit ValueError, not JSONDecodeError
        with pytest.raises(ProtocolError):
            decode_line(line)

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_line(b'["a", "list"]\n')


class TestRequestValidation:
    def test_minimal_request_defaults_to_frontier(self):
        req = ScenarioRequest.from_wire({"probe": "storage"})
        assert req.spec == frontier_spec()
        assert req.seed == 0
        assert req.timeout_s is None

    def test_family_resolution(self):
        req = ScenarioRequest.from_wire({"probe": "storage",
                                         "family": "summit"})
        assert req.spec.family == "summit"

    def test_spec_payload(self):
        req = ScenarioRequest.from_wire({"probe": "storage",
                                         "spec": SMALL.to_dict()})
        assert req.spec == SMALL

    def test_scaled_applies_to_family(self):
        req = ScenarioRequest.from_wire({"probe": "storage",
                                         "scaled": [6, 4, 4]})
        assert req.spec == SMALL

    @pytest.mark.parametrize("doc", [
        {"probe": "storage", "spec": SMALL.to_dict(), "family": "frontier"},
        {"probe": "storage", "family": "not-a-machine"},
        {"probe": "nope"},
        {},
        {"probe": "storage", "seed": "seven"},
        {"probe": "storage", "seed": True},
        {"probe": "storage", "scaled": [6, 4]},
        {"probe": "storage", "scaled": "big"},
        {"probe": "storage", "timeout_s": -1},
        {"probe": "storage", "timeout_s": "soon"},
        {"probe": "storage", "schema": 99},
        {"probe": "storage", "spec": {"schema": 99}},
        {"probe": "storage", "scaled": [1, 4, 4]},
        {"probe": "storage", "scaled": [8, 0, 4]},
        {"probe": "storage", "scaled": [True, 4, 4]},
        {"probe": "storage", "timeout_s": float("nan")},
    ])
    def test_bad_requests_raise_protocol_error(self, doc):
        with pytest.raises(ProtocolError):
            ScenarioRequest.from_wire(doc)

    @pytest.mark.parametrize("literal", ["1e400", "-Infinity", "NaN",
                                         "true"])
    def test_bad_degradation_ids_are_a_400(self, literal):
        """JSON literals Python's ``json`` reads; each used to escape
        ``from_wire`` as a bare exception or (``true``) run as link 1."""
        line = ('{"probe": "storage", "id": "bad", "spec": {"degradation": '
                f'{{"failed_links": [{literal}]}}}}}}\n').encode()
        with pytest.raises(ProtocolError, match="failed_links") as info:
            ScenarioRequest.from_wire(decode_line(line))
        response = ScenarioResponse.bad_request(info.value, "bad")
        assert response.error["code"] == 400

    def test_request_wire_round_trip(self):
        req = ScenarioRequest.from_wire(
            {"probe": "storage", "spec": SMALL.to_dict(), "seed": 5,
             "id": "r1", "timeout_s": 2.5})
        assert ScenarioRequest.from_wire(req.to_wire()) == req


class TestSweepIdentity:
    def test_served_task_matches_sweep_grid_point(self):
        """One ledger, one hash: a served request and the same sweep grid
        point must name the identical artifact."""
        plan = SweepPlan.grid(SMALL, {}, probes=("storage",), seed=5)
        req = ScenarioRequest(probe="storage", spec=SMALL, seed=5)
        assert req.task().task_id == plan.tasks[0].task_id

    def test_seed_selects_distinct_tasks(self):
        a = ScenarioRequest(probe="storage", spec=SMALL, seed=0).task()
        b = ScenarioRequest(probe="storage", spec=SMALL, seed=1).task()
        assert a.task_id != b.task_id


class TestResponse:
    def test_wire_round_trip(self):
        resp = ScenarioResponse(id="r1", status="ok", task_id="ab" * 8,
                                values={"x": 1.5}, cached=True, batch_size=4,
                                wall_time_s=0.25)
        doc = resp.to_wire()
        assert doc["schema"] == SERVE_SCHEMA_VERSION
        assert ScenarioResponse.from_wire(doc) == resp

    def test_shed_carries_429(self):
        req = ScenarioRequest(probe="storage", spec=SMALL, id="r9")
        resp = ScenarioResponse.shed(req, queue_depth=8)
        assert resp.status == "shed"
        assert not resp.ok
        assert resp.error["code"] == 429
        assert resp.error["type"] == "Overloaded"
        assert resp.id == "r9"

    def test_from_artifact_ok_and_error(self):
        req = ScenarioRequest(probe="storage", spec=SMALL, id="r1")
        ok = ScenarioResponse.from_artifact(
            req, {"status": "ok", "task": {"id": "t1"}, "values": {"x": 1.0}},
            cached=False, batch_size=2, wall_time_s=0.1)
        assert ok.ok and ok.values == {"x": 1.0} and ok.batch_size == 2
        err = ScenarioResponse.from_artifact(
            req, {"status": "error", "task": {"id": "t2"},
                  "error": {"type": "RuntimeError", "message": "boom"}},
            cached=False, batch_size=1, wall_time_s=0.1)
        assert err.status == "error"
        assert err.error["type"] == "RuntimeError"

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError):
            ScenarioResponse(id="x", status="maybe")
        with pytest.raises(ProtocolError):
            ScenarioResponse.from_wire({"id": "x", "status": "maybe"})
