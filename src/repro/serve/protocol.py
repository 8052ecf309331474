"""The wire protocol: schema-versioned JSON requests and responses.

One request or response per line, compact JSON, UTF-8, ``\\n``
terminated — readable with a shell pipe, no third-party client needed.

Request lines (``schema`` defaults to the current version)::

    {"probe": "storage"}
    {"id": "r1", "probe": "mpigraph", "family": "aurora",
     "scaled": [6, 4, 4], "seed": 3}
    {"probe": "comm", "spec": {...MachineSpec JSON...}, "timeout_s": 5}

``spec`` (a full :class:`~repro.core.scenario.MachineSpec` document)
and ``family`` (a registered machine-family name) are mutually
exclusive; neither means canonical Frontier.  ``scaled`` is an optional
``[groups, switches, endpoints]`` reduced-scale variant — the knob
interactive what-if queries turn most.

Response lines::

    {"schema": 1, "id": "r1", "status": "ok", "task_id": "ab12...",
     "values": {...}, "cached": false, "batch_size": 3,
     "wall_time_s": 0.004}
    {"schema": 1, "id": "r2", "status": "shed",
     "error": {"type": "Overloaded", "code": 429, "message": "..."}}

``status`` is ``ok``, ``error`` (the probe raised), ``shed`` (admission
control refused; retry later), or ``timeout``.  ``task_id`` is the sweep
content hash — the artifact name under the shared ledger — so a client
can correlate a served answer with ``python -m repro sweep`` output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.family import family, family_names
from repro.core.scenario import MachineSpec, frontier_spec
from repro.errors import ConfigurationError, ProtocolError, TopologyError
from repro.sweep.plan import SweepTask, derive_seed
from repro.sweep.probes import SWEEP_PROBES

__all__ = ["SERVE_SCHEMA_VERSION", "ScenarioRequest", "ScenarioResponse",
           "encode_line", "decode_line"]

SERVE_SCHEMA_VERSION = 1

#: Wire statuses a response may carry.
STATUSES = ("ok", "error", "shed", "timeout")


def encode_line(doc: dict[str, Any]) -> bytes:
    """One compact JSON document as a protocol line."""
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one protocol line; :class:`ProtocolError` on garbage."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:  # also too deep or long
        raise ProtocolError(f"request line is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"request line must be a JSON object, got {type(doc).__name__}")
    return doc


def _resolve_spec(doc: dict[str, Any]) -> MachineSpec:
    if "spec" in doc and "family" in doc:
        raise ProtocolError("request carries both 'spec' and 'family'; "
                            "send one (or neither for Frontier)")
    try:
        if "spec" in doc:
            spec = MachineSpec.from_dict(doc["spec"])
        elif "family" in doc:
            name = str(doc["family"])
            if name not in family_names():
                raise ProtocolError(
                    f"unknown machine family {name!r}; "
                    f"have {sorted(family_names())}")
            spec = family(name).spec()
        else:
            spec = frontier_spec()
        if "scaled" in doc:
            dims = doc["scaled"]
            if (not isinstance(dims, (list, tuple)) or len(dims) != 3
                    or not all(type(d) is int for d in dims)):
                raise ProtocolError(
                    "'scaled' wants [groups, switches, endpoints] ints, "
                    f"got {dims!r}")
            spec = spec.scaled(*dims)
    except (ConfigurationError, TopologyError) as exc:
        raise ProtocolError(f"bad machine spec: {exc}") from exc
    return spec


@dataclass(frozen=True)
class ScenarioRequest:
    """A resolved request: evaluate ``probe`` on ``spec`` with ``seed``."""

    probe: str
    spec: MachineSpec = field(default_factory=frontier_spec)
    seed: int = 0
    id: str = ""
    timeout_s: float | None = None

    @classmethod
    def from_wire(cls, doc: dict[str, Any]) -> "ScenarioRequest":
        """Validate and resolve one decoded request document."""
        schema = doc.get("schema", SERVE_SCHEMA_VERSION)
        if schema != SERVE_SCHEMA_VERSION:
            raise ProtocolError(
                f"unsupported request schema {schema!r} "
                f"(this service speaks {SERVE_SCHEMA_VERSION})")
        probe = doc.get("probe")
        if not isinstance(probe, str) or probe not in SWEEP_PROBES:
            raise ProtocolError(
                f"unknown probe {probe!r}; have {sorted(SWEEP_PROBES)}")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError(f"'seed' wants an int, got {seed!r}")
        timeout_s = doc.get("timeout_s")
        if timeout_s is not None:
            try:
                timeout_s = float(timeout_s)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"'timeout_s' wants a number, got {timeout_s!r}") from None
            if not timeout_s > 0:      # NaN too: it would never expire
                raise ProtocolError(f"'timeout_s' must be > 0, got {timeout_s}")
        return cls(probe=probe, spec=_resolve_spec(doc), seed=seed,
                   id=str(doc.get("id", "")), timeout_s=timeout_s)

    def task(self) -> SweepTask:
        """The sweep task this request resolves to.

        Like the sweep planner, the request's ``seed`` is a *stream
        selector*: the task's RNG seed derives from (spec, probe, seed),
        so a served answer is bit-identical to the same grid point in a
        ``python -m repro sweep --seed N`` run — one ledger, one hash.
        """
        return SweepTask(spec=self.spec, probe=self.probe,
                         seed=derive_seed(self.spec, self.probe, self.seed),
                         axes=(("served", 1),))

    def to_wire(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"schema": SERVE_SCHEMA_VERSION,
                               "probe": self.probe,
                               "spec": self.spec.to_dict(),
                               "seed": self.seed}
        if self.id:
            doc["id"] = self.id
        if self.timeout_s is not None:
            doc["timeout_s"] = self.timeout_s
        return doc


@dataclass(frozen=True)
class ScenarioResponse:
    """One answer: probe values on a hit, a structured error otherwise."""

    id: str
    status: str
    task_id: str = ""
    values: dict[str, float] | None = None
    error: dict[str, Any] | None = None
    cached: bool = False
    batch_size: int = 0
    wall_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ProtocolError(f"unknown response status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_wire(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"schema": SERVE_SCHEMA_VERSION, "id": self.id,
                               "status": self.status, "cached": self.cached,
                               "batch_size": self.batch_size,
                               "wall_time_s": round(self.wall_time_s, 6)}
        if self.task_id:
            doc["task_id"] = self.task_id
        if self.values is not None:
            doc["values"] = self.values
        if self.error is not None:
            doc["error"] = self.error
        return doc

    @classmethod
    def from_wire(cls, doc: dict[str, Any]) -> "ScenarioResponse":
        schema = doc.get("schema", SERVE_SCHEMA_VERSION)
        if schema != SERVE_SCHEMA_VERSION:
            raise ProtocolError(
                f"unsupported response schema {schema!r} "
                f"(this client speaks {SERVE_SCHEMA_VERSION})")
        status = doc.get("status")
        if status not in STATUSES:
            raise ProtocolError(f"unknown response status {status!r}")
        return cls(id=str(doc.get("id", "")), status=status,
                   task_id=str(doc.get("task_id", "")),
                   values=doc.get("values"), error=doc.get("error"),
                   cached=bool(doc.get("cached", False)),
                   batch_size=int(doc.get("batch_size", 0)),
                   wall_time_s=float(doc.get("wall_time_s", 0.0)))

    # -- constructors the service uses ---------------------------------------

    @classmethod
    def from_artifact(cls, request: ScenarioRequest, doc: dict[str, Any], *,
                      cached: bool, batch_size: int,
                      wall_time_s: float) -> "ScenarioResponse":
        """Wrap a sweep artifact document as this request's answer."""
        if doc.get("status") == "ok":
            return cls(id=request.id, status="ok",
                       task_id=doc["task"]["id"], values=doc["values"],
                       cached=cached, batch_size=batch_size,
                       wall_time_s=wall_time_s)
        err = doc.get("error", {})
        return cls(id=request.id, status="error",
                   task_id=doc["task"]["id"],
                   error={"type": err.get("type", "Error"),
                          "message": err.get("message", "probe failed")},
                   cached=cached, batch_size=batch_size,
                   wall_time_s=wall_time_s)

    @classmethod
    def shed(cls, request: ScenarioRequest, *, queue_depth: int,
             ) -> "ScenarioResponse":
        """The 429-style load-shed answer (bounded queue was full)."""
        return cls(id=request.id, status="shed",
                   error={"type": "Overloaded", "code": 429,
                          "message": f"queue full ({queue_depth} deep); "
                                     "retry later"})

    @classmethod
    def timed_out(cls, request: ScenarioRequest,
                  wall_time_s: float) -> "ScenarioResponse":
        return cls(id=request.id, status="timeout",
                   error={"type": "TimeoutError",
                          "message": f"request exceeded timeout_s="
                                     f"{request.timeout_s:g}"},
                   wall_time_s=wall_time_s)

    @classmethod
    def bad_request(cls, exc: Exception, request_id: str = "",
                    code: int = 400) -> "ScenarioResponse":
        return cls(id=request_id, status="error",
                   error={"type": type(exc).__name__, "code": code,
                          "message": str(exc)})
