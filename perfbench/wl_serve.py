"""``serve-mix``: a seeded, Zipf-popular request stream against the service.

An in-process ``ScenarioService`` (``workers=0``, as the CLI defaults)
listens on loopback TCP; the benchmark talks to it over two persistent
connections from the same process, as a closed loop of *waves*.  Each
wave is written in full, every request of it is admitted, and only then
does the benchmark call ``service.flush()`` — so batch boundaries, and
with them every count below, never depend on timing.  The service's own
ticker is parked (a one-hour window) and never fires during a run.

A wave mixes, over small dragonfly geometries and every real probe:

* **cold** tasks — one ``mpigraph``, a trio of ``congest`` tasks that
  differ only in the ECN law (one ensemble key), a ``congest`` singleton
  (the scalar ``run()`` path), and one of each light probe;
* **in-flight duplicates** of those cold tasks (they coalesce);
* **repeats** of earlier waves' tasks, drawn with Zipf weights (cache
  hits; the majority of requests).

Wave 0 is fixed and seed-independent; its served values are pinned.
The expected counts of evaluations, batches, coalesced requests and
cache hits follow from the stream alone and are checked against what
the client observes.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import tempfile
import time
from collections import defaultdict

import numpy as np

from harness import Checks, Digest, RunSpeed, quantile

GEOMETRIES = ((4, 4, 4), (6, 4, 4), (8, 4, 4), (4, 8, 4), (6, 8, 4),
              (8, 8, 4), (10, 4, 4), (12, 4, 4))
LIGHT_PROBES = ("comm", "storage", "placement", "chaos", "heal", "compare")
REFERENCE_GEOMETRY = (8, 4, 4)
#: burst duty of the congest trio vs the singleton: distinct ensemble keys.
TRIO_DUTY, SINGLE_DUTY = 1.0, 0.5
ZIPF_S = 1.1
#: Waves timed between two probe bursts (a group lasts a few seconds).
WAVES_PER_ITEM = 4

SIZES = {
    "full": {"duplicates": 5, "repeats": 32, "wave_s": 0.6},
    "tiny": {"duplicates": 3, "repeats": 8, "wave_s": 10.0},
}


class ServeMix:
    name = "serve-mix"

    def __init__(self, size: str, seed: int, seconds: float, workdir: str,
                 inject_failing: bool = False) -> None:
        self.size = SIZES[size]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.inject_failing = inject_failing

    # -- set-up: service, connections, the request stream ----------------------

    def setup(self) -> None:
        from repro.serve import ScenarioService, ServeConfig
        self.ledger = tempfile.mkdtemp(prefix="ledger-", dir=self.workdir)
        self.service = ScenarioService(ServeConfig(
            port=0, workers=0, batch_window_s=3600.0, out_dir=self.ledger))
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())
        self.waves, self.expected = self.plan()

    async def _start(self) -> None:
        from repro.serve.protocol import decode_line
        self._decode = decode_line
        await self.service.start()
        self.server = await self.service.serve_tcp()
        port = self.server.sockets[0].getsockname()[1]
        self.conns = [await asyncio.open_connection("127.0.0.1", port)
                      for _ in range(2)]
        self.waiting: dict[str, asyncio.Future] = {}
        self.readers = [asyncio.get_running_loop().create_task(
            self._read(reader)) for reader, _ in self.conns]
        # Count admissions so a wave is flushed only once fully queued, and
        # note the requests answered at admission (cache hits) so their
        # replies are delivered before the flush occupies the loop.
        admit = self.service.submit
        self.admitted = 0
        self.answered_at_admission: list[str] = []
        self.wave_admitted = asyncio.Event()
        self.wave_size = 0

        def counting_submit(request):
            future = admit(request)
            self.admitted += 1
            if future.done():
                self.answered_at_admission.append(request.id)
            if self.admitted >= self.wave_size:
                self.wave_admitted.set()
            return future

        self.service.submit = counting_submit

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            doc = self._decode(line)
            future = self.waiting.pop(doc["id"])
            future.set_result((doc, time.perf_counter()))

    def _request(self, probe, dims, seed, rid, *, ecn=True, ecn_k=30,
                 duty=TRIO_DUTY):
        from dataclasses import replace

        from repro.core.scenario import CongestionSpec, frontier_spec
        from repro.serve import ScenarioRequest
        spec = frontier_spec().scaled(*dims)
        if probe == "congest":
            spec = replace(spec, congestion=CongestionSpec(
                ecn=ecn, ecn_k=ecn_k, burst_duty=duty))
        return ScenarioRequest(probe=probe, spec=spec, seed=seed, id=rid)

    def plan(self):
        """The waves (encoded lines) and the counts they must produce."""
        from repro.serve.protocol import encode_line
        rng = np.random.default_rng([self.seed, 0x5E7E])
        n_waves = max(2, round(self.seconds / self.size["wave_s"]))
        history: list[tuple] = []          # (request, task_id) of ok tasks
        waves, expected = [], defaultdict(int)
        # request seeds of cold tasks: distinct, from a seeded base
        fresh = itertools.count(int(rng.integers(1, 10 ** 6)) * 10 ** 4)
        for w in range(n_waves):
            ref = w == 0

            def pick_dims():
                return REFERENCE_GEOMETRY if ref else \
                    GEOMETRIES[int(rng.integers(len(GEOMETRIES)))]

            def next_seed():
                return 0 if ref else next(fresh)

            cold_specs = [("mpigraph", pick_dims(), {})]
            trio_dims = pick_dims()
            trio_ks = (10, 30) if ref else tuple(
                int(k) for k in rng.choice(np.arange(5, 81), 2, replace=False))
            cold_specs += [("congest", trio_dims, {"ecn": False}),
                           ("congest", trio_dims, {"ecn_k": trio_ks[0]}),
                           ("congest", trio_dims, {"ecn_k": trio_ks[1]}),
                           ("congest", (6, 4, 4) if ref else pick_dims(),
                            {"duty": SINGLE_DUTY})]
            cold_specs += [(probe, pick_dims(), {}) for probe in LIGHT_PROBES]
            if self.inject_failing and w == 1:
                cold_specs.append(("failing", REFERENCE_GEOMETRY, {}))
            cold = []
            for i, (probe, dims, knobs) in enumerate(cold_specs):
                req = self._request(probe, dims, next_seed(), f"w{w}c{i}",
                                    **knobs)
                cold.append((req, req.task().task_id, (dims, probe)))
            ids = [tid for _, tid, _ in cold]
            seen = {tid for _, tid in history}
            if len(set(ids)) != len(ids) or seen & set(ids):
                raise RuntimeError(f"wave {w}: a cold task is not new")
            n_real = len(cold) - (self.inject_failing and w == 1)
            dup_picks = (range(self.size["duplicates"]) if ref else
                         rng.integers(n_real, size=self.size["duplicates"]))
            dups = [cold[int(j)] for j in dup_picks]
            repeats = []
            if history:
                weights = 1.0 / np.arange(1, len(history) + 1) ** ZIPF_S
                picks = rng.choice(len(history), size=self.size["repeats"],
                                   p=weights / weights.sum())
                repeats = [history[int(j)] for j in picks]
            lines = []
            for n, (req, *_) in enumerate(cold + dups + repeats):
                wire = dict(req.to_wire(), id=f"w{w}r{n}")
                lines.append((wire["id"], encode_line(wire)))
            order = (range(len(lines)) if ref
                     else rng.permutation(len(lines)))
            waves.append([lines[int(j)] for j in order])
            expected["evaluations"] += len(cold)
            expected["coalesced"] += len(dups)
            expected["hits"] += len(repeats)
            expected["batches"] += len({key for _, _, key in cold})
            expected["ensemble_batches"] += 1
            expected["requests"] += len(lines)
            history += [(req, tid) for req, tid, (_, probe) in cold
                        if probe != "failing"]
        if len(history) > self.service.config.cache_slots:
            raise RuntimeError("stream outgrows the in-memory cache level")
        return waves, dict(expected)

    # -- the timed stream ----------------------------------------------------

    async def _wave(self, lines) -> tuple[list, float]:
        loop = asyncio.get_running_loop()
        self.admitted = 0
        self.answered_at_admission.clear()
        self.wave_size = len(lines)
        self.wave_admitted.clear()
        futures, sent = {}, {}
        for n, (rid, line) in enumerate(lines):
            futures[rid] = self.waiting[rid] = loop.create_future()
            sent[rid] = time.perf_counter()
            self.conns[n % 2][1].write(line)
        for _, writer in self.conns:
            await writer.drain()
        await self.wave_admitted.wait()
        await asyncio.gather(*(futures[rid]
                               for rid in self.answered_at_admission))
        start = time.perf_counter()
        await self.service.flush()
        flush_s = time.perf_counter() - start
        replies = []
        for rid, future in futures.items():
            doc, received = await future
            replies.append((doc, received - sent[rid]))
        return replies, flush_s

    async def _stream(self, timer: RunSpeed):
        """Every wave in turn: (replies, flush seconds, wave seconds)."""
        out = []
        for first in range(0, len(self.waves), WAVES_PER_ITEM):
            gc.collect()
            for lines in self.waves[first:first + WAVES_PER_ITEM]:
                start = time.perf_counter()
                replies, flush_s = await self._wave(lines)
                out.append((replies, flush_s, time.perf_counter() - start))
            timer.burst()
        return out

    def measure(self, checks: Checks, timer: RunSpeed) -> dict:
        checks.require(os.listdir(self.ledger) == [], "ledger not fresh")
        timed = self.loop.run_until_complete(self._stream(timer))
        values_by_task: dict[str, dict] = {}
        latencies, ok, failed = [], 0, 0
        hits = batches = 0.0
        uncached_ids: list[str] = []
        canary = Digest()
        for w, (replies, _, _) in enumerate(timed):
            reference: dict[str, dict] = {}
            for doc, latency in replies:
                status = doc["status"]
                if status != "ok":
                    failed += 1
                    if status == "error" and doc.get("task_id"):
                        uncached_ids.append(doc["task_id"])
                        batches += 1.0 / doc["batch_size"]
                    continue
                ok += 1
                latencies.append(latency)
                tid = doc["task_id"]
                first = values_by_task.setdefault(tid, doc["values"])
                checks.require(first == doc["values"],
                               f"task {tid}: served values differ")
                if doc["cached"]:
                    hits += 1
                else:
                    uncached_ids.append(tid)
                    batches += 1.0 / doc["batch_size"]
                if w == 0:
                    reference[tid] = doc["values"]
            if w == 0:
                canary.doc(reference)
        evaluations = len(set(uncached_ids))
        makespan = sum(wave_s for _, _, wave_s in timed)
        nominal_makespan = makespan * timer.factor()
        nominal_flush = sum(spent for _, spent, _ in timed) * timer.factor()
        observed = {"evaluations": evaluations,
                    "coalesced": len(uncached_ids) - evaluations,
                    "hits": int(hits), "batches": int(round(batches)),
                    "requests": sum(len(replies) for replies, _, _ in timed)}
        for key, value in observed.items():
            checks.require(value == self.expected[key],
                           f"{key}: observed {value}, expected "
                           f"{self.expected[key]}")
        checks.close_op()
        self.values_by_task = values_by_task
        digest = Digest().doc(sorted(values_by_task.items()))
        return {
            "metrics": {"throughput_per_s": ok / nominal_makespan,
                        "secondary_per_s": evaluations / nominal_flush},
            "detail": {"requests_per_s": ok / nominal_makespan,
                       "evaluations_per_s": evaluations / nominal_flush,
                       "requests_per_s_wall": ok / makespan,
                       "latency_p50_s": quantile(latencies, 0.5),
                       "latency_p95_s": quantile(latencies, 0.95),
                       "latency_samples": len(latencies),
                       "makespan_s": makespan,
                       "waves": len(timed),
                       **{f"observed_{k}": v for k, v in observed.items()},
                       "expected_ensemble_batches":
                           self.expected["ensemble_batches"]},
            "attempted": observed["requests"],
            "failed_requests": failed,
            "canary": canary.hexdigest(),
            "digest": digest.hexdigest(),
        }

    # -- teardown ------------------------------------------------------------

    async def _stop(self) -> None:
        for _, writer in self.conns:
            writer.close()
            await writer.wait_closed()
        for task in self.readers:
            await task
        self.server.close()
        await self.server.wait_closed()
        await self.service.drain()

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.close()
