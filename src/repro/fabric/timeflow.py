"""Fluid time-stepped congestion engine over CSR batch paths.

The max-min solver (:mod:`repro.fabric.maxmin`) answers *steady-state*
questions: given simultaneous flows, what rates does a credit-based
fabric converge to?  The paper's hardest network results (GPCNeT, Table
5) are about *dynamics* — queues building behind incast hotspots,
victims throttled by elephants, tails exploding when backpressure is
absent.  This module layers a fluid (continuous-rate, fixed-step)
congestion engine on top of the batch router's CSR
:class:`~repro.fabric.batchroute.BatchPaths`:

* every flow injects at a controllable rate; per-link **queue
  occupancy** evolves as ``q' = max(0, q + (arrivals - capacity) dt)``;
* sources are **constant, finite, or bursty** (on/off duty cycle —
  the SpiNNaker ``network_tester`` idiom) and may be rate-limited;
* links **ECN-mark** when their queue exceeds ``k`` MTUs; marked
  sources apply a multiplicative backoff and recover additively (the
  DCTCP/Slingshot-style control loop, applied once per control
  interval ≈ one RTT);
* finite flows record **flow-completion times** and last-byte **wire
  latencies** per traffic class, with NaN-safe p50/p99 extraction
  (:func:`fct_stats`).

Cross-validation (``tests/fabric/test_timeflow.py`` and the
``congestion`` CI probe assert all three):

* **steady-state throughput**: constant elephants under the ECN loop
  time-average onto the max-min allocation of the same CSR path set;
* **analytic impact**: :func:`validate_victim_impact` reconstructs the
  :class:`~repro.fabric.congestion.CongestionControl` victim latency
  factor — the burst length is chosen so the fluid triangle-wave queue
  has the same mean occupancy as the analytic M/M/1 abstraction, and
  the measured multiplier must land within ±15%;
* **queueing discipline**: FIFO (no ECN) reproduces the unprotected
  :class:`~repro.fabric.queueing.PortSimulation` shape (victim tails
  explode), the ECN loop the ``per_flow_fair`` shape (victim tails
  bounded near the marking threshold).

One step loop serves every caller: :meth:`TimeflowEngine.run_ensemble`
integrates S scenarios over one path plan as the columns of
``(flows, S)`` / ``(links, S)`` arrays, and :meth:`TimeflowEngine.run`
is its one-column case.  The loop runs the full sparse matmul only at
step 0 and after each ECN control step, where every rate may move; a
flow start or burst edge re-derives only the switching flows' path
rows, a finite flow's partial last step or completion only its own
path rows in its own column, and the quiet steps between are one
in-place add.  Queues are integrated only on links whose flows' rate
caps can exceed capacity.  The plain per-flow loop it was derived from
is kept in ``tests/fabric/timeflow_oracle.py`` as the reference every
column must match bit for bit.

Results persist as resumable content-hash artifacts under
``benchmarks/out/congest/``, via ``python -m repro congest``, in a
:class:`~repro.ledger.Ledger` with the same trust contract as the sweep
and chaos artifacts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.fabric.batchroute import BatchPaths
from repro.fabric.congestion import CongestionControl
from repro.ledger import Ledger
from repro.ledger import run_id as congest_run_id
from repro.rng import RngLike, as_generator

__all__ = [
    "FlowSpec", "TimeflowConfig", "ClassReport", "TimeflowResult",
    "TimeflowEngine", "ENSEMBLE_SHARED_AXES",
    "fct_stats", "incast_pattern",
    "ImpactValidation", "validate_victim_impact",
    "CongestConfig", "congest_spec", "congest_scenario",
    "run_congest", "run_congest_cached", "run_congest_grid",
    "congest_run_id", "CONGEST_LEDGER", "DEFAULT_CONGEST_DIR",
    "CONGEST_SCHEMA_VERSION",
]

#: Default artifact directory (mirrors the sweep/chaos layout).
DEFAULT_CONGEST_DIR = os.path.join("benchmarks", "out", "congest")

#: Artifact schema (bumped on incompatible document changes).
CONGEST_SCHEMA_VERSION = 1

#: Congest studies: ``congest-<run_id>.json``, id at ``run_id``.
CONGEST_LEDGER = Ledger(prefix="congest-", schema=CONGEST_SCHEMA_VERSION,
                        id_key="run_id")

#: Fraction of line rate a single uncontrolled stream sustains (protocol
#: overheads; matches ``repro.fabric.network.STREAM_EFFICIENCY``).
PEAK_EFFICIENCY = 0.70

#: Elements of burst-phase scratch the step planner evaluates at once.
PLAN_CHUNK = 1 << 16

#: Longest replay of one column-event calendar entry; a longer quiet run
#: is re-examined when it ends.
CALENDAR_SPAN = 4096

#: Calendar replays kept per integration (a repeating transfer needs one
#: per rate it runs at).
REPLAY_CACHE = 4096


try:
    from scipy.sparse import _sparsetools as _spt

    def _csr_matmul_into(A: "sparse.csr_matrix", x: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
        """``out[...] = A @ x`` into a preallocated dense buffer.

        Calls the same ``csr_matvecs`` kernel scipy's ``@`` dispatches
        to (so per-column accumulation order — and therefore bits —
        match the scalar matvec exactly) but skips the per-call result
        allocation and dispatch that dominate small-operand matmuls in
        the ensemble step loop.
        """
        out.fill(0.0)
        _spt.csr_matvecs(A.shape[0], A.shape[1], x.shape[1],
                         A.indptr, A.indices, A.data,
                         x.ravel(), out.ravel())
        return out

    def _csr_parts_matmul(indptr: np.ndarray, indices: np.ndarray,
                          data: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``M @ x`` for the CSR matrix ``(data, indices, indptr)``.

        The same ``csr_matvecs`` kernel as :func:`_csr_matmul_into`, on
        rows gathered from a larger matrix without building a scipy
        matrix: fancy row indexing of one costs ~80 µs per call on the
        full fabric, some thirty times the product.
        """
        out = np.zeros((indptr.size - 1, x.shape[1]))
        _spt.csr_matvecs(indptr.size - 1, x.shape[0], x.shape[1], indptr,
                         indices, data, x.ravel(), out.ravel())
        return out
except ImportError:  # pragma: no cover - scipy internals moved
    def _csr_matmul_into(A: "sparse.csr_matrix", x: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
        out[...] = A @ x
        return out

    def _csr_parts_matmul(indptr: np.ndarray, indices: np.ndarray,
                          data: np.ndarray, x: np.ndarray) -> np.ndarray:
        return sparse.csr_matrix((data, indices, indptr),
                                 shape=(indptr.size - 1, x.shape[0])) @ x


class _Path(NamedTuple):
    """One finite flow's path, as the step loop's column events use it.

    ``head`` is its active path rows' incidence (in the order of the
    delay sum ``AT_act @ (q / caps)``) cut before the flow's own term.
    ``delay_terms`` holds per queue row ``(row * S, weight,
    capacity)``; ``row_terms`` per row ``(row * S, flows * S, weights,
    capacity, own weight, [(flow * S, weight) after the flow's own
    term], queues)``, flows in CSR order (``* S``: flat offsets into the
    ``(rows, S)`` and ``(flows, S)`` arrays; ``queues``: the row is a
    queue row).
    """

    head: sparse.csr_matrix
    delay_terms: list
    row_terms: list


# -- traffic sources ----------------------------------------------------------


@dataclass(frozen=True)
class FlowSpec:
    """One traffic source: an endpoint pair plus its injection behaviour.

    ``size_bytes=None`` makes an *elephant* (injects forever);  a finite
    size records one FCT sample per completed transfer, and ``repeat``
    restarts the transfer back-to-back (a canary stream — GPCNeT's
    victim probes).  ``burst_duty < 1`` gates injection on for the first
    ``duty`` fraction of every ``burst_period_s`` (phase-locked to
    ``start_s``).  ``rate_limit`` caps the send rate below the
    protocol-limited peak; it is also the initial rate, so rate-limited
    sources are constant-rate unless the ECN loop throttles them.
    """

    src: int
    dst: int
    size_bytes: float | None = None
    cls: str = "bulk"
    start_s: float = 0.0
    rate_limit: float | None = None
    burst_duty: float = 1.0
    burst_period_s: float | None = None
    repeat: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes is not None and not self.size_bytes > 0:
            raise ConfigurationError("flow size must be positive (or None)")
        # A NaN start would never be reached: the step planner hangs.
        if not 0.0 <= self.start_s < math.inf:
            raise ConfigurationError("start_s must be finite and non-negative")
        if self.rate_limit is not None and not self.rate_limit > 0:
            raise ConfigurationError("rate_limit must be positive")
        if not 0.0 < self.burst_duty <= 1.0:
            raise ConfigurationError("burst_duty must be in (0, 1]")
        if self.burst_duty < 1.0:
            if self.burst_period_s is None or not self.burst_period_s > 0:
                raise ConfigurationError(
                    "bursty flows (duty < 1) need a positive burst_period_s")
        if self.repeat and self.size_bytes is None:
            raise ConfigurationError("only finite flows can repeat")


@dataclass(frozen=True)
class TimeflowConfig:
    """Engine parameters: step size, horizon, and the ECN control loop.

    ``ecn_k`` is the marking threshold in MTUs of queue; ``backoff`` the
    multiplicative decrease applied to marked sources and
    ``growth_frac`` the additive recovery (fraction of the flow's peak),
    both once per ``control_interval_s``.  ``base_latency_s`` is the
    unloaded last-byte wire latency; ``None`` derives it per flow as one
    MTU serialisation per hop.  Completions before ``warmup_s`` are
    excluded from the statistics (start-up transients).
    """

    dt_s: float = 5e-8
    horizon_s: float = 3e-4
    mtu_bytes: float = 4096.0
    ecn: bool = True
    ecn_k: float = 30.0
    backoff: float = 0.5
    growth_frac: float = 0.05
    min_rate_frac: float = 0.01
    control_interval_s: float = 5e-6
    base_latency_s: float | None = None
    warmup_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dt_s", "horizon_s", "mtu_bytes", "control_interval_s"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.horizon_s < self.dt_s:
            raise ConfigurationError("horizon shorter than one step")
        if not 0.0 < self.backoff < 1.0:
            raise ConfigurationError("backoff must be in (0, 1)")
        if not 0.0 < self.growth_frac <= 1.0:
            raise ConfigurationError("growth_frac must be in (0, 1]")
        # A NaN threshold never marks, silently running ECN as FIFO.
        if not 0.0 <= self.ecn_k < math.inf:
            raise ConfigurationError("ecn_k must be finite and non-negative")
        # A floor above the cap would pin every rate at the cap, silently
        # turning an ECN arm into FIFO.
        if not 0.0 <= self.min_rate_frac <= 1.0:
            raise ConfigurationError("min_rate_frac must be in [0, 1]")
        if not self.warmup_s >= 0:
            raise ConfigurationError("warmup_s must be non-negative")
        if self.base_latency_s is not None and not self.base_latency_s >= 0:
            raise ConfigurationError("base_latency_s must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        return {
            "dt_s": self.dt_s, "horizon_s": self.horizon_s,
            "mtu_bytes": self.mtu_bytes, "ecn": self.ecn,
            "ecn_k": self.ecn_k, "backoff": self.backoff,
            "growth_frac": self.growth_frac,
            "min_rate_frac": self.min_rate_frac,
            "control_interval_s": self.control_interval_s,
            "base_latency_s": self.base_latency_s,
            "warmup_s": self.warmup_s,
        }


# -- FCT / latency statistics -------------------------------------------------


def fct_stats(samples: Sequence[float] | np.ndarray,
              percentiles: Sequence[float] = (50.0, 99.0)
              ) -> dict[str, float]:
    """NaN-safe percentile extraction for completion-time samples.

    Contract (pinned by the edge-case tests):

    * **zero samples** -> ``n == 0`` and every statistic is ``nan``
      (never raises — an incast so congested nothing completes is a
      result, not an error);
    * **one sample** (e.g. a single-packet flow) -> every percentile is
      that value;
    * **tied completion times** are fine (percentiles of a constant
      vector are that constant);
    * **fewer than 100 samples** still yield a p99, by linear
      interpolation between order statistics (numpy's default) — it
      converges on the tail as samples accumulate instead of failing.
    """
    arr = np.asarray(samples, dtype=float)
    out: dict[str, float] = {"n": float(arr.size)}
    if arr.size == 0:
        out["mean"] = float("nan")
        for q in percentiles:
            out[f"p{q:g}"] = float("nan")
        return out
    out["mean"] = float(np.mean(arr))
    for q, value in zip(percentiles, np.percentile(arr, list(percentiles))):
        out[f"p{q:g}"] = float(value)
    return out


@dataclass(frozen=True)
class ClassReport:
    """Per-traffic-class results from one engine run."""

    cls: str
    completed: int
    fct: dict[str, float]          # fct_stats of completion times (s)
    latency: dict[str, float]      # fct_stats of last-byte wire latency (s)
    bytes_injected: float
    goodput: float                 # bytes_injected / measured horizon

    def to_doc(self) -> dict[str, Any]:
        return {"cls": self.cls, "completed": self.completed,
                "fct_s": self.fct, "latency_s": self.latency,
                "bytes_injected": self.bytes_injected,
                "goodput_bytes_per_s": self.goodput}


@dataclass(frozen=True)
class TimeflowResult:
    """Everything one :meth:`TimeflowEngine.run` produced."""

    config: TimeflowConfig
    classes: dict[str, ClassReport]
    fct_samples: dict[str, np.ndarray]
    latency_samples: dict[str, np.ndarray]
    mean_rates: np.ndarray         # per-flow time-averaged injection (B/s)
    max_queue_bytes: float
    max_link_utilisation: float
    marks: int
    steps: int

    def cls(self, name: str) -> ClassReport:
        try:
            return self.classes[name]
        except KeyError:
            raise SimulationError(
                f"no traffic class {name!r}; have {sorted(self.classes)}"
            ) from None

    def to_doc(self) -> dict[str, Any]:
        return {
            "classes": {name: rep.to_doc()
                        for name, rep in sorted(self.classes.items())},
            "max_queue_bytes": self.max_queue_bytes,
            "max_queue_mtus": self.max_queue_bytes / self.config.mtu_bytes,
            "max_link_utilisation": self.max_link_utilisation,
            "marks": self.marks,
            "steps": self.steps,
        }


# -- the engine ---------------------------------------------------------------


class TimeflowEngine:
    """Fluid time-stepped congestion simulation of one traffic phase.

    Paths are planned once through the router's batch planner
    (``router.paths`` -> CSR :class:`BatchPaths`), then a run is array
    work over the link x flow incidence built straight from the CSR
    arrays — the same zero-copy interchange the max-min solver uses —
    with one column per scenario (:meth:`run` integrates one,
    :meth:`run_ensemble` many): sparse matmuls (link arrivals, per-flow
    mark lookup) when injections change, one in-place add per quiet step
    in between.
    """

    def __init__(self, network, flows: Sequence[FlowSpec],
                 config: TimeflowConfig | None = None,
                 chunk: int | None = None):
        if not flows:
            raise ConfigurationError("timeflow needs at least one flow")
        self.network = network
        self.flows = tuple(flows)
        self.config = config if config is not None else TimeflowConfig()

        pairs = [(f.src, f.dst) for f in self.flows]
        network.router.reset_load()
        self.paths: BatchPaths = network.router.paths(pairs, chunk=chunk)

        self.caps = np.asarray(network.topology.capacities(), dtype=float)
        n_links, n_flows = len(self.caps), len(self.flows)
        cols = np.repeat(np.arange(n_flows), np.diff(self.paths.indptr))
        data = np.ones(len(self.paths.indices), dtype=float)
        #: link x flow incidence; ``A @ rates`` = per-link arrivals.
        self.A = sparse.csr_matrix(
            (data, (self.paths.indices, cols)), shape=(n_links, n_flows))

        hops = self.paths.lengths()
        min_cap = np.minimum.reduceat(self.caps[self.paths.indices],
                                      self.paths.indptr[:-1])
        #: per-flow peak rate: protocol-limited share of the tightest link.
        self.peak = PEAK_EFFICIENCY * min_cap
        limit = np.array([f.rate_limit if f.rate_limit is not None
                          else np.inf for f in self.flows])
        self.rate_cap = np.minimum(self.peak, limit)
        if self.config.base_latency_s is not None:
            self.base_latency = np.full(n_flows, self.config.base_latency_s)
        else:
            self.base_latency = hops * self.config.mtu_bytes / min_cap

        # Step-loop invariants: they depend only on the flows, the paths
        # and the ENSEMBLE_SHARED_AXES, so every integration shares them.
        self._st = self._flow_arrays()
        self._n_steps = int(round(self.config.horizon_s / self.config.dt_s))
        self._control_every = max(1, int(round(
            self.config.control_interval_s / self.config.dt_s)))
        self._partition_rows()
        self._switches = self._plan_switches()

    def _partition_rows(self) -> None:
        """The active rows, queue rows first, and their incidences.

        Only links on some flow's path ever see arrivals; everywhere else
        the queue is pinned at zero and contributes exact zeros to every
        max, mark, and delay sum, so the loop integrates the *active*
        rows only.  CSR row/column slicing keeps each surviving row's
        accumulation order, and every dropped term is an exact ``0.0``.

        Of those, only a *queue row* can ever hold a queue.  Every
        injection stays at most its flow's ``rate_cap`` (FIFO never moves
        a rate, ECN clips it to the cap, a partial step is below the
        rate), and a sequential float sum is monotone in each term, so a
        row whose CSR-order sum of rate caps is within capacity has
        ``diff <= 0`` at every step and its clamped queue is always 0.
        The stable partition puts the ``nq`` queue rows first in their
        original relative order, which keeps the order of every per-flow
        delay sum.
        """
        active = np.flatnonzero(np.diff(self.A.indptr))
        load_cap = _csr_matmul_into(self.A, self.rate_cap[:, None],
                                    np.empty((len(self.caps), 1)))[active, 0]
        queues = load_cap > self.caps[active]
        active = active[np.argsort(~queues, kind="stable")]
        self._active = active
        self._nq = int(queues.sum())
        self._A_act = self.A[active]
        self._AT_act = self._A_act.T.tocsr()
        #: flow x queue-row incidence: which flows a marked queue marks.
        self._AT_mark = self._A_act[:self._nq].T.tocsr()
        self._caps_act = self.caps[active][:, None]
        # Every flow's path rows with their CSR slices, flow-major, so a
        # sub-matmul over a few flows' rows gathers contiguous slices.
        A, AT = self._A_act, self._AT_act
        lens = np.diff(A.indptr)[AT.indices]
        ptr = np.zeros(lens.size + 1, dtype=A.indptr.dtype)
        np.cumsum(lens, out=ptr[1:])
        pos = (np.arange(ptr[-1])
               + np.repeat(A.indptr[AT.indices] - ptr[:-1], lens))
        self._blocks = (lens, ptr, A.indices[pos], A.data[pos])

    def _path_rows(self, flows: Sequence[int]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, indptr, indices, data)``: the active path rows of
        ``flows`` (a row shared by two flows appears twice) as a CSR
        matrix, for :func:`_csr_parts_matmul`."""
        lens, ptr, ix, w = self._blocks
        fp = self._AT_act.indptr
        if len(flows) == 1:
            a, b = fp[flows[0]], fp[flows[0] + 1]
            return (self._AT_act.indices[a:b], ptr[a:b + 1] - ptr[a],
                    ix[ptr[a]:ptr[b]], w[ptr[a]:ptr[b]])
        spans = [(fp[f], fp[f + 1]) for f in flows]
        row_lens = np.concatenate([lens[a:b] for a, b in spans])
        indptr = np.zeros(row_lens.size + 1, dtype=ptr.dtype)
        np.cumsum(row_lens, out=indptr[1:])
        return (np.concatenate([self._AT_act.indices[a:b] for a, b in spans]),
                indptr,
                np.concatenate([ix[ptr[a]:ptr[b]] for a, b in spans]),
                np.concatenate([w[ptr[a]:ptr[b]] for a, b in spans]))

    def _plan_switches(self) -> dict[int, np.ndarray]:
        """Per step, the flows whose ``on`` state can flip there.

        A flow's gate is ``~done & (start <= t)`` and, for a bursty
        flow, the burst phase test; ``done`` only changes at column
        events, so outside those the gate flips only at the flow's first
        step ``start <= step * dt`` and at its burst edges.  Both are
        found with the loop's own float expressions, so they are exact;
        the burst phases are evaluated :data:`PLAN_CHUNK` elements at a
        time to bound the buffer.  Sorted flow ids per step.
        """
        st, n_steps, dt = self._st, self._n_steps, self.config.dt_s
        start = st["start"]
        # First step whose ``t = step * dt`` reaches the start: a ceil
        # guess, then nudged onto the float comparison the loop makes.
        first = np.minimum(np.ceil(start / dt), n_steps).astype(np.int64)
        while True:
            late = (first > 0) & ((first - 1) * dt >= start)
            early = (first < n_steps) & (first * dt < start)
            if not (late.any() or early.any()):
                break
            first = first - late + early
        live = first < n_steps
        steps = [first[live]]
        flows = [np.flatnonzero(live)]
        b_idx = st["b_idx"]
        if b_idx.size:
            start_b, period_b, on_b = st["start_b"], st["period_b"], st["on_b"]
            rows = max(1, PLAN_CHUNK // b_idx.size)
            prev = None
            for k0 in range(0, n_steps, rows):
                t = np.arange(k0, min(n_steps, k0 + rows)) * dt
                off = np.mod(t[:, None] - start_b, period_b) >= on_b
                if prev is not None:
                    flip = np.flatnonzero(off[0] != prev)
                    steps.append(np.full(flip.size, k0))
                    flows.append(b_idx[flip])
                k, b = np.nonzero(off[1:] != off[:-1])
                steps.append(k0 + 1 + k)
                flows.append(b_idx[b])
                prev = off[-1]
        steps_a, flows_a = np.concatenate(steps), np.concatenate(flows)
        if not steps_a.size:
            return {}
        order = np.lexsort((flows_a, steps_a))
        steps_a, flows_a = steps_a[order], flows_a[order]
        cut = np.flatnonzero(np.diff(steps_a)) + 1
        return {int(s[0]): np.unique(f)
                for s, f in zip(np.split(steps_a, cut), np.split(flows_a, cut))}

    def _flow_arrays(self) -> dict[str, Any]:
        """Static per-flow arrays the step loop reads.

        Everything here is loop-invariant: sizes, start times, the
        bursty index set with its precomputed on-window lengths, each
        flow's class name and repeat flag.  Hoisting it out of the step
        loop is a pure-overhead win (the per-step ``np.flatnonzero`` and
        attribute lookups it replaces dominated the per-step profile).
        """
        flows = self.flows
        size = np.array([f.size_bytes if f.size_bytes is not None
                         else np.inf for f in flows])
        start = np.array([f.start_s for f in flows])
        duty = np.array([f.burst_duty for f in flows])
        period = np.array([f.burst_period_s or 1.0 for f in flows])
        b_idx = np.flatnonzero(duty < 1.0)
        cls_names = sorted({f.cls for f in flows})
        return {
            "size": size, "start": start, "finite": np.isfinite(size),
            "b_idx": b_idx, "bursty": duty < 1.0, "period": period,
            "on_len": duty * period, "start_b": start[b_idx],
            "period_b": period[b_idx],
            "on_b": duty[b_idx] * period[b_idx],
            "cls_names": cls_names,
            "cls_idx": np.array([cls_names.index(f.cls) for f in flows]),
            "cls_of": [f.cls for f in flows],
            "repeats": np.array([f.repeat for f in flows], dtype=bool),
        }

    def _finalise(self, cfg: TimeflowConfig, *, st: dict[str, Any],
                  injected: np.ndarray, completed: np.ndarray,
                  fct: dict[str, list[float]], wire: dict[str, list[float]],
                  arr_sum: np.ndarray, max_q: float, marks: int,
                  n_steps: int) -> TimeflowResult:
        """One scenario's (one column's) statistics + counters."""
        horizon = n_steps * cfg.dt_s
        mean_rates = injected / horizon
        classes: dict[str, ClassReport] = {}
        fct_arr = {c: np.asarray(v) for c, v in fct.items()}
        wire_arr = {c: np.asarray(v) for c, v in wire.items()}
        for i, c in enumerate(st["cls_names"]):
            sel = st["cls_idx"] == i
            sent = float(injected[sel].sum())
            classes[c] = ClassReport(
                cls=c, completed=int(completed[sel].sum()),
                fct=fct_stats(fct_arr[c]), latency=fct_stats(wire_arr[c]),
                bytes_injected=sent, goodput=sent / horizon)

        obs.counter("fabric.timeflow.steps").inc(n_steps)
        obs.counter("fabric.timeflow.flows").inc(len(self.flows))
        obs.counter("fabric.timeflow.marks").inc(marks)
        obs.counter("fabric.timeflow.completions").inc(
            int(completed.sum()))
        for c in st["cls_names"]:
            if wire_arr[c].size:
                obs.histogram("fabric.timeflow.latency_s").observe_many(
                    wire_arr[c])
        util = arr_sum / n_steps / self.caps
        return TimeflowResult(
            config=cfg, classes=classes, fct_samples=fct_arr,
            latency_samples=wire_arr, mean_rates=mean_rates,
            max_queue_bytes=max_q,
            max_link_utilisation=float(np.minimum(util, 1.0).max()),
            marks=marks, steps=n_steps)

    def _check_shared_axes(self, cfg: TimeflowConfig) -> None:
        """Reject a config whose time grid/precompute axes differ from ours.

        Path planning is load-adaptive (UGAL draws Valiant candidates
        from the router's RNG), so two engine constructions over the
        same network may plan different paths.  Bit-identical
        column-vs-oracle comparisons therefore reuse ONE engine —
        ``run(config=...)`` / ``run_ensemble`` — and only the control
        knobs may vary; anything feeding the precompute must match.
        """
        for name in ENSEMBLE_SHARED_AXES:
            if getattr(cfg, name) != getattr(self.config, name):
                raise ConfigurationError(
                    f"scenarios over one engine must share {name}: "
                    f"{getattr(cfg, name)!r} != "
                    f"{getattr(self.config, name)!r}")

    def run(self, config: TimeflowConfig | None = None) -> TimeflowResult:
        """Step the fluid model to the horizon and extract statistics.

        ``config`` overrides the control knobs for this run while
        reusing the engine's planned paths and incidence.  The run is a
        one-column integration of the :meth:`run_ensemble` loop.
        """
        if config is None:
            config = self.config
        else:
            self._check_shared_axes(config)
        return self._integrate((config,))[0]

    def run_ensemble(self, configs: Sequence[TimeflowConfig]
                     ) -> tuple[TimeflowResult, ...]:
        """Integrate ``S = len(configs)`` scenarios as one batched run.

        Rates, queues, and AIMD state become ``(flows, S)`` /
        ``(links, S)`` arrays and the arrival matvec becomes one sparse
        matmul, so the whole ensemble costs one step loop instead of S
        (quiet steps are one add for all columns; a column event costs
        only its own column's path rows).  Per-scenario control
        parameters (``ecn``, ``ecn_k``, ``backoff``, ``growth_frac``,
        ``min_rate_frac``, ``warmup_s``)
        live in per-column vectors; the axes that shape the time grid
        and the precompute (:data:`ENSEMBLE_SHARED_AXES`) must match
        this engine's config.

        Contract (the ``chunk=1`` idiom of :mod:`repro.fabric.batchroute`,
        pinned by ``tests/fabric/test_ensemble.py``): every returned
        :class:`TimeflowResult` is **bit-identical** to :meth:`run` of
        ``configs[s]`` on this engine and to the per-flow reference loop
        in ``tests/fabric/timeflow_oracle.py`` — CSR column-matmuls
        accumulate in the same order as a single-column matvec, and
        every per-column arithmetic op mirrors the scalar expression.
        """
        configs = tuple(configs)
        if not configs:
            raise ConfigurationError("an ensemble needs at least one scenario")
        for cfg in configs:
            self._check_shared_axes(cfg)
        results = self._integrate(configs)
        obs.counter("fabric.timeflow.ensemble_runs").inc()
        obs.counter("fabric.timeflow.ensemble_scenarios").inc(len(configs))
        return results

    def _plan_steps(self, any_ecn: bool
                    ) -> tuple[list[int], list[np.ndarray | None], list[bool]]:
        """The steps the loop cannot fast-forward over, in order.

        Returns ``(steps, switching, control)``.  A *full* step
        (``switching`` is ``None``) may change any flow's injection in
        every column: step 0 and, with ECN, the step after each control
        step, where rates move.  Otherwise ``switching`` lists the flows
        whose gate can flip there (:meth:`_plan_switches`: starts and
        burst edges), and only those flows' injections can change; it is
        empty at a control step with no switch.  A *control* step runs
        the marking law.
        """
        n_steps = self._n_steps
        control = (range(0, n_steps, self._control_every) if any_ecn
                   else range(0))
        full = {0} | {j + 1 for j in control if j + 1 < n_steps}
        steps = sorted(full | set(control) | self._switches.keys())
        none = np.zeros(0, dtype=np.int64)
        return (steps,
                [None if j in full else self._switches.get(j, none)
                 for j in steps],
                [j % self._control_every == 0 and any_ecn for j in steps])

    def _integrate(self, configs: tuple[TimeflowConfig, ...]
                   ) -> tuple[TimeflowResult, ...]:
        """The step loop behind :meth:`run` and :meth:`run_ensemble`.

        Between discrete events every injection is bitwise constant, so
        the link arrivals ``A @ inj`` and the queue increments ``diff``
        are too, and a *quiet* step is one in-place add of the constant
        increments onto the packed state (``arr_sum``, ``q``,
        ``injected``, ``remaining``).  The ``q >= 0`` clamp and the peak
        queue are deferred to the end of each row's constant run: with a
        constant ``diff`` the unclamped running sum, clamped once, equals
        the per-step clamped sequence, and ``q`` is monotone in between.

        Three kinds of event interrupt the quiet runs.  A *full* step
        (:meth:`_plan_steps`: step 0 and an ECN control step's
        successor, where rates move) recomputes every injection with the
        full matmul.  A *switch* step (a start or a burst edge)
        recomputes the gate and injection of the flows that switch there
        only, and re-derives the union of their path rows with one
        sub-matmul (:func:`switch_flows`).  A *column event* touches one
        finite (flow, column) entry: its partial last step, completion,
        restart or stop.  A one-step deviation (the partial last step of
        a repeating transfer) is applied to that column's path rows
        alone, in scalar arithmetic in CSR order; a lasting change
        re-derives the flow's path rows with a sub-matmul.  All are
        bit-identical to the full matmul's rows.  Each finite entry's
        next event step comes from a calendar that replays its scalar
        ``remaining`` sequence; a repeating transfer always restarts
        from ``size``, so replays are cached by state.

        Only the ``nq`` queue rows (:meth:`_partition_rows`) carry
        ``q``, ``diff`` and the peak; the other active rows integrate
        their arrivals only.
        """
        S = len(configs)
        n = len(self.flows)
        n_links = len(self.caps)
        dt = self.config.dt_s
        n_steps = self._n_steps

        st = self._st
        size, start, finite = st["size"], st["start"], st["finite"]
        bursty, period, on_len = st["bursty"], st["period"], st["on_len"]
        b_idx, start_b = st["b_idx"], st["start_b"]
        period_b, on_b = st["period_b"], st["on_b"]
        cls_of, repeats = st["cls_of"], st["repeats"]

        active, nq = self._active, self._nq
        A_act, AT_act, AT_mark = self._A_act, self._AT_act, self._AT_mark
        caps_act = self._caps_act
        caps_q = caps_act[:nq]
        na = active.size

        # Per-column (scenario) control parameters, broadcast-ready.
        # Products mirror the scalar expressions element-for-element
        # (``c.ecn_k * c.mtu_bytes``, ``1.0 - c.backoff``,
        # ``c.growth_frac * peak[f]``) so columns stay bit-identical.
        ecn_row = np.array([c.ecn for c in configs], dtype=bool)[None, :]
        any_ecn = bool(ecn_row.any())
        threshold = np.array([c.ecn_k * c.mtu_bytes for c in configs])
        keep = np.array([1.0 - c.backoff for c in configs])[None, :]
        growth = (self.peak[:, None]
                  * np.array([c.growth_frac for c in configs])[None, :])
        rate_floor = (self.peak[:, None]
                      * np.array([c.min_rate_frac for c in configs])[None, :])
        rate_cap_col = self.rate_cap[:, None]
        warmup = [c.warmup_s for c in configs]

        # The state a quiet step advances, packed so that the step is ONE
        # add: ``V += D`` is ``arr_sum += arrivals; q += diff;
        # injected += inj*dt; remaining += -(inj*dt)`` (negating the
        # subtrahend is exact, so the last is ``remaining -= inj*dt``).
        # Flow state is (flows, S): column s IS scenario s, and the
        # injections stay C-contiguous for the matmul.
        nas, nqs, ns = na * S, nq * S, n * S
        V = np.zeros(nas + nqs + 2 * ns)
        D = np.zeros_like(V)
        arr_sum = V[:nas].reshape(na, S)
        q = V[nas:nas + nqs].reshape(nq, S)
        injected = V[nas + nqs:nas + nqs + ns].reshape(n, S)
        remaining = V[nas + nqs + ns:].reshape(n, S)
        arrivals = D[:nas].reshape(na, S)
        diff = D[nas:nas + nqs].reshape(nq, S)
        inj_dt = D[nas + nqs:nas + nqs + ns].reshape(n, S)
        neg_inj_dt = D[nas + nqs + ns:].reshape(n, S)
        remaining[...] = size[:, None]

        start_col = start[:, None]
        rate = np.repeat(rate_cap_col, S, axis=1)
        inj = np.zeros((n, S))
        on = np.zeros((n, S), dtype=bool)
        done = np.zeros((n, S), dtype=bool)
        completed = np.zeros((n, S), dtype=np.int64)
        qpeak = np.zeros((nq, S))
        arr_flat, q_flat = V[:nas], V[nas:nas + nqs]
        injected_flat = V[nas + nqs:nas + nqs + ns]
        remaining_flat = V[nas + nqs + ns:]
        inj_flat, qpeak_flat = inj.ravel(), qpeak.ravel()
        fct = [{c: [] for c in st["cls_names"]} for _ in range(S)]
        wire = [{c: [] for c in st["cls_names"]} for _ in range(S)]
        marks = np.zeros(S, dtype=np.int64)

        # The column-event calendar: ``due[i][s]`` is the next step at
        # which finite flow ``fin[i]`` in column ``s`` may change its
        # injection or finish (no other step touches that entry), and
        # ``heap`` orders the pending ``(step, i, s)``; an entry whose
        # ``due`` moved on is stale and skipped.
        fin = np.flatnonzero(finite)
        fin_l = fin.tolist()
        fin_pos = np.full(n, -1)        # flow -> calendar index
        fin_pos[fin] = np.arange(fin.size)
        due: list[list[int | None]] = [[None] * S for _ in fin_l]
        # Per entry: completions, the current transfer's start, and the
        # sample lists its completions append to.
        n_done = [[0] * S for _ in fin_l]
        xfer = [[float(start[f])] * S for f in fin_l]
        samples = [[(fct[s][cls_of[f]], wire[s][cls_of[f]]) for s in range(S)]
                   for f in fin_l]
        heap: list[tuple[int, int, int]] = []
        size_l, repeats_l = size.tolist(), repeats.tolist()
        base_latency = self.base_latency.tolist()
        replays: dict[tuple[float, float, float], tuple[int, bool]] = {}
        paths: dict[int, _Path] = {}
        heads: dict[int, tuple] = {}
        d_version = 0    # bumped whenever ``D``'s injections change

        def path_of(f: int) -> _Path:
            p = paths.get(f)
            if p is None:
                lo, hi = AT_act.indptr[f], AT_act.indptr[f + 1]
                rows = AT_act.indices[lo:hi]
                caps_r = caps_act[rows, 0].tolist()
                rows_S = (rows * S).tolist()
                n_q = int(np.searchsorted(rows, nq))    # queue rows lead
                ip, ix, w = A_act.indptr, A_act.indices, A_act.data
                own = [ip[r] + int(np.flatnonzero(ix[ip[r]:ip[r + 1]] == f)[0])
                       for r in rows.tolist()]
                before = np.concatenate(
                    [np.arange(ip[r], c) for r, c in zip(rows.tolist(), own)]
                    + [np.zeros(0, dtype=np.int64)])
                p = paths[f] = _Path(
                    head=sparse.csr_matrix(
                        (w[before], ix[before], np.concatenate(
                            ([0], np.cumsum(np.array(own) - ip[rows])))),
                        shape=(rows.size, n)),
                    delay_terms=list(zip(rows_S[:n_q], AT_act.data[
                        lo:lo + n_q].tolist(), caps_r[:n_q])),
                    row_terms=[
                        (rS, (ix[ip[r]:ip[r + 1]] * S).tolist(),
                         w[ip[r]:ip[r + 1]].tolist(), cap, float(w[c]),
                         list(zip((ix[c + 1:ip[r + 1]] * S).tolist(),
                                  w[c + 1:ip[r + 1]].tolist())), r < nq)
                        for r, rS, cap, c in zip(rows.tolist(), rows_S,
                                                 caps_r, own)])
            return p

        def heads_of(f: int) -> np.ndarray:
            """Per path row and column, flow ``f``'s row sum up to (not
            including) its own term, under the current ``D``."""
            h = heads.get(f)
            if h is None or h[0] != d_version:
                head = path_of(f).head
                h = heads[f] = (d_version, _csr_matmul_into(
                    head, inj, np.empty((head.shape[0], S))))
            return h[1]

        def replay(R: float, r: float, cur: float, span: int) -> int:
            """Leading steps (at most ``span``) that inject ``cur`` from
            ``remaining = R`` at rate ``r`` without finishing.

            Replays the loop's own arithmetic: ``R`` falls by ``x =
            cur * dt`` per step, one sequential subtraction at a time
            (``np.add.accumulate`` is sequential), over a window sized
            from ``R / x`` and doubled until the run ends.  Cached by
            ``(R, r, cur)``: a repeating transfer restarts from ``size``
            at the same few rates.
            """
            key = (R, r, cur)
            hit = replays.get(key)
            if hit is not None and (hit[1] or hit[0] >= span):
                return min(hit[0], span)
            x = cur * dt
            n_try = span if x <= 0.0 else min(span, int(R / x) + 4)
            while True:
                seq = np.full(n_try + 1, -x)
                seq[0] = R
                seq = np.add.accumulate(seq)
                ok = np.minimum(r, seq[:-1] / dt) == cur
                ok &= seq[1:] > 1e-9
                if not ok.all():
                    m = int(ok.argmin())
                    break
                if n_try >= span:
                    m = span
                    break
                n_try = min(span, 2 * n_try)
            if len(replays) >= REPLAY_CACHE:
                replays.clear()
            replays[key] = (m, m < span)
            return m

        def blip_cells(blips: list) -> tuple[list, list]:
            """The cells and entries this step's blips touch, as they
            will be after the step: ``(cell, arr_sum, q, qpeak)`` and
            ``(entry, injected, remaining)``, flat, to write back after
            the add.

            A blip's path rows, in its column only, close their constant
            run (clamp and peak) and take one step of arrivals re-summed
            in CSR order: continued from the cached sum before the
            blip's own term, or — in a column with several blips —
            re-summed in full with all of them in place.
            """
            crowded = {s for k, (_, s, _, _) in enumerate(blips)
                       if any(b[1] == s for b in blips[k + 1:])}
            row_heads = [None if s in crowded else heads_of(f)
                         for f, s, _, _ in blips]
            for f, s, v, _ in blips:
                if s in crowded:
                    inj[f, s] = v
            cells, entries = [], []
            for (f, s, v, cur), h in zip(blips, row_heads):
                for k, (rS, flowsS, weights, cap, w_f, tail, queues) in \
                        enumerate(path_of(f).row_terms):
                    if h is None:
                        acc = 0.0
                        for gS, w in zip(flowsS, weights):
                            acc += w * inj_flat.item(gS + s)
                    else:
                        acc = h.item(k, s) + w_f * v
                        for gS, w in tail:
                            acc += w * inj_flat.item(gS + s)
                    c = rS + s
                    if not queues:
                        cells.append((c, arr_flat.item(c) + acc, None, None))
                        continue
                    qr = q_flat.item(c)
                    if not qr > 0.0:    # close the row's constant run
                        qr = 0.0
                    pk = qpeak_flat.item(c)
                    cells.append((c, arr_flat.item(c) + acc,
                                  qr + (acc - cap) * dt,
                                  pk if pk >= qr else qr))
            for f, s, v, cur in blips:
                inj[f, s] = cur
                fs, x = f * S + s, v * dt
                entries.append((fs, injected_flat.item(fs) + x,
                                remaining_flat.item(fs) + -x))
            return cells, entries

        def refresh_rows(flows: Sequence[int]) -> None:
            """Recompute the arrivals and increments on ``flows``' path
            rows from the current injections, closing their constant
            runs."""
            rows, indptr, ix, w = self._path_rows(flows)
            out = _csr_parts_matmul(indptr, ix, w, inj)
            arrivals[rows] = out
            queues = rows < nq
            qrows, out = rows[queues], out[queues]
            qr = q[qrows]
            np.maximum(qr, 0.0, out=qr)
            q[qrows] = qr
            pk = qpeak[qrows]
            np.maximum(pk, qr, out=pk)
            qpeak[qrows] = pk
            out -= caps_q[qrows]
            out *= dt
            diff[qrows] = out

        def switch_flows(j: int, fl: np.ndarray) -> None:
            """A switch step: re-gate and re-inject flows ``fl``, the only
            ones whose gate can flip at step ``j``, with the full step's
            expressions restricted to their rows.

            Every other injection stands: rates move only at control
            steps, whose successors are full steps, and a finite entry's
            own changes are column events.  Changed finite entries are
            booked on the calendar for this step (a flow starting here
            is no blip: its ``inj`` already holds this step's value), and
            the changed flows' path rows are re-derived.
            """
            nonlocal d_version
            t = j * dt
            on_f = ~done[fl] & (start_col[fl] <= t)
            b = np.flatnonzero(bursty[fl])
            if b.size:
                fb = fl[b]
                on_f[b[np.mod(t - start[fb], period[fb]) >= on_len[fb]]] = \
                    False
            on[fl] = on_f
            new = np.where(on_f, np.minimum(rate[fl], remaining[fl] / dt),
                           0.0)
            changed = new != inj[fl]
            moved = changed.any(axis=1)
            if not moved.any():
                return
            for k, s in zip(*np.nonzero(changed)):
                i = fin_pos[fl[k]]
                if i >= 0:
                    due[i][s] = j
                    heappush(heap, (j, int(i), int(s)))
            fl, new = fl[moved], new[moved]
            inj[fl] = new
            x = new * dt
            inj_dt[fl] = x
            neg_inj_dt[fl] = -x
            d_version += 1
            refresh_rows(fl.tolist())

        plan, plan_switching, plan_control = self._plan_steps(any_ecn)
        n_plan, nxt_plan = len(plan), 0
        n_full = n_switch = n_events = 0
        add = np.add
        step = 0
        with obs.span("fabric.timeflow.ensemble", scenarios=S,
                      n_flows=n, steps=n_steps):
            while True:
                j = plan[nxt_plan] if nxt_plan < n_plan else n_steps
                while heap and heap[0][0] < j:
                    d, i, s = heap[0]
                    if due[i][s] == d:
                        j = d
                        break
                    heappop(heap)
                for _ in range(j - step):          # quiet steps
                    add(V, D, out=V)
                if j >= n_steps:
                    break
                full = control = False
                if nxt_plan < n_plan and plan[nxt_plan] == j:
                    switching = plan_switching[nxt_plan]
                    full = switching is None
                    control = plan_control[nxt_plan]
                    nxt_plan += 1
                    if not full and switching.size:
                        n_switch += 1
                        switch_flows(j, switching)

                if full:
                    n_full += 1
                    t = j * dt
                    on = ~done & (start_col <= t)
                    if b_idx.size:
                        # Gating a flow that is already off is a no-op, so
                        # the phase test needs only the static bursty set.
                        phase = np.mod(t - start_b, period_b)
                        on[b_idx[phase >= on_b], :] = False
                    new = np.where(on, np.minimum(rate, remaining / dt), 0.0)
                    if fin_l:
                        changed = new[fin] != inj[fin]
                        for i, s in zip(*np.nonzero(changed)):
                            due[i][s] = j
                            heappush(heap, (j, int(i), int(s)))
                    inj[...] = new
                    d_version += 1
                    _csr_matmul_into(A_act, inj, arrivals)
                    np.maximum(q, 0.0, out=q)
                    np.maximum(qpeak, q, out=qpeak)
                    np.subtract(arrivals[:nq], caps_q, out=diff)
                    diff *= dt
                    np.multiply(inj, dt, out=inj_dt)
                    np.negative(inj_dt, out=neg_inj_dt)

                # This step's column events, in flow order per column
                # (the order completions are recorded in).
                events = []
                while heap and heap[0][0] == j:
                    _, i, s = heappop(heap)
                    if due[i][s] == j:
                        due[i][s] = None
                        events.append((i, s))
                events.sort()
                n_events += len(events)

                # An entry whose injection this step differs from the
                # constant one in ``D`` (a partial last step) is a
                # one-step *blip*: :func:`blip_cells` gives its path
                # cells in its column after this step, written back after
                # the add, so ``D`` only changes when the constant
                # injection does.  (A full step set every injection.)
                blips = []
                for i, s in events if not full else ():
                    f = fin_l[i]
                    v = 0.0
                    if on.item(f, s):   # ``min(rate, remaining / dt)``
                        v = remaining.item(f, s) / dt
                        r = rate.item(f, s)
                        if not v < r:
                            v = r
                    cur = inj.item(f, s)
                    if v != cur:
                        blips.append((f, s, v, cur))
                cells, entries = blip_cells(blips) if blips else ((), ())

                add(V, D, out=V)

                for c, a_new, q_new, pk in cells:
                    arr_flat[c] = a_new
                    if q_new is None:
                        continue
                    if not q_new > 0.0:
                        q_new = 0.0
                    q_flat[c] = q_new
                    qpeak_flat[c] = pk if pk >= q_new else q_new
                for fs, inj_new, rem_new in entries:
                    injected_flat[fs] = inj_new
                    remaining_flat[fs] = rem_new

                if control:
                    marked = q > threshold[None, :]
                    fm = (AT_mark @ marked.astype(np.int8)) > 0
                    fm &= on
                    fm &= ecn_row
                    marks += fm.sum(axis=0)
                    rate = np.where(fm, rate * keep, rate)
                    grow = on & ~fm & ecn_row
                    rate = np.where(grow, rate + growth, rate)
                    # FIFO columns never clip: a sub-floor rate_limit
                    # must stay where the uncontrolled source left it.
                    rate = np.where(
                        ecn_row,
                        np.clip(rate, rate_floor, rate_cap_col),
                        rate)

                if events:
                    t_end = j * dt + dt
                    span = min(n_steps - j - 1, CALENDAR_SPAN)
                    dirty = set()
                    for i, s in events:
                        f = fin_l[i]
                        fs = f * S + s
                        R = remaining_flat.item(fs)
                        running = on.item(f, s)
                        if running and R <= 1e-9:
                            n_done[i][s] += 1
                            if t_end >= warmup[s]:
                                # Last-byte delay, summed in the order
                                # of ``AT_act @ (q / caps)``.
                                acc = 0.0
                                for rS, w, cap in path_of(f).delay_terms:
                                    qv = q_flat.item(rS + s)
                                    if qv > 0.0:
                                        acc += w * (qv / cap)
                                delay = base_latency[f] + acc
                                fct_l, wire_l = samples[i][s]
                                fct_l.append(t_end - xfer[i][s] + delay)
                                wire_l.append(delay)
                            if repeats_l[f]:
                                R = size_l[f]
                                remaining_flat[fs] = R
                                xfer[i][s] = t_end
                            else:
                                running = False
                                done[f, s] = True
                                on[f, s] = False
                        v = r = 0.0
                        if running:
                            v, r = R / dt, rate.item(f, s)
                            if not v < r:
                                v = r
                        if v != inj.item(f, s):
                            inj[f, s] = v
                            x = v * dt
                            inj_dt[f, s] = x
                            neg_inj_dt[f, s] = -x
                            dirty.add(f)
                        if not running:
                            continue
                        # Book the entry's next event from a replay of
                        # its ``remaining`` at the new constant injection.
                        m = replay(R, r, v, span)
                        due[i][s] = j + 1 + m
                        heappush(heap, (j + 1 + m, i, s))
                    if dirty:
                        refresh_rows(sorted(dirty))
                        d_version += 1
                step = j + 1

        # Close every row's open constant run.
        np.maximum(q, 0.0, out=q)
        np.maximum(qpeak, q, out=qpeak)
        obs.counter("fabric.timeflow.dense_steps").inc(n_full)
        obs.counter("fabric.timeflow.start_steps").inc(n_switch)
        obs.counter("fabric.timeflow.column_events").inc(n_events)
        obs.counter("fabric.timeflow.queue_rows").inc(nq)
        if fin_l:
            completed[fin] = n_done
        max_q = qpeak.max(axis=0) if nq else np.zeros(S)
        arr_sum_full = np.zeros((n_links, S))
        arr_sum_full[active] = arr_sum
        return tuple(
            self._finalise(cfg, st=st, injected=injected[:, s],
                           completed=completed[:, s], fct=fct[s], wire=wire[s],
                           arr_sum=arr_sum_full[:, s], max_q=float(max_q[s]),
                           marks=int(marks[s]), n_steps=n_steps)
            for s, cfg in enumerate(configs))


#: :class:`TimeflowConfig` axes every scenario of one ensemble must share:
#: they define the time grid, marking cadence, and the per-flow precompute
#: (peak rates, unloaded latencies), so they cannot vary per column.
ENSEMBLE_SHARED_AXES = ("dt_s", "horizon_s", "mtu_bytes",
                        "control_interval_s", "base_latency_s")


# -- traffic patterns ---------------------------------------------------------


def incast_pattern(network, *, fanin: int, target: int = 0,
                   duty: float = 1.0, burst_period_s: float = 5e-5,
                   congestor_rate: float | None = None,
                   elephants: int = 0,
                   victim_rate_frac: float = 0.05,
                   victim_size_bytes: float | None = None,
                   mtu_bytes: float = 4096.0,
                   rng: RngLike = None) -> list[FlowSpec]:
    """The GPCNeT-style incast scenario: ``fanin`` senders -> one victim.

    ``fanin`` congestor sources on distinct switches all transmit to
    ``target`` (elephants, optionally bursty with ``duty``), so the
    victim's down edge link is the hotspot.  One rate-limited canary
    stream (class ``victim``) of back-to-back single-MTU transfers
    shares that link and measures latency, GPCNeT's victim probe.
    ``elephants`` adds long cross-fabric background flows (class
    ``elephant``) that overlap the incast on global links; their start
    times draw from ``rng``.
    """
    if fanin < 1:
        raise ConfigurationError("incast needs fanin >= 1")
    n = network.config.total_endpoints
    flat = network.topology.flat
    if not 0 <= target < n:
        raise ConfigurationError(f"target endpoint {target} out of range")
    tsw = int(flat.endpoint_switch[target])
    candidates = [ep for ep in range(n)
                  if ep != target and int(flat.endpoint_switch[ep]) != tsw]
    if fanin + 1 > len(candidates):
        raise ConfigurationError(
            f"incast fanin {fanin} needs {fanin + 1} off-switch endpoints; "
            f"the fabric has {len(candidates)}")
    stride = max(1, len(candidates) // (fanin + 1))
    picks = candidates[::stride]
    senders, victim_src = picks[:fanin], picks[fanin]
    flows = [FlowSpec(src=s, dst=target, cls="congestor",
                      rate_limit=congestor_rate, burst_duty=duty,
                      burst_period_s=burst_period_s if duty < 1.0 else None)
             for s in senders]
    link_rate = float(network.config.link_rate)
    flows.append(FlowSpec(
        src=victim_src, dst=target,
        size_bytes=victim_size_bytes or mtu_bytes, cls="victim",
        rate_limit=victim_rate_frac * link_rate, repeat=True))
    if elephants:
        gen = as_generator(rng)
        used = set(senders) | {victim_src, target}
        free = [ep for ep in range(n) if ep not in used]
        if len(free) < 2 * elephants:
            raise ConfigurationError(
                f"{elephants} elephants need {2 * elephants} free endpoints")
        half = len(free) // 2
        for i in range(elephants):
            flows.append(FlowSpec(
                src=free[i], dst=free[half + i], cls="elephant",
                start_s=float(gen.uniform(0.0, burst_period_s))))
    return flows


# -- cross-validation against the analytic model ------------------------------


@dataclass(frozen=True)
class ImpactValidation:
    """Measured vs analytic victim latency impact (see module doc)."""

    measured: float
    analytic: float
    victim_load: float
    congestor_load: float
    duty: float
    samples: int
    tolerance: float = 0.15

    @property
    def ratio(self) -> float:
        return self.measured / self.analytic

    @property
    def ok(self) -> bool:
        return abs(self.ratio - 1.0) <= self.tolerance

    def to_doc(self) -> dict[str, Any]:
        return {"measured": self.measured, "analytic": self.analytic,
                "ratio": self.ratio, "ok": self.ok,
                "victim_load": self.victim_load,
                "congestor_load": self.congestor_load,
                "duty": self.duty, "samples": self.samples,
                "tolerance": self.tolerance}


def _validation_network():
    """The reduced-scale dragonfly the validation scenarios run on."""
    from repro.core.scenario import frontier_spec
    return frontier_spec().scaled(8, 4, 4).build_network(rng=0)


def validate_victim_impact(*, victim_load: float = 0.1,
                           congestor_load: float = 0.6,
                           duty: float = 0.3, fanin: int = 8,
                           periods: int = 80,
                           network=None) -> ImpactValidation:
    """Reconstruct the analytic victim impact factor in the fluid limit.

    The analytic model (:meth:`CongestionControl.impact` with the
    mechanism disabled — the EDR/FIFO arm) says a victim at utilisation
    ``v`` sharing a bottleneck with congestor load ``c`` sees its mean
    latency multiplied by ``(1 + occ/(1-occ)) / (1 + v/(1-v))`` with
    ``occ = v + c``: an M/M/1 occupancy abstraction.

    The fluid counterpart: square-wave congestors of mean load ``c`` and
    duty ``d`` overload the victim's edge link during bursts, building a
    triangle-wave queue whose time-average is ``B·T_on·(1 + B/D)·d / 2``
    (build rate ``B``, drain rate ``D``).  Solving for the burst length
    ``T_on`` that gives the *same mean queue* the analytic model
    predicts turns the equivalence into a property the engine must
    reproduce by simulating — queue build-up, drain, duty gating, and
    last-byte latency extraction all have to be right for the measured
    multiplier to land within tolerance.  No marking runs (``ecn=False``
    is the FIFO arm the analytic numbers describe).
    """
    if not 0.0 < victim_load < 1.0 or not 0.0 < congestor_load < 1.0:
        raise ConfigurationError("loads must be in (0, 1)")
    if not 0.0 < duty <= 1.0:
        raise ConfigurationError("duty must be in (0, 1]")
    if congestor_load / duty + victim_load <= 1.0:
        raise ConfigurationError(
            "bursts never overload the link: need c/duty + v > 1")
    net = network if network is not None else _validation_network()
    C = float(net.config.link_rate)
    mtu = 4096.0
    v, c, d = victim_load, congestor_load, duty

    analytic = CongestionControl(enabled=False).impact(
        victim_load=v, congestor_load=c).latency_avg
    # Burst length whose triangle-wave queue has the analytic mean:
    # E[q] = B * T_on * (1 + B/D) * d / 2  ==  mtu * (analytic - 1).
    build = (c / d + v - 1.0) * C
    drain = (1.0 - v) * C
    q_target = mtu * (analytic - 1.0)
    t_on = 2.0 * q_target / (build * (1.0 + build / drain) * d)
    period = t_on / d
    dt = t_on / 24.0

    flows = incast_pattern(
        net, fanin=fanin, duty=d, burst_period_s=period,
        congestor_rate=c * C / (d * fanin),
        victim_rate_frac=v, mtu_bytes=mtu)
    base_cfg = TimeflowConfig(
        dt_s=dt, horizon_s=periods * period, mtu_bytes=mtu, ecn=False,
        base_latency_s=mtu / C)
    victims_only = [f for f in flows if f.cls == "victim"]
    quiet = TimeflowEngine(net, victims_only, base_cfg).run()
    loud = TimeflowEngine(net, flows, base_cfg).run()
    measured = (loud.cls("victim").latency["mean"]
                / quiet.cls("victim").latency["mean"])
    return ImpactValidation(
        measured=measured, analytic=analytic, victim_load=v,
        congestor_load=c, duty=d,
        samples=int(loud.cls("victim").latency["n"]))


# -- the k-sweep study + resumable artifacts ----------------------------------


@dataclass(frozen=True)
class CongestConfig:
    """One ``python -m repro congest`` study: a k-sweep over one incast."""

    ks: tuple[int, ...] = (10, 30, 60)
    include_fifo: bool = True
    fanin: int = 8
    duty: float = 1.0
    burst_period_s: float = 5e-5
    elephants: int = 2
    horizon_s: float = 3e-4
    dt_s: float = 5e-8
    #: Completions in the first third of the horizon are start-up
    #: transient (queues overshoot before the control loop engages);
    #: excluding them is what makes the victim tail scale with ``k``.
    warmup_frac: float = 1 / 3
    seed: int = 0

    def __post_init__(self) -> None:
        if any(not k >= 1 for k in self.ks):
            raise ConfigurationError("ECN thresholds must be >= 1 MTU")
        # Dedupe, keeping first-occurrence order: a duplicated k used to
        # silently double the study's work.
        object.__setattr__(self, "ks", tuple(dict.fromkeys(self.ks)))
        if not self.ks and not self.include_fifo:
            raise ConfigurationError("a congest study needs at least one arm")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ConfigurationError("warmup_frac must be in [0, 1)")
        if not self.fanin >= 1:
            raise ConfigurationError("fanin must be >= 1")
        # A negative count used to run as zero elephants under its own
        # run id.
        if not self.elephants >= 0:
            raise ConfigurationError("elephants must be >= 0")
        if not 0.0 < self.duty <= 1.0:
            raise ConfigurationError("duty must be in (0, 1]")
        for name in ("burst_period_s", "dt_s", "horizon_s"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {"ks": list(self.ks), "include_fifo": self.include_fifo,
                "fanin": self.fanin, "duty": self.duty,
                "burst_period_s": self.burst_period_s,
                "elephants": self.elephants, "horizon_s": self.horizon_s,
                "dt_s": self.dt_s, "warmup_frac": self.warmup_frac,
                "seed": self.seed}

    def arm_config(self, ecn_k: float | None = None,
                   backoff: float = 0.5) -> TimeflowConfig:
        """The engine config of one arm: FIFO when ``ecn_k`` is ``None``."""
        return TimeflowConfig(dt_s=self.dt_s, horizon_s=self.horizon_s,
                              ecn=ecn_k is not None, ecn_k=ecn_k or 0.0,
                              backoff=backoff,
                              warmup_s=self.warmup_frac * self.horizon_s)


#: Beyond this many endpoints the study auto-reduces to the validation
#: geometry (building the full 37,888-endpoint fabric for a fluid study
#: is the same wall the flow-level mpigraph probe hits).
CONGEST_MAX_ENDPOINTS = 4096


def congest_spec(spec):
    """The spec a congest study runs on: beyond
    :data:`CONGEST_MAX_ENDPOINTS` endpoints, its 8x4x4 reduction."""
    if spec.fabric_config().total_endpoints > CONGEST_MAX_ENDPOINTS:
        return spec.scaled(8, 4, 4)
    return spec


def congest_scenario(spec, config: CongestConfig):
    """``(reduced spec, network, flows)`` of one congest study.

    Deterministic in ``(spec, config)``: the network and the incast's
    elephant start times both draw from ``config.seed``, so two calls
    plan identical paths and every arm of a study sees the same traffic.
    """
    spec = congest_spec(spec)
    net = spec.build_network(rng=config.seed)
    flows = incast_pattern(
        net, fanin=config.fanin, duty=config.duty,
        burst_period_s=config.burst_period_s, elephants=config.elephants,
        rng=config.seed)
    return spec, net, flows


def run_congest(spec, config: CongestConfig | None = None) -> dict[str, Any]:
    """Run the k-sweep incast study for ``spec``; returns the artifact doc.

    Arms: one FIFO (no backpressure) run plus one ECN run per threshold
    in ``config.ks``, all over the identical traffic pattern, so the
    victim's tail across arms is the GPCNeT Table-5 story told by
    simulation: unbounded under FIFO, pinned near ``k`` MTUs under ECN.

    Every arm shares the topology, the flows, and one path plan (UGAL
    planning is RNG-fed, so the paths are planned once and reused —
    never re-planned per arm), so the whole sweep integrates as **one
    ensemble** (:meth:`TimeflowEngine.run_ensemble` — one step loop
    for all arms, which fast-forwards the steps where no injection
    changes).  Each arm is bit-identical to a
    one-column :meth:`TimeflowEngine.run` of its config on the same
    engine, which the tests pin against a per-flow reference loop.
    """
    config = config if config is not None else CongestConfig()
    run_spec, net, flows = congest_scenario(spec, config)
    ks: list[float | None] = [None] if config.include_fifo else []
    ks.extend(float(k) for k in config.ks)
    cfgs = [config.arm_config(k) for k in ks]
    engine = TimeflowEngine(net, flows, cfgs[0])
    with obs.span("fabric.timeflow.study", arms=len(cfgs)):
        results = engine.run_ensemble(cfgs)
    arms: list[dict[str, Any]] = [
        {"mode": "fifo" if k is None else "ecn", "ecn_k": k,
         **result.to_doc()}
        for k, result in zip(ks, results)]
    doc: dict[str, Any] = {
        "schema": CONGEST_SCHEMA_VERSION,
        "status": "ok",
        "run_id": congest_run_id(spec, config),
        "spec": spec.to_dict(),
        "network": run_spec.name,
        "config": config.to_dict(),
        "arms": arms,
    }
    fifo = next((a for a in arms if a["mode"] == "fifo"), None)
    if fifo is not None and len(arms) > 1:
        fifo_p99 = fifo["classes"]["victim"]["latency_s"]["p99"]
        doc["fifo_vs_ecn_p99"] = {
            str(int(a["ecn_k"])): fifo_p99
            / a["classes"]["victim"]["latency_s"]["p99"]
            for a in arms if a["mode"] == "ecn"}
    return doc


def run_congest_cached(spec, config: CongestConfig | None = None, *,
                       out_dir: str = DEFAULT_CONGEST_DIR,
                       fresh: bool = False
                       ) -> tuple[dict[str, Any], str, bool]:
    """Run (or resume) a congest study; returns (doc, path, resumed)."""
    from repro.obs.export import write_json
    config = config if config is not None else CongestConfig()
    run_id = congest_run_id(spec, config)
    path = CONGEST_LEDGER.path(out_dir, run_id)
    doc = None if fresh else CONGEST_LEDGER.resume(out_dir, run_id)
    if doc is not None:
        obs.counter("fabric.timeflow.artifacts_resumed").inc()
        return doc, path, True
    doc = run_congest(spec, config)
    write_json(path, doc)
    obs.counter("fabric.timeflow.artifacts_written").inc()
    return doc, path, False


def run_congest_grid(spec, config: CongestConfig | None = None, *,
                     backoffs: Sequence[float] = (0.25, 0.5, 0.75),
                     ) -> dict[str, Any]:
    """The ``k x backoff`` congestion-control ablation grid, one ensemble.

    The PR-6 follow-on the batched engine makes affordable: every
    ``(ecn_k, backoff)`` cell — plus the FIFO reference when
    ``config.include_fifo`` — shares the incast flows and incidence, so
    a ``len(ks) x len(backoffs)`` grid costs one integration instead of
    one engine run per cell.  Each cell is bit-identical to a one-column
    :meth:`TimeflowEngine.run` of its config on the same engine (same
    oracle contract as :func:`run_congest`).  Grids are not cached:
    they are interactive ablations, and the ensemble keeps recomputing
    them cheap.
    """
    config = config if config is not None else CongestConfig()
    backoffs = tuple(float(b) for b in backoffs)
    if not backoffs:
        raise ConfigurationError("an ablation grid needs >= 1 backoff")
    if any(not 0.0 < b < 1.0 for b in backoffs):
        raise ConfigurationError("backoffs must be in (0, 1)")
    if not config.ks:
        raise ConfigurationError("an ablation grid needs >= 1 ECN threshold")
    run_spec, net, flows = congest_scenario(spec, config)
    cells: list[tuple[float | None, float | None]] = []
    if config.include_fifo:
        cells.append((None, None))
    cells.extend((float(k), b) for k in config.ks for b in backoffs)
    cfgs = [config.arm_config(k) if b is None else config.arm_config(k, b)
            for k, b in cells]
    with obs.span("fabric.timeflow.grid", cells=len(cells)):
        results = TimeflowEngine(net, flows, cfgs[0]).run_ensemble(cfgs)
    doc: dict[str, Any] = {
        "schema": CONGEST_SCHEMA_VERSION,
        "status": "ok",
        "network": run_spec.name,
        "config": config.to_dict(),
        "backoffs": list(backoffs),
        "cells": [],
    }
    for (k, b), result in zip(cells, results):
        victim = result.cls("victim")
        cell = {
            "mode": "fifo" if k is None else "ecn",
            "ecn_k": k, "backoff": b,
            "victim_p50_s": victim.latency["p50"],
            "victim_p99_s": victim.latency["p99"],
            "victim_completed": victim.completed,
            "congestor_goodput_bytes_per_s": result.cls("congestor").goodput,
            "max_queue_mtus": result.max_queue_bytes
            / result.config.mtu_bytes,
            "marks": result.marks,
        }
        doc["cells"].append(cell)
    return doc
