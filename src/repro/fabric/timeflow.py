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
is its one-column case.  It walks named parts of one per-integration
state (:class:`_Integration`): step plan, quiet run, re-gate (full and
switch steps alike), column events, control law, finalise.  The plain
per-flow loop it was derived from is kept in
``tests/fabric/timeflow_oracle.py`` as the reference every column must
match bit for bit.  The congest study built on the engine lives in
:mod:`repro.fabric.congest`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools as _spt

from repro import obs
from repro.errors import ConfigurationError, SimulationError
from repro.fabric.batchroute import BatchPaths
from repro.fabric.congestion import CongestionControl
from repro.rng import RngLike, as_generator

__all__ = [
    "FlowSpec", "TimeflowConfig", "ClassReport", "TimeflowResult",
    "TimeflowEngine", "ENSEMBLE_SHARED_AXES",
    "fct_stats", "incast_pattern",
    "ImpactValidation", "validate_victim_impact",
]

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


def _csr_matmul_into(A: "sparse.csr_matrix", x: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """``out[...] = A @ x`` into a preallocated dense buffer.

    Calls the same ``csr_matvecs`` kernel scipy's ``@`` dispatches to (so
    per-column accumulation order — and therefore bits — match the
    scalar matvec exactly) but skips the per-call result allocation and
    dispatch that dominate small-operand matmuls in the ensemble step
    loop.
    """
    out.fill(0.0)
    _spt.csr_matvecs(A.shape[0], A.shape[1], x.shape[1],
                     A.indptr, A.indices, A.data, x.ravel(), out.ravel())
    return out


def _csr_parts_matmul(indptr: np.ndarray, indices: np.ndarray,
                      data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M @ x`` for the CSR matrix ``(data, indices, indptr)``.

    The same ``csr_matvecs`` kernel as :func:`_csr_matmul_into`, on rows
    gathered from a larger matrix without building a scipy matrix: fancy
    row indexing of one costs ~80 µs per call on the full fabric, some
    thirty times the product.
    """
    out = np.zeros((indptr.size - 1, x.shape[1]))
    _spt.csr_matvecs(indptr.size - 1, x.shape[0], x.shape[1], indptr,
                     indices, data, x.ravel(), out.ravel())
    return out


def _injection(running: bool, R: float, r: float, dt: float) -> float:
    """A finite entry's injection this step: the full step's
    ``min(rate, remaining / dt)`` in scalar form while it runs, else 0."""
    if not running:
        return 0.0
    v = R / dt
    return v if v < r else r


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
        """Static per-flow arrays the step loop reads: sizes, start
        times, the bursty index set with its on-window lengths, each
        flow's class name and repeat flag."""
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
                  n_steps: int, caps: np.ndarray | None = None
                  ) -> TimeflowResult:
        """One scenario's (one column's) statistics + counters; ``arr_sum``
        is per row of ``caps`` (default: every link; rows left out carry
        no arrivals, so their utilisation is an exact 0)."""
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
        util = arr_sum / n_steps / (self.caps if caps is None else caps)
        return TimeflowResult(
            config=cfg, classes=classes, fct_samples=fct_arr,
            latency_samples=wire_arr, mean_rates=mean_rates,
            max_queue_bytes=max_q,
            max_link_utilisation=float(
                np.minimum(util, 1.0).max(initial=0.0)),
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
        ``(links, S)`` arrays, so the whole ensemble costs one step loop
        instead of S.  Per-scenario control parameters (``ecn``,
        ``ecn_k``, ``backoff``, ``growth_frac``, ``min_rate_frac``,
        ``warmup_s``) live in per-column vectors; the axes that shape
        the time grid and the precompute (:data:`ENSEMBLE_SHARED_AXES`)
        must match this engine's config.

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
        """The step loop behind :meth:`run` and :meth:`run_ensemble`: the
        step plan (:meth:`_plan_steps`) walked over the parts of one
        :class:`_Integration`."""
        run = _Integration(self, configs)
        plan, switching, control = self._plan_steps(run.any_ecn)
        n_plan, n_steps = len(plan), self._n_steps
        k = step = 0
        with obs.span("fabric.timeflow.ensemble", scenarios=len(configs),
                      n_flows=len(self.flows), steps=n_steps):
            while True:
                j = run.quiet(step, plan[k] if k < n_plan else n_steps)
                if j >= n_steps:
                    break
                full = ctrl = False
                if k < n_plan and plan[k] == j:
                    fl, ctrl = switching[k], control[k]
                    full = fl is None
                    k += 1
                    if full or fl.size:
                        run.regate(j, fl)
                events = run.advance(j, full)
                if ctrl:
                    run.control()
                if events:
                    run.settle(j, events)
                step = j + 1
        return run.finalise()


class _Integration:
    """One :meth:`TimeflowEngine._integrate` call: its state and the
    parts of its step loop (DESIGN.md, "Fast-forwarding quiet steps").

    Flow state is ``(flows, S)``, row state ``(rows, S)``: column ``s``
    is scenario ``s``.  A quiet step is ONE add, ``V += D``: ``arr_sum
    += arrivals; q += diff; injected += inj*dt; remaining += -(inj*dt)``
    (negating the subtrahend is exact).  ``arr_sum`` covers the active
    rows, ``q``, ``diff`` and ``qpeak`` the ``nq`` queue rows.  The
    ``q >= 0`` clamp and the peak wait for the end of each row's
    constant run (exact: ``q`` is monotone within it), which comes when
    the row is re-derived (:meth:`rederive`), a blip crosses it, or the
    horizon ends.  The calendar: ``due[i][s]`` is the next step at which
    finite flow ``fin_l[i]`` in column ``s`` may change its injection or
    finish, and ``heap`` orders the pending ``(step, i, s)``; an entry
    whose ``due`` moved on is stale.  Per-column control parameters
    mirror the scalar expressions element for element, so columns stay
    bit-identical.
    """

    def __init__(self, engine: TimeflowEngine,
                 configs: tuple[TimeflowConfig, ...]):
        self.engine, self.configs = engine, configs
        S = self.S = len(configs)
        n, na, nq = len(engine.flows), engine._active.size, engine._nq
        self.nq, self.n_steps = nq, engine._n_steps
        self.dt = engine.config.dt_s
        st = self.st = engine._st

        def row(name: str) -> np.ndarray:
            return np.array([getattr(c, name) for c in configs])[None, :]
        self.ecn_row = row("ecn").astype(bool)
        self.any_ecn = bool(self.ecn_row.any())
        self.threshold = row("ecn_k") * row("mtu_bytes")
        self.keep = 1.0 - row("backoff")
        self.growth = engine.peak[:, None] * row("growth_frac")
        self.rate_floor = engine.peak[:, None] * row("min_rate_frac")
        self.warmup = [c.warmup_s for c in configs]

        cut = np.cumsum([0, na, nq, n, n]) * S
        self.V = V = np.zeros(cut[-1])
        self.D = D = np.zeros_like(V)
        (self.arr_flat, self.q_flat, self.injected_flat,
         self.remaining_flat) = (V[a:b] for a, b in zip(cut, cut[1:]))
        self.arr_sum, self.q, self.injected, self.remaining = (
            flat.reshape(-1, S) for flat in (self.arr_flat, self.q_flat,
                                             self.injected_flat,
                                             self.remaining_flat))
        self.arrivals, self.diff, self.inj_dt, self.neg_inj_dt = (
            D[a:b].reshape(-1, S) for a, b in zip(cut, cut[1:]))
        self.remaining[...] = st["size"][:, None]

        self.rate = np.repeat(engine.rate_cap[:, None], S, axis=1)
        self.inj = np.zeros((n, S))
        self.on = np.zeros((n, S), dtype=bool)
        self.done = np.zeros((n, S), dtype=bool)
        self.qpeak = np.zeros((nq, S))
        self.inj_flat, self.qpeak_flat = self.inj.ravel(), self.qpeak.ravel()
        self.fct = [{c: [] for c in st["cls_names"]} for _ in range(S)]
        self.wire = [{c: [] for c in st["cls_names"]} for _ in range(S)]
        self.marks = np.zeros(S, dtype=np.int64)

        fin = np.flatnonzero(st["finite"])
        fin_l = self.fin_l = fin.tolist()
        self.fin_pos = np.full(n, -1)        # flow -> calendar index
        self.fin_pos[fin] = np.arange(fin.size)
        self.due: list[list[int | None]] = [[None] * S for _ in fin_l]
        # Per entry: completions, the current transfer's start, and the
        # sample lists its completions append to.
        self.n_done = [[0] * S for _ in fin_l]
        self.xfer = [[float(st["start"][f])] * S for f in fin_l]
        cls_of = st["cls_of"]
        self.samples = [[(self.fct[s][cls_of[f]], self.wire[s][cls_of[f]])
                         for s in range(S)] for f in fin_l]
        self.heap: list[tuple[int, int, int]] = []
        self.size_l, self.repeats_l = st["size"].tolist(), st["repeats"].tolist()
        self.base_latency = engine.base_latency.tolist()
        self.replays: dict[tuple[float, float, float], tuple[int, bool]] = {}
        self.paths: dict[int, _Path] = {}
        self.heads: dict[int, tuple] = {}
        self.d_version = 0    # bumped whenever ``D``'s injections change
        self.n_full = self.n_switch = self.n_events = 0

    def path_of(self, f: int) -> _Path:
        p = self.paths.get(f)
        if p is None:
            eng, S, nq = self.engine, self.S, self.nq
            A_act, AT_act = eng._A_act, eng._AT_act
            lo, hi = AT_act.indptr[f], AT_act.indptr[f + 1]
            rows = AT_act.indices[lo:hi]
            caps_r = eng._caps_act[rows, 0].tolist()
            rows_S = (rows * S).tolist()
            n_q = int(np.searchsorted(rows, nq))    # queue rows lead
            ip, ix, w = A_act.indptr, A_act.indices, A_act.data
            own = [ip[r] + int(np.flatnonzero(ix[ip[r]:ip[r + 1]] == f)[0])
                   for r in rows.tolist()]
            before = np.concatenate(
                [np.arange(ip[r], c) for r, c in zip(rows.tolist(), own)]
                + [np.zeros(0, dtype=np.int64)])
            p = self.paths[f] = _Path(
                head=sparse.csr_matrix(
                    (w[before], ix[before], np.concatenate(
                        ([0], np.cumsum(np.array(own) - ip[rows])))),
                    shape=(rows.size, len(eng.flows))),
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

    def heads_of(self, f: int) -> np.ndarray:
        """Per path row and column, flow ``f``'s row sum up to (not
        including) its own term, under the current ``D``."""
        h = self.heads.get(f)
        if h is None or h[0] != self.d_version:
            head = self.path_of(f).head
            h = self.heads[f] = (self.d_version, _csr_matmul_into(
                head, self.inj, np.empty((head.shape[0], self.S))))
        return h[1]

    def replay(self, R: float, r: float, cur: float, span: int) -> int:
        """Leading steps (at most ``span``) that inject ``cur`` from
        ``remaining = R`` at rate ``r`` without finishing.

        Replays the loop's own arithmetic: ``R`` falls by ``x = cur *
        dt`` per step, one sequential subtraction at a time
        (``np.add.accumulate`` is sequential), over a window sized from
        ``R / x`` and doubled until the run ends.  Cached by ``(R, r,
        cur)``: a repeating transfer restarts from ``size`` at the same
        few rates.
        """
        replays, dt = self.replays, self.dt
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

    def quiet(self, step: int, j: int) -> int:
        """Run the quiet steps from ``step`` up to the earlier of planned
        step ``j`` and the next due column event (dropping stale calendar
        entries), one in-place ``V += D`` each; returns that step."""
        heap, due = self.heap, self.due
        while heap and heap[0][0] < j:
            d, i, s = heap[0]
            if due[i][s] == d:
                j = d
                break
            heappop(heap)
        V, D, add = self.V, self.D, np.add
        for _ in range(j - step):
            add(V, D, out=V)
        return j

    def regate(self, j: int, fl: np.ndarray | None) -> None:
        """Re-gate and re-inject flows ``fl`` at step ``j``, every flow
        when ``fl`` is ``None``.

        ``None`` is a *full* step: step 0 or an ECN control step's
        successor, where every rate may move.  Otherwise ``fl`` lists
        the only flows whose gate can flip at ``j`` (a *switch* step:
        starts and burst edges); every other injection stands, as a
        finite entry's own changes are column events.  Changed finite
        entries are booked on the calendar for this step (a flow
        starting here is no blip: its ``inj`` already holds this step's
        value), and the changed flows' path rows are re-derived.
        """
        full = fl is None
        sel = slice(None) if full else fl
        st, dt, inj = self.st, self.dt, self.inj
        t = j * dt
        on_f = ~self.done[sel] & (st["start"][sel, None] <= t)
        # Gating a flow that is already off is a no-op, so the phase
        # test needs only the bursty ones.
        b = st["b_idx"] if full else np.flatnonzero(st["bursty"][fl])
        if b.size:
            fb = b if full else fl[b]
            on_f[b[np.mod(t - st["start"][fb], st["period"][fb])
                   >= st["on_len"][fb]]] = False
        new = np.where(on_f, np.minimum(self.rate[sel],
                                        self.remaining[sel] / dt), 0.0)
        changed = new != inj[sel]
        ki, si = np.nonzero(changed & st["finite"][sel, None])
        for i, s in zip(self.fin_pos[ki if full else fl[ki]].tolist(),
                        si.tolist()):
            self.due[i][s] = j
            heappush(self.heap, (j, i, s))
        if full:
            self.n_full += 1
            self.on = on_f
        else:
            self.n_switch += 1
            self.on[fl] = on_f
            moved = changed.any(axis=1)
            if not moved.any():
                return
            sel, new = fl[moved], new[moved]
        inj[sel] = new
        x = new * dt
        self.inj_dt[sel] = x
        self.neg_inj_dt[sel] = -x
        self.rederive(None if full else sel.tolist())

    def rederive(self, flows: Sequence[int] | None) -> None:
        """Recompute the arrivals and queue increments on ``flows``' path
        rows (every active row when ``None``: the full matmul) from the
        current injections, closing those rows' constant runs.  The
        gathered sub-matmul's rows are bit-identical to the full one's.
        """
        nq, q, qpeak = self.nq, self.q, self.qpeak
        if flows is None:
            out = _csr_matmul_into(self.engine._A_act, self.inj,
                                   self.arrivals)[:nq]
            qrows = slice(None)
        else:
            rows, indptr, ix, w = self.engine._path_rows(flows)
            out = _csr_parts_matmul(indptr, ix, w, self.inj)
            self.arrivals[rows] = out
            queues = rows < nq
            qrows, out = rows[queues], out[queues]
        qr = q[qrows]
        np.maximum(qr, 0.0, out=qr)
        q[qrows] = qr
        pk = qpeak[qrows]
        np.maximum(pk, qr, out=pk)
        qpeak[qrows] = pk
        d = out - self.engine._caps_act[:nq][qrows]
        d *= self.dt
        self.diff[qrows] = d
        self.d_version += 1

    def advance(self, j: int, full: bool) -> list[tuple[int, int]]:
        """Step ``j``'s add, with its column events' blips (none on a
        full step, which set every injection); returns the events
        ``(i, s)`` in flow order per column (the order completions are
        recorded in)."""
        heap, due = self.heap, self.due
        events = []
        while heap and heap[0][0] == j:
            _, i, s = heappop(heap)
            if due[i][s] == j:
                due[i][s] = None
                events.append((i, s))
        events.sort()
        self.n_events += len(events)
        cells, entries = (self.blip_cells(events) if events and not full
                          else ((), ()))
        np.add(self.V, self.D, out=self.V)
        for c, a_new, q_new, pk in cells:
            self.arr_flat[c] = a_new
            if q_new is None:
                continue
            if not q_new > 0.0:
                q_new = 0.0
            self.q_flat[c] = q_new
            self.qpeak_flat[c] = pk if pk >= q_new else q_new
        for fs, inj_new, rem_new in entries:
            self.injected_flat[fs] = inj_new
            self.remaining_flat[fs] = rem_new
        return events

    def blip_cells(self, events: list[tuple[int, int]]
                   ) -> tuple[list, list]:
        """The cells and entries this step's *blips* touch, as they will
        be after the step: ``(cell, arr_sum, q, qpeak)`` and ``(entry,
        injected, remaining)``, flat, for :meth:`advance` to write back.

        A blip is an event whose entry injects, this step only, other
        than the constant in ``D`` (a partial last step).  Its path rows,
        in its column only, close their constant run and take one step
        of arrivals re-summed in scalar arithmetic in CSR order:
        continued from the cached sum before the blip's own term, or —
        in a column with several blips — re-summed in full with all of
        them in place.
        """
        dt, S, inj, on, rate = self.dt, self.S, self.inj, self.on, self.rate
        fin_l, remaining = self.fin_l, self.remaining
        inj_flat, arr_flat = self.inj_flat, self.arr_flat
        q_flat, qpeak_flat = self.q_flat, self.qpeak_flat
        blips = []
        for i, s in events:
            f = fin_l[i]
            v = _injection(on.item(f, s), remaining.item(f, s),
                           rate.item(f, s), dt)
            cur = inj.item(f, s)
            if v != cur:
                blips.append((f, s, v, cur))
        crowded = {s for k, (_, s, _, _) in enumerate(blips)
                   if any(b[1] == s for b in blips[k + 1:])}
        row_heads = [None if s in crowded else self.heads_of(f)
                     for f, s, _, _ in blips]
        for f, s, v, _ in blips:
            if s in crowded:
                inj[f, s] = v
        cells, entries = [], []
        for (f, s, v, cur), h in zip(blips, row_heads):
            for k, (rS, flowsS, weights, cap, w_f, tail, queues) in \
                    enumerate(self.path_of(f).row_terms):
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
            entries.append((fs, self.injected_flat.item(fs) + x,
                            self.remaining_flat.item(fs) + -x))
        return cells, entries

    def control(self) -> None:
        """The marking law, in ECN columns only."""
        on, ecn_row, rate = self.on, self.ecn_row, self.rate
        marked = self.q > self.threshold
        fm = (self.engine._AT_mark @ marked.astype(np.int8)) > 0
        fm &= on
        fm &= ecn_row
        self.marks += fm.sum(axis=0)
        rate = np.where(fm, rate * self.keep, rate)
        grow = on & ~fm & ecn_row
        rate = np.where(grow, rate + self.growth, rate)
        # FIFO columns never clip: a sub-floor rate_limit must stay
        # where the uncontrolled source left it.
        self.rate = np.where(ecn_row, np.clip(
            rate, self.rate_floor, self.engine.rate_cap[:, None]), rate)

    def settle(self, j: int, events: list[tuple[int, int]]) -> None:
        """After step ``j``'s add: record completions (restarting or
        stopping the entry), set each entry's constant injection, book
        its next event from a :meth:`replay`, and re-derive the path
        rows of the flows whose injection changed."""
        dt, S, on, inj, rate = self.dt, self.S, self.on, self.inj, self.rate
        fin_l, remaining_flat = self.fin_l, self.remaining_flat
        q_flat, samples, xfer = self.q_flat, self.samples, self.xfer
        t_end = j * dt + dt
        span = min(self.n_steps - j - 1, CALENDAR_SPAN)
        dirty = set()
        for i, s in events:
            f = fin_l[i]
            fs = f * S + s
            R = remaining_flat.item(fs)
            running = on.item(f, s)
            if running and R <= 1e-9:
                self.n_done[i][s] += 1
                if t_end >= self.warmup[s]:
                    # Last-byte delay, summed in the order of
                    # ``AT_act @ (q / caps)``.
                    acc = 0.0
                    for rS, w, cap in self.path_of(f).delay_terms:
                        qv = q_flat.item(rS + s)
                        if qv > 0.0:
                            acc += w * (qv / cap)
                    delay = self.base_latency[f] + acc
                    fct_l, wire_l = samples[i][s]
                    fct_l.append(t_end - xfer[i][s] + delay)
                    wire_l.append(delay)
                if self.repeats_l[f]:
                    R = self.size_l[f]
                    remaining_flat[fs] = R
                    xfer[i][s] = t_end
                else:
                    running = False
                    self.done[f, s] = True
                    on[f, s] = False
            r = rate.item(f, s)
            v = _injection(running, R, r, dt)
            if v != inj.item(f, s):
                inj[f, s] = v
                x = v * dt
                self.inj_dt[f, s] = x
                self.neg_inj_dt[f, s] = -x
                dirty.add(f)
            if running:
                m = self.replay(R, r, v, span)
                self.due[i][s] = j + 1 + m
                heappush(self.heap, (j + 1 + m, i, s))
        if dirty:
            self.rederive(sorted(dirty))

    def finalise(self) -> tuple[TimeflowResult, ...]:
        """Close every row's open constant run; one result per column."""
        eng, S, nq, q, qpeak = self.engine, self.S, self.nq, self.q, self.qpeak
        np.maximum(q, 0.0, out=q)
        np.maximum(qpeak, q, out=qpeak)
        obs.counter("fabric.timeflow.dense_steps").inc(self.n_full)
        obs.counter("fabric.timeflow.start_steps").inc(self.n_switch)
        obs.counter("fabric.timeflow.column_events").inc(self.n_events)
        obs.counter("fabric.timeflow.queue_rows").inc(nq)
        completed = np.zeros((len(eng.flows), S), dtype=np.int64)
        if self.fin_l:
            completed[self.fin_l] = self.n_done
        max_q = qpeak.max(axis=0) if nq else np.zeros(S)
        return tuple(
            eng._finalise(cfg, st=self.st, injected=self.injected[:, s],
                          completed=completed[:, s], fct=self.fct[s],
                          wire=self.wire[s], arr_sum=self.arr_sum[:, s],
                          caps=eng._caps_act[:, 0], max_q=float(max_q[s]),
                          marks=int(self.marks[s]), n_steps=self.n_steps)
            for s, cfg in enumerate(self.configs))


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
