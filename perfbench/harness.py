"""Shared helpers for the benchmark workloads.

Statistics, output digests, RSS, output-check bookkeeping, and the
machine-speed probe.  Nothing here imports ``repro``, so importing this
module adds no program code to a workload's set-up time.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from typing import Any, Iterable, Sequence

#: Metrics every workload reports on every untraced run, with their units.
#: ``BENCHMARK.json`` lists the same names; ``worker.py`` fills them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "secondary_per_s": "1/s",
}


class Digest:
    """Order-sensitive SHA-256 over arrays and canonical JSON documents.

    Floats go through ``repr`` (JSON) or their raw float64 bytes (arrays),
    so two digests agree only when every simulated value is bit-identical.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def array(self, values: Any) -> "Digest":
        import numpy as np
        self._h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
        return self

    def doc(self, doc: Any) -> "Digest":
        self._h.update(json.dumps(doc, sort_keys=True,
                                  separators=(",", ":")).encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:32]


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        return math.nan
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2 ** 20


#: Seconds one :class:`SpeedProbe` unit takes at nominal machine speed:
#: about the median unit time on the 2-vCPU Xeon (105 MB shared L3) the
#: benchmark was tuned on.  It only sets the scale of the speed-normalized
#: metrics, never their spread.
NOMINAL_UNIT_S = 0.012


class SpeedProbe:
    """A fixed reference kernel timed between work items.

    The host this benchmark runs on is shared, and its speed drifts by
    tens of percent over minutes as neighbours load the cores and the
    shared cache.  Each workload runs this kernel for a short burst
    between its timed items, and divides the run's wall times by the
    run's median burst speed (:class:`RunSpeed`).  The kernel uses no
    ``repro`` code, so a change to the program moves the normalized
    times exactly as it moves the wall times.  It is memory-bound — a
    random gather over 64 MB (beyond a core's share of the L3) and a
    1M-entry sparse matvec — because cache and memory contention is what
    tracked the drift of all three workloads best when this kernel was
    chosen (interpreter-bound kernels tracked it worse).
    """

    def __init__(self, burst_s: float = 0.3) -> None:
        import numpy as np
        from scipy import sparse
        before = current_rss_mb()
        rng = np.random.default_rng(0x5EED)
        n, nnz = 200_000, 1_000_000
        self._big = rng.random(8_000_000)
        self._index = rng.integers(0, self._big.size, 400_000)
        self._matrix = sparse.csr_matrix(
            (np.ones(nnz), rng.integers(0, n, nnz, dtype=np.int32),
             np.arange(0, nnz + 1, nnz // n, dtype=np.int32)), shape=(n, n))
        self._vector = rng.random(n)
        #: resident MB the kernel's arrays hold; not the program's memory.
        self.footprint_mb = current_rss_mb() - before
        self.burst_s = burst_s
        self.units: list[float] = []

    def _unit(self) -> float:
        return self._big[self._index].sum() + (self._matrix @ self._vector)[0]

    def sample(self) -> float:
        """Run the kernel for one burst; seconds per unit."""
        n, start = 0, time.perf_counter()
        while True:
            self._unit()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.burst_s:
                self.units.append(elapsed / n)
                return elapsed / n


class RunSpeed:
    """Probe bursts between a run's work items; speed factors per phase.

    Between items the kernel runs for one burst; ``factor()`` turns wall
    seconds into nominal seconds using the median of a span of bursts, so
    second-scale jitter in either the kernel or the work averages out and
    only the machine speed of that span is divided out.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        probe.sample()

    def burst(self) -> None:
        self.probe.sample()

    def mark(self) -> int:
        """Index of the latest burst: the one just before a phase starts."""
        return len(self.probe.units) - 1

    def factor(self, since: int = 0) -> float:
        """Nominal seconds per wall second over the bursts from ``since``."""
        return NOMINAL_UNIT_S / median(self.probe.units[since:])


class Checks:
    """Collects failed output checks; an empty list means the run is correct.

    A workload calls :meth:`close_op` after checking each operation's
    output, so ``failed_ops`` counts operations with at least one failure.
    """

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.failed_ops = 0
        self._mark = 0

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok

    def close_op(self) -> None:
        if len(self.failures) > self._mark:
            self.failed_ops += 1
        self._mark = len(self.failures)
