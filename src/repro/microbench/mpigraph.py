"""mpiGraph simulation — Figure 6's receive-bandwidth histograms.

mpiGraph measures, for every shift offset ``k``, the receive-side bandwidth
of every (i -> i+k) pair while all pairs of that offset transfer
simultaneously.  Two implementations are provided:

* :func:`simulate_mpigraph` — honest flow-level max-min simulation on a
  materialised (reduced-scale) fabric, used for validation and ablations;
* :func:`frontier_mpigraph_histogram` — the paper's own full-scale
  accounting (§4.2.2): intra-group pairs sustain ~70% of the 25 GB/s line
  rate (17.5 GB/s); once a shift leaves the group, the pairs share the
  270.1 TB/s global pool, halved for non-minimal two-hop routing, giving
  the ~3 GB/s floor; partial shifts interpolate.

The Summit comparison (:func:`summit_mpigraph_histogram`) is a tight
distribution around 8.5 GB/s — 68% of the 12.5 GB/s EDR line rate — because
the non-blocking fat tree gives every pair its full share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.fabric.dragonfly import DragonflyConfig
from repro.fabric.network import STREAM_EFFICIENCY, FatTreeNetwork, SlingshotNetwork
from repro.rng import RngLike, as_generator

__all__ = [
    "MpiGraphHistogram",
    "frontier_mpigraph_histogram",
    "summit_mpigraph_histogram",
    "simulate_mpigraph",
    "spec_mpigraph",
    "FLOW_SIM_MAX_ENDPOINTS",
]

#: Summit EDR: measured/line-rate for the tight fat-tree distribution.
SUMMIT_EDR_EFFICIENCY = 0.68
SUMMIT_EDR_RATE = 12.5e9

#: Largest fabric (in endpoints) :func:`spec_mpigraph` simulates flow by
#: flow; beyond it, the paper's analytic accounting.  The flow-level run
#: plans and solves every shift offset as one stack, ~28 phases of one
#: flow per endpoint.
FLOW_SIM_MAX_ENDPOINTS = 4096


@dataclass
class MpiGraphHistogram:
    """Per-pair receive bandwidths, with histogram conveniences."""

    bandwidths: np.ndarray       # bytes/s, one entry per sampled pair
    weights: np.ndarray | None = None
    system: str = ""

    def __post_init__(self) -> None:
        self.bandwidths = np.asarray(self.bandwidths, dtype=np.float64)
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != self.bandwidths.shape:
                raise ConfigurationError("weights must match bandwidths")

    def histogram(self, bins: int = 40, range_gbs: tuple[float, float] = (0.0, 20.0)
                  ) -> tuple[np.ndarray, np.ndarray]:
        """(counts, bin edges) in GB/s — the Figure 6 presentation."""
        if bins < 1:
            raise ConfigurationError(f"histogram bins must be >= 1, got {bins}")
        return np.histogram(self.bandwidths / 1e9, bins=bins, range=range_gbs,
                            weights=self.weights, density=True)

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.bandwidths)
        w = (np.ones_like(self.bandwidths) if self.weights is None
             else self.weights)[order]
        return self.bandwidths[order], w

    def quantile(self, q: float) -> float:
        values, w = self._sorted()
        cum = np.cumsum(w) / np.sum(w)
        return float(values[np.searchsorted(cum, q, side="left").clip(0, len(values) - 1)])

    @property
    def min_gbs(self) -> float:
        return float(self.bandwidths.min() / 1e9)

    @property
    def max_gbs(self) -> float:
        return float(self.bandwidths.max() / 1e9)

    @property
    def spread(self) -> float:
        """max/min ratio: ~1 for Summit's spike, >>1 for Frontier."""
        return self.max_gbs / max(self.min_gbs, 1e-12)

    def mass_above(self, gbs: float) -> float:
        """Weighted fraction of pairs above a bandwidth threshold."""
        values, w = self._sorted()
        return float(np.sum(w[values / 1e9 > gbs]) / np.sum(w))


def frontier_mpigraph_histogram(config: DragonflyConfig | None = None, *,
                                jitter_sigma: float = 0.08,
                                samples_per_offset: int = 8,
                                rng: RngLike = None) -> MpiGraphHistogram:
    """Full-scale Frontier histogram from the paper's bandwidth accounting.

    For each node-shift offset ``k`` the pair population splits into an
    intra-group fraction at the single-stream rate and an inter-group
    fraction sharing the (non-minimally halved) global pool.  A small
    lognormal jitter models measurement spread.

    ``config`` accepts anything :func:`repro.core.scenario.resolve_dragonfly`
    does: a config, a ``MachineSpec``, a machine, or ``None`` for Frontier.
    """
    from repro.core.scenario import resolve_dragonfly
    cfg = resolve_dragonfly(config)
    gen = as_generator(rng)
    eps_per_group = cfg.endpoints_per_group
    n_eps = cfg.total_endpoints
    stream = STREAM_EFFICIENCY * cfg.link_rate
    pool = cfg.total_global_bandwidth  # 270.1 TB/s, the paper's figure

    bandwidths: list[float] = []
    weights: list[float] = []
    offsets = np.arange(1, n_eps)
    for k in offsets:
        # Intra-group fraction for shift k: pairs whose (i mod 512) + k stays
        # in the group, plus the symmetric wrap at the far end.
        kmod = int(k)
        intra = max(0, eps_per_group - kmod) / eps_per_group
        intra += max(0, eps_per_group - (n_eps - kmod)) / eps_per_group
        intra = min(1.0, intra)
        n_inter = (1.0 - intra) * n_eps
        if intra > 0:
            bandwidths.append(stream)
            weights.append(intra)
        if n_inter > 0:
            b_inter = min(stream, pool / (2.0 * n_inter))
            bandwidths.append(b_inter)
            weights.append(1.0 - intra)
    base = np.repeat(np.asarray(bandwidths), samples_per_offset)
    w = np.repeat(np.asarray(weights), samples_per_offset) / samples_per_offset
    jitter = gen.lognormal(mean=0.0, sigma=jitter_sigma, size=base.size)
    return MpiGraphHistogram(bandwidths=base * jitter, weights=w,
                             system="Frontier (Slingshot dragonfly)")


def summit_mpigraph_histogram(n_pairs: int = 4608, *,
                              jitter_sigma: float = 0.035,
                              rng: RngLike = None) -> MpiGraphHistogram:
    """Summit's tight EDR fat-tree distribution (~8.5 GB/s per NIC)."""
    gen = as_generator(rng)
    center = SUMMIT_EDR_EFFICIENCY * SUMMIT_EDR_RATE
    jitter = gen.lognormal(mean=0.0, sigma=jitter_sigma, size=n_pairs)
    return MpiGraphHistogram(bandwidths=center * jitter,
                             system="Summit (EDR fat tree)")


def simulate_mpigraph(network: SlingshotNetwork | FatTreeNetwork,
                      offsets: list[int] | None = None,
                      chunk: int | None = None) -> MpiGraphHistogram:
    """Flow-level mpiGraph on a materialised fabric (reduced scale).

    Runs the shift pattern for each offset and pools every pair's max-min
    rate.  Default offsets sample the full range logarithmically plus the
    group-boundary region, which is where the distribution shape forms.
    ``chunk`` is forwarded to the batch planner (``chunk=1`` reproduces
    the historical per-flow routing loop exactly; the default scales the
    UGAL round size with the phase).

    The offsets are independent phases of one shape, so they are stacked:
    :meth:`~repro.fabric.network.FabricNetwork.phase_bandwidths` plans
    every offset in one batch-planner call and solves them as one
    block-diagonal max-min problem.  The pooled rates are bit-identical
    to running ``flow_bandwidths`` offset after offset.
    """
    n = network.config.total_endpoints
    if offsets is None:
        raw = set(int(x) for x in np.unique(np.geomspace(1, n - 1, num=24).astype(int)))
        if isinstance(network, SlingshotNetwork):
            g = network.config.endpoints_per_group
            raw |= {max(1, g // 2), g - 1, g, g + 1, min(n - 1, 2 * g)}
        offsets = sorted(raw)
    phases = np.stack([network.shift_pairs(k) for k in offsets])
    rates = network.phase_bandwidths(phases, chunk=chunk)
    name = type(network).__name__
    return MpiGraphHistogram(bandwidths=rates.ravel(), system=name)


def spec_mpigraph(spec, rng: RngLike = None, *,
                  analytic: bool = False) -> tuple[MpiGraphHistogram, str]:
    """The mpiGraph histogram for the machine a ``MachineSpec`` describes,
    and its mode (``"flow-level"`` or ``"analytic"``).

    Flow-level simulation up to :data:`FLOW_SIM_MAX_ENDPOINTS`; beyond it,
    or with ``analytic``, the analytic histogram of the spec's fabric kind.
    The ``mpigraph`` verb and sweep probe both answer through this.
    """
    if (not analytic and spec.fabric_config().total_endpoints
            <= FLOW_SIM_MAX_ENDPOINTS):
        return simulate_mpigraph(spec.build_network(rng=rng)), "flow-level"
    if spec.fabric.kind == "dragonfly":
        return frontier_mpigraph_histogram(spec, rng=rng), "analytic"
    return (summit_mpigraph_histogram(n_pairs=spec.node_count, rng=rng),
            "analytic")
