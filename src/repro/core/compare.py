"""Cross-machine study harness: Table 6/7 FOMs + HPL/HPCG projections.

``python -m repro compare`` regenerates the paper's application-speedup
tables for *every* registered machine family side by side, and projects
each family's HPL/HPCG list entries with a Chalmers-style roofline
(following *HPL for exascale accelerated architectures*): attainable HPL
is the minimum of three bounds —

* **compute**: the family's measured Rmax/Rpeak efficiency times its
  scaled Rpeak (panel factorisation and sustained-clock derating);
* **memory bandwidth**: blocked DGEMM at the list-run arithmetic
  intensity (:data:`~repro.node.roofline.HPL_AI` flop per HBM byte) times
  aggregate HBM bandwidth;
* **interconnect**: the broadcast/swap traffic of the outer loop, modelled
  as :data:`HPL_INJECTION_AI` flop per injected byte times aggregate
  injection bandwidth.

At each family's list scale the compute bound binds (as it does on the
real machines) and the projection reproduces the measured Rmax by
construction; the bounds separate under ``node_count``/``nics_per_node``
sweeps, which is where the model earns its keep.  HPCG rides the memory
ceiling: the family's measured HPCG anchors a bandwidth efficiency
(~0.45 on Frontier, matching the GCD roofline's calibrated
:data:`~repro.node.roofline.HPCG_BANDWIDTH_EFFICIENCY`).

The Frontier rows of the Table 6/7 section are computed through exactly
the same code path as ``python -m repro apps`` (the family's ``model`` IS
the baselines ``FRONTIER`` object), so they are bit-identical to the
pre-registry output — the refactor's no-regression anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.apps import CAAR_APPS, ECP_APPS
from repro.core.family import MachineFamily, family
from repro.node.roofline import HPCG_AI, HPL_AI, project_hpl

__all__ = ["HplProjection", "project_family", "compare_machines",
           "HPL_INJECTION_AI", "DEFAULT_COMPARE_FAMILIES"]

COMPARE_SCHEMA_VERSION = 1

#: Flop of HPL work per byte injected into the fabric (outer-loop panel
#: broadcasts and row swaps amortised over the trailing update).  Large by
#: design — HPL is compute bound on balanced machines — but finite, so
#: starving a family of NICs in a sweep eventually moves the binding here.
HPL_INJECTION_AI = 2000.0

#: Families the CLI compares when none are named.
DEFAULT_COMPARE_FAMILIES = ("frontier", "summit", "aurora")


@dataclass(frozen=True)
class HplProjection:
    """One family's projected list entries at a given node count."""

    family: str
    nodes: int
    rpeak_flops: float
    compute_bound_flops: float
    bandwidth_bound_flops: float
    interconnect_bound_flops: float
    hpcg_projected_flops: float
    hpcg_bandwidth_efficiency: float
    measured_hpl_flops: float
    measured_hpcg_flops: float

    @property
    def hpl_flops(self) -> float:
        """Projected Rmax: the tightest of the three bounds."""
        return min(self.compute_bound_flops, self.bandwidth_bound_flops,
                   self.interconnect_bound_flops)

    @property
    def binding(self) -> str:
        bounds = {"compute": self.compute_bound_flops,
                  "bandwidth": self.bandwidth_bound_flops,
                  "interconnect": self.interconnect_bound_flops}
        return min(bounds, key=bounds.get)

    @property
    def hpl_vs_measured(self) -> float:
        """Projected / measured Rmax (1.0 = on the list entry)."""
        return self.hpl_flops / self.measured_hpl_flops

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "nodes": self.nodes,
            "rpeak_pflops": self.rpeak_flops / 1e15,
            "compute_bound_pflops": self.compute_bound_flops / 1e15,
            "bandwidth_bound_pflops": self.bandwidth_bound_flops / 1e15,
            "interconnect_bound_pflops":
                self.interconnect_bound_flops / 1e15,
            "hpl_projected_pflops": self.hpl_flops / 1e15,
            "hpl_measured_pflops": self.measured_hpl_flops / 1e15,
            "hpl_vs_measured": self.hpl_vs_measured,
            "binding": self.binding,
            "hpcg_projected_pflops": self.hpcg_projected_flops / 1e15,
            "hpcg_measured_pflops": self.measured_hpcg_flops / 1e15,
            "hpcg_bandwidth_efficiency": self.hpcg_bandwidth_efficiency,
        }


def _resolve(fam: str | MachineFamily) -> MachineFamily:
    return fam if isinstance(fam, MachineFamily) else family(fam)


def project_family(fam: str | MachineFamily,
                   node_count: int | None = None,
                   nics_per_node: int | None = None) -> HplProjection:
    """Project a family's HPL/HPCG at ``node_count`` (default: list scale).

    The measured anchors scale linearly in node count for the compute and
    HPCG terms; the bandwidth and interconnect bounds are rebuilt from the
    family's node model, so sweeps that change the node/NIC balance
    (``node_count``, ``nics_per_node``) move them independently — starve
    the NICs enough and the binding flips from compute to interconnect.
    """
    f = _resolve(fam)
    spec = f.spec()
    nodes = int(node_count) if node_count is not None else spec.node_count
    nics = int(nics_per_node) if nics_per_node is not None \
        else spec.nics_per_node
    scale = nodes / spec.node_count
    node = f.node()
    rpeak = f.rpeak_flops * scale
    compute = f.hpl_efficiency * rpeak
    bandwidth = nodes * node.hbm_bandwidth * HPL_AI
    per_nic = node.injection_bandwidth / spec.nics_per_node
    interconnect = nodes * nics * per_nic * HPL_INJECTION_AI
    full_scale_hpcg_bound = (spec.node_count * node.hbm_bandwidth * HPCG_AI)
    hpcg_eff = f.hpcg_flops / full_scale_hpcg_bound
    return HplProjection(
        family=f.name,
        nodes=nodes,
        rpeak_flops=rpeak,
        compute_bound_flops=compute,
        bandwidth_bound_flops=bandwidth,
        interconnect_bound_flops=interconnect,
        hpcg_projected_flops=nodes * node.hbm_bandwidth * HPCG_AI * hpcg_eff,
        hpcg_bandwidth_efficiency=hpcg_eff,
        measured_hpl_flops=f.hpl_rmax_flops,
        measured_hpcg_flops=f.hpcg_flops,
    )


def _app_rows(apps, fams: Sequence[MachineFamily]) -> list[dict[str, Any]]:
    rows = []
    for a in apps:
        achieved = {f.name: a.speedup(f.model) for f in fams}
        rows.append({
            "application": a.name,
            "baseline": a.baseline_machine.name,
            "target": a.kpp_target,
            "achieved": achieved,
            "met": {name: value >= a.kpp_target
                    for name, value in achieved.items()},
        })
    return rows


def compare_machines(families: Sequence[str | MachineFamily] | None = None,
                     ) -> dict[str, Any]:
    """The full cross-machine study document (JSON-ready).

    Sections: per-family summaries (geometry, power, list anchors),
    Table 6/7 application speedups evaluated against every family, and the
    HPL/HPCG roofline projection.  When Frontier is included, the document
    carries its cross-checks: the projection vs the measured 1.102 EF Rmax
    (±10% acceptance) and vs the independent GCD-roofline
    :func:`repro.node.roofline.project_hpl`.
    """
    fams = [_resolve(f) for f in (families or DEFAULT_COMPARE_FAMILIES)]
    projections = [project_family(f) for f in fams]
    doc: dict[str, Any] = {
        "schema": COMPARE_SCHEMA_VERSION,
        "families": [
            f.summary() | {
                "power_mw": f.power().hpl_power / 1e6,
                "gflops_per_watt": f.power().gflops_per_watt,
            } for f in fams],
        "table6": _app_rows(CAAR_APPS(), fams),
        "table7": _app_rows(ECP_APPS(), fams),
        "projection": [p.to_dict() for p in projections],
    }
    frontier = next((p for p in projections if p.family == "frontier"), None)
    if frontier is not None:
        roofline = project_hpl()
        doc["frontier_roofline_hpl_pflops"] = roofline / 1e15
        doc["frontier_hpl_within_10pct"] = (
            abs(frontier.hpl_vs_measured - 1.0) <= 0.10
            and abs(frontier.hpl_flops / roofline - 1.0) <= 0.10)
    return doc
