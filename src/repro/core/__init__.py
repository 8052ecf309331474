"""The integrated machine model and evaluation drivers.

* :mod:`repro.core.baselines` — Summit, Aurora, Titan, Mira, Theta, Cori,
  Sequoia machine models (the KPP comparison systems).
* :mod:`repro.core.scenario` — :class:`MachineSpec`: the serializable
  scenario description every layer is configured from (the composition
  root's input format), with Frontier/Summit/Aurora presets.
* :mod:`repro.core.family` — the :class:`MachineFamily` registry binding a
  spec preset, node-model factory, power inventory, and HPL/HPCG anchors
  to one family name.
* :mod:`repro.core.machine` — :class:`Machine`: node + fabric + storage +
  scheduler + power + resilience behind one facade, built from a spec
  (``from_spec``/``spec``) with ``network()``/``comm()`` factories; the
  node model resolves through the family registry.
* :mod:`repro.core.specs_table` — Table 1 aggregation.
* :mod:`repro.core.compare` — the cross-machine study harness (Table 6/7
  app FOMs + Chalmers-style HPL/HPCG roofline projection).
* :mod:`repro.core.report_card` — the §5 scorecard against the 2008 DARPA
  exascale report's four challenges.
* :mod:`repro.core.evaluation` — run-everything driver used by the
  benchmark harnesses and EXPERIMENTS.md generator.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "baselines": ("MachineModel", "FRONTIER", "SUMMIT", "AURORA", "TITAN",
                  "MIRA", "THETA", "CORI", "SEQUOIA", "BASELINES"),
    "machine": ("Machine", "FrontierMachine"),
    "family": ("MachineFamily", "register_family", "family", "family_names",
               "DEFAULT_FAMILY"),
    "scenario": ("MachineSpec", "DragonflyGeometry", "FatTreeGeometry",
                 "StorageSpec", "DegradationSpec", "CongestionSpec",
                 "FRONTIER_SPEC", "SUMMIT_SPEC", "AURORA_SPEC",
                 "frontier_spec", "summit_spec", "aurora_spec",
                 "resolve_dragonfly"),
    "specs_table": ("compute_table1",),
    "report_card": ("ExascaleReportCard",),
})
