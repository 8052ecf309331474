"""Power and energy-efficiency models (paper §5.1).

* :mod:`repro.power.model` — component power inventories rolling up to the
  21.1 MW HPL figure (Frontier defaults; Summit and Aurora factories for
  the machine-family registry).
* :mod:`repro.power.efficiency` — GF/W, MW/EF, and the 2008 exascale
  report's targets (50 GF/W, 20 MW/EF) plus the straw-man comparison.
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "model": ("PowerComponent", "SystemPowerModel", "FrontierPowerModel",
              "frontier_power", "summit_power", "aurora_power"),
    "efficiency": ("EfficiencyScorecard", "green500_entry"),
    "energy": ("EnergyComparison", "energy_gain", "suite_energy_table"),
})
