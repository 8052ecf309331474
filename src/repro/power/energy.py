"""Energy-to-solution across machine generations.

The paper's §5.1 frames efficiency as GF/W at HPL; the application-level
corollary is **energy per unit of science**: a KPP speedup of S on a
machine drawing P1 vs a baseline drawing P0 cuts the energy per FOM unit
by ``S * P0 / P1``.  Frontier draws ~1.6x Summit's power but runs CAAR
codes 4.6-20x faster, so every one of them is a net energy win — computed
here per application.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import all_apps
from repro.apps.base import Application
from repro.core.baselines import FRONTIER, MachineModel
from repro.errors import ConfigurationError

__all__ = ["EnergyComparison", "energy_gain", "suite_energy_table"]


@dataclass(frozen=True)
class EnergyComparison:
    """Energy-per-FOM-unit comparison of one app across two machines."""

    application: str
    baseline: str
    speedup: float
    power_ratio: float        # target power / baseline power

    @property
    def energy_gain(self) -> float:
        """How many times less energy per unit of science on the target."""
        return self.speedup / self.power_ratio

    @property
    def is_energy_win(self) -> bool:
        return self.energy_gain > 1.0


def energy_gain(app: Application,
                machine: MachineModel | None = None) -> EnergyComparison:
    """Energy-per-science comparison for one paper application."""
    target = machine if machine is not None else FRONTIER
    base = app.baseline_machine
    if base.power_mw <= 0 or target.power_mw <= 0:
        raise ConfigurationError("machine power must be positive")
    return EnergyComparison(
        application=app.name,
        baseline=base.name,
        speedup=app.speedup(target),
        power_ratio=target.power_mw / base.power_mw,
    )


def suite_energy_table(apps: list[Application] | None = None
                       ) -> list[EnergyComparison]:
    """Energy gains for the whole Table 6 + Table 7 suite."""
    if apps is None:
        apps = all_apps()
    return [energy_gain(app) for app in apps]
