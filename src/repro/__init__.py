"""repro — a calibrated system simulator reproducing *Frontier: Exploring
Exascale* (Atchley et al., SC '23).

The paper describes the architecture of the first exascale supercomputer
and evaluates it with micro-benchmarks and application figure-of-merit
speedups.  This library rebuilds that system as executable models — node,
interconnect, storage, scheduler, power, resiliency — plus real
scaled-down kernels for every CAAR/ECP application, and regenerates every
table and figure of the paper's evaluation.

Quick start::

    from repro import Machine
    machine = Machine()                        # defaults: Frontier
    print(machine.table1())

    from repro.core.family import family
    aurora = family("aurora").spec().machine() # any registered family

    from repro.apps import all_apps
    for app in all_apps():
        print(app.kpp_result())

Subpackages
-----------

===================  ====================================================
``repro.core``       integrated machine, baselines, Table 1, §5 scorecard
``repro.node``       Bard Peak node: Trento, MI250X, InfinityFabric
``repro.fabric``     Slingshot dragonfly, routing, max-min flows
``repro.mpi``        rank placement and communication-cost oracle
``repro.microbench`` mpiGraph, GPCNeT, CoralGemm harness simulators
``repro.storage``    node-local NVMe and the Orion Lustre filesystem
``repro.scheduler``  Slurm-like scheduling, placement, VNI isolation
``repro.power``      component power inventory, 52 GF/W scorecard
``repro.resilience`` FIT inventory, MTTI, Young/Daly checkpointing
``repro.apps``       the 11 CAAR/ECP applications (kernels + projections)
===================  ====================================================
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [*lazy_exports(__name__, {
    "core.machine": ("Machine", "FrontierMachine"),
    "core.baselines": ("MachineModel", "BASELINES",
                       "FRONTIER", "SUMMIT", "AURORA", "TITAN", "MIRA",
                       "THETA", "CORI", "SEQUOIA"),
    "errors": ("ReproError",),
}), "__version__"]
