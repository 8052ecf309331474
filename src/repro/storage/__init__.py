"""Storage subsystem models (paper §3.3 and §4.3, Table 2).

* :mod:`repro.storage.nvme` — node-local 2x NVMe RAID-0 ("burst buffer").
* :mod:`repro.storage.fio` — fio-style workload descriptors and runner.
* :mod:`repro.storage.draid` — ZFS dRAID redundancy geometry.
* :mod:`repro.storage.ssu` — Orion's Scalable Storage Unit.
* :mod:`repro.storage.lustre` — the Orion parallel filesystem (tiers,
  metadata DoM, aggregate bandwidths).
* :mod:`repro.storage.pfl` — Lustre Progressive File Layout placement.
* :mod:`repro.storage.iosim` — application-level I/O scenarios (checkpoint
  ingest, §4.3.2's 700 TiB in ~180 s).
"""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    "nvme": ("NvmeDrive", "Raid0Array", "node_local_storage"),
    "fio": ("FioJob", "FioPattern", "run_fio"),
    "draid": ("DraidGeometry",),
    "ssu": ("ScalableStorageUnit",),
    "lustre": ("OrionFilesystem", "Tier"),
    "pfl": ("Extent", "ProgressiveFileLayout", "ORION_PFL"),
    "iosim": ("CheckpointScenario", "ingest_time"),
})
