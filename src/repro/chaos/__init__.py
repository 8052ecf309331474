"""Chaos engine: discrete-event fault injection for the simulated machine.

Turns the static resiliency models (:mod:`repro.resilience`) into a
replayable event timeline — node deaths with blast radii, fabric link
failures, storage slowdowns, each with an MTTR-drawn repair — and plays
it against the live scheduler, fabric, and checkpoint/restart policy.
See :mod:`repro.chaos.engine` for the accounting model and
:mod:`repro.chaos.validate` for the MTTI/efficiency cross-validation
gate.
"""

from repro.chaos.engine import (CHAOS_LEDGER, CHAOS_SCHEMA_VERSION,
                                ChaosConfig, ChaosResult, DEFAULT_CHAOS_DIR,
                                JobReport, chaos_run_id, run_chaos,
                                run_chaos_cached, validation_config,
                                validation_spec)
from repro.chaos.events import (DEFAULT_MTTR_HOURS, EVENT_KINDS, ChaosEvent,
                                ChaosTimeline, sample_timeline)
from repro.chaos.validate import (EFFICIENCY_TOLERANCE, MIN_EVENTS,
                                  RATE_TOLERANCE, JobValidation,
                                  ValidationReport, cross_validate,
                                  report_from_result)
from repro.chaos.heal import (INTERVAL_TOLERANCE, HealReport,
                              HealValidationReport, SparePool,
                              build_heal_report, cross_validate_heal,
                              heal_validation_spec)

__all__ = [
    "ChaosConfig", "ChaosResult", "JobReport", "run_chaos",
    "run_chaos_cached", "chaos_run_id", "CHAOS_LEDGER",
    "validation_config", "validation_spec",
    "CHAOS_SCHEMA_VERSION", "DEFAULT_CHAOS_DIR",
    "ChaosEvent", "ChaosTimeline", "sample_timeline", "DEFAULT_MTTR_HOURS",
    "EVENT_KINDS",
    "JobValidation", "ValidationReport", "cross_validate",
    "report_from_result", "RATE_TOLERANCE", "EFFICIENCY_TOLERANCE",
    "MIN_EVENTS",
    "SparePool", "HealReport", "HealValidationReport", "build_heal_report",
    "heal_validation_spec", "cross_validate_heal", "INTERVAL_TOLERANCE",
]
