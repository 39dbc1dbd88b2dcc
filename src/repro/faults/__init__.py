"""Fault injection: seeded plans, per-feed degraders, at-rest corruptors.

See :mod:`repro.faults.plan` for what can go wrong and when,
:mod:`repro.faults.injectors` for how a plan is applied to each feed,
and :mod:`repro.faults.fileio` for seeded corruption of serialized feeds
and checkpoints at rest (truncation, bit flips, schema drift, duplicated
records) — the inputs the validation/quarantine layer defends against.
:mod:`repro.faults.exec` injects execution-layer faults (hung, slow,
crashed, poisoned workers) that the supervised executor in
:mod:`repro.exec` must contain.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the command line reads the feed names from
# the plan without importing the numpy-backed injectors.
__getattr__ = lazy_exports(__name__, {
    "repro.faults.exec": (
        "ExecFault",
        "ExecFaultPlan",
        "PoisonShardError",
        "WorkerCrashError",
        "apply_exec_fault",
    ),
    "repro.faults.fileio": (
        "drift_schema",
        "duplicate_records",
        "flip_bits",
        "truncate_file",
    ),
    "repro.faults.injectors": (
        "DPSFaultInjector",
        "FaultInjectorSet",
        "HoneypotFaultInjector",
        "OpenIntelFaultInjector",
        "StreamFaultInjector",
        "TelescopeFaultInjector",
    ),
    "repro.faults.plan": (
        "ALL_FEEDS",
        "FEED_DPS",
        "FEED_HONEYPOT",
        "FEED_OPENINTEL",
        "FEED_TELESCOPE",
        "FaultPlan",
        "FaultPlanConfig",
        "OutageWindow",
    ),
})

__all__ = [
    "ALL_FEEDS",
    "FEED_DPS",
    "FEED_HONEYPOT",
    "FEED_OPENINTEL",
    "FEED_TELESCOPE",
    "FaultPlan",
    "FaultPlanConfig",
    "OutageWindow",
    "ExecFault",
    "ExecFaultPlan",
    "PoisonShardError",
    "WorkerCrashError",
    "apply_exec_fault",
    "FaultInjectorSet",
    "TelescopeFaultInjector",
    "HoneypotFaultInjector",
    "OpenIntelFaultInjector",
    "DPSFaultInjector",
    "StreamFaultInjector",
    "drift_schema",
    "duplicate_records",
    "flip_bits",
    "truncate_file",
]
