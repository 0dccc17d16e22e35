"""Deterministic fault injection and recovery for the nested stack.

A campaign (``python -m repro faults``) derives a :class:`~repro.faults.
plan.FaultPlan` from a seed, arms a :class:`~repro.faults.points.
FaultInjector` at named points threaded through the hot layers (CPU
system-register dispatch, the deferred access page, world switches,
virtio notification), runs the standard nested scenario under the
runtime sanitizer, and drives every injected fault to an explicit
outcome through :class:`~repro.faults.recovery.RecoveryManager`:
recovered in place, superseded by later correct state, or a graceful
degradation of NEVE back to ARMv8.3 trap-and-emulate.  Nothing is
allowed to fail silently.
"""

from repro.faults.plan import FaultClass, FaultPlan, PlannedFault
from repro.faults.points import FaultEvent, FaultInjector
from repro.faults.recovery import RecoveryManager

__all__ = [
    "FaultClass",
    "FaultPlan",
    "PlannedFault",
    "FaultEvent",
    "FaultInjector",
    "RecoveryManager",
]
