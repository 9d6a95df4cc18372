"""Faulty-fabric fault injection: sustained, structural failures.

The paper's decoupling claim — correctness comes from token counting
and persistent requests, not from the fabric behaving — is only tested
if the fabric actually misbehaves.  This package schedules and installs
link flaps, bandwidth degradation, corruption-detection drops, and node
pause/resume windows onto a built system through the shared overlay
layer (:mod:`repro.overlay`) the perturbation layer also uses; see
:mod:`repro.faults.plan` for the schedule vocabulary and
:mod:`repro.faults.inject` for the semantics.
"""

from repro.faults.inject import FaultInjector, PauseGate
from repro.faults.plan import (
    FAULT_KINDS,
    LOSS_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    generate_plan,
    link_count,
)

__all__ = [
    "FAULT_KINDS",
    "LOSS_FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "PauseGate",
    "generate_plan",
    "link_count",
]
