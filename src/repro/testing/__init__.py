"""Test-support subsystems shipped with the library.

Currently holds the deterministic fault-injection layer
(:mod:`repro.testing.faults`) used by the chaos test suite and wired into
the engine through :attr:`repro.config.SystemConfig.injected_faults`.
Living in ``src`` (not ``tests/``) is deliberate: the engine itself honours
the hooks, so downstream users can chaos-test their own deployments.
"""

from .faults import (
    FAULT_KINDS,
    MESSAGE_FAULT_KINDS,
    PROTOCOL_PHASES,
    PROVIDER_FAULT_KINDS,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
    FiredFault,
)

__all__ = [
    "FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "PROTOCOL_PHASES",
    "PROVIDER_FAULT_KINDS",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpec",
    "FiredFault",
]
