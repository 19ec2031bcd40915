"""Seeded fault injection and the always-on NVX invariant checker.

``plan`` describes *what* goes wrong (plain data), ``injector``
executes it against a live session, ``invariants`` continuously checks
that the session's externally visible behaviour still honours the NVX
contract, and ``chaos`` ties the three into seeded randomized runs
(``python -m repro chaos``).
"""

from repro.faults.injector import (
    LOSS_PROBABILITY,
    RETRANSMIT_PS,
    FaultInjector,
    NetworkFaults,
)
from repro.faults.invariants import (
    DEFAULT_ROUNDTRIP_EVERY,
    InvariantChecker,
    process_violations,
)
from repro.faults.plan import (
    ALL_KINDS,
    BITFLIP,
    CORRUPT_SLOT,
    CRASH,
    NETWORK_KINDS,
    PACKET_LOSS,
    PARTITION,
    RING_KINDS,
    STALL,
    TORN_WRITE,
    VARIANT_KINDS,
    Fault,
    FaultPlan,
)

__all__ = [
    "ALL_KINDS",
    "BITFLIP",
    "CORRUPT_SLOT",
    "CRASH",
    "DEFAULT_ROUNDTRIP_EVERY",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InvariantChecker",
    "LOSS_PROBABILITY",
    "NETWORK_KINDS",
    "NetworkFaults",
    "PACKET_LOSS",
    "PARTITION",
    "RETRANSMIT_PS",
    "RING_KINDS",
    "STALL",
    "TORN_WRITE",
    "VARIANT_KINDS",
    "process_violations",
]
