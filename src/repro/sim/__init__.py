"""Discrete-event simulation substrate (virtual time, machines, sync)."""

from repro.sim.core import (
    TIMEOUT,
    Block,
    Compute,
    EventHandle,
    Process,
    Simulator,
    Sleep,
)
from repro.sim.machine import Machine
from repro.sim.network import Network
from repro.sim.sync import Barrier, Mutex, WaitQueue

__all__ = [
    "TIMEOUT",
    "Block",
    "Compute",
    "EventHandle",
    "Process",
    "Simulator",
    "Sleep",
    "Machine",
    "Network",
    "Barrier",
    "Mutex",
    "WaitQueue",
]
