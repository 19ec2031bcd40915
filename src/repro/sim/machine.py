"""Simulated machines: bounded core pools with FIFO scheduling."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.costmodel import MachineSpec
from repro.errors import SimulationError
from repro.sim.core import Process, Simulator


class Machine:
    """A host with a fixed number of logical cores.

    Processes request a core to run and queue FIFO when all cores are
    busy.  The distinction between physical and logical cores matters
    only to the memory-pressure model used by the SPEC experiments
    (see :mod:`repro.apps.spec`).
    """

    __slots__ = ("sim", "spec", "name", "free_cores", "_ready")

    def __init__(self, sim: Simulator, spec: Optional[MachineSpec] = None,
                 name: str = "machine") -> None:
        self.sim = sim
        self.spec = spec or MachineSpec()
        self.name = name
        self.free_cores = self.spec.logical_cores
        self._ready: Deque[Process] = deque()

    def spawn(self, gen, name: str = "proc", daemon: bool = False) -> Process:
        """Create and start a process on this machine."""
        proc = Process(self, gen, name=name, daemon=daemon)
        proc.start()
        return proc

    # -- core management (called by Process) ----------------------------

    def request_core(self, proc: Process) -> None:
        if self.free_cores > 0:
            self.free_cores -= 1
            # Grant on a fresh event so the caller's stack unwinds first.
            # Grants are never cancelled (interrupting a READY process
            # reuses its grant to deliver the exception), hence no owner.
            self.sim._post(0, None, 0, proc._cb_granted_core, None)
        else:
            self._ready.append(proc)

    def release_core(self) -> None:
        if self._ready:
            nxt = self._ready.popleft()
            self.sim._post(0, None, 0, nxt._cb_granted_core, None)
        else:
            self.free_cores += 1
            if self.free_cores > self.spec.logical_cores:
                raise SimulationError(
                    f"{self.name}: more cores released than exist")

    @property
    def busy_cores(self) -> int:
        return self.spec.logical_cores - self.free_cores

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Machine {self.name} busy={self.busy_cores}/"
                f"{self.spec.logical_cores}>")
