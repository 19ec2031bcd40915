"""Scribe-style in-kernel record-replay baseline (§5.4, [27]).

Scribe records application execution from inside the kernel: there are
no monitor context switches, but every syscall pays serialisation into
the kernel log plus a per-byte copy, and the log is flushed to storage.
Used as the comparison point for Varan's record-replay clients.
"""

from __future__ import annotations

from repro.core.config import Session
from repro.costmodel import cycles
from repro.kernel.uapi import Syscall
from repro.sim.core import Compute


class ScribeSession(Session):
    """Run versions with Scribe-style kernel recording enabled.

    Scribe records inside each machine's kernel, so placing versions on
    other machines adds no stop cost.
    """

    task_prefix = "scribe"
    #: Log counters; the first recorded event makes them per-session.
    events_recorded = 0
    bytes_recorded = 0

    def start(self) -> "ScribeSession":
        for index in range(len(self.specs)):
            self._install(self.spawn(index))
        self.ready = True
        return self

    def _install(self, task) -> None:
        session = self

        def recording_dispatch(inner_task, call: Syscall):
            result = yield from inner_task.kernel.native(inner_task, call)
            nbytes = max(call.nbytes, len(call.data), len(result.data))
            session.events_recorded += 1
            session.bytes_recorded += nbytes
            yield Compute(cycles(
                session.costs.scribe.per_event
                + session.costs.scribe.per_byte * nbytes))
            return result

        task.gate.intercepting = True
        task.gate.table = {}
        task.gate.default_handler = recording_dispatch
        # Scribe logs inside the kernel: no rewritten call sites.
        task.gate.charge_no_interception()

    # -- observability ------------------------------------------------------

    def count(self, reg) -> None:
        reg.inc("scribe.events_recorded", self.events_recorded)
        reg.inc("scribe.bytes_recorded", self.bytes_recorded)
