"""Classical ptrace-based lockstep NVX monitors (the prior work of §7).

These are the baselines of Table 2: Mx, Orchestra and Tachyon.  All
three share the architecture the paper criticises:

* **ptrace interception** — every system call of *every* version incurs
  two ptrace stops (syscall-entry, syscall-exit), each descheduling the
  tracee and scheduling the monitor, which then reads registers and
  copies indirect arguments word-by-word with PTRACE_PEEKDATA/POKEDATA
  (each peek itself being a system call for the monitor);
* **a centralized monitor** — one process through which every event of
  every version must pass; we model it as a shared serialisation
  resource, which also makes the NVX application run at the speed of
  the slowest version;
* **lockstep execution** — at every syscall the versions rendezvous on a
  barrier; any divergence in the sequence is fatal (no rewrite rules);
* **no vDSO coverage** — virtual syscalls cannot be intercepted by
  ptrace (§3.2.1), so they run natively (and unsynchronised!).

The per-system profiles differ only in their bookkeeping constants,
calibrated against the overheads those papers report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import Session, SessionConfig
from repro.costmodel import cycles
from repro.errors import DivergenceError, NvxError
from repro.kernel.task import VDSO_CALLS
from repro.kernel.uapi import Syscall, SysResult
from repro.sim.core import Compute
from repro.sim.sync import Barrier, Mutex


@dataclass(frozen=True)
class MonitorProfile:
    """Per-system cost profile for a ptrace lockstep monitor."""

    name: str
    #: Extra monitor bookkeeping per stop beyond the ptrace mechanics
    #: (state machines, divergence checks, logging).
    bookkeeping: int = 400
    #: Whether results are copied into every version (POKEDATA) or only
    #: compared (PEEKDATA in each version).
    copies_into_followers: bool = True
    #: Multiplier on the per-word peek/poke cost (Orchestra's monitor
    #: batches some copies; Tachyon's does not).
    copy_factor: float = 1.0


#: Mx (Hosek & Cadar, ICSE'13): ptrace, geared to multi-version updates.
MX_PROFILE = MonitorProfile(name="mx", bookkeeping=500, copy_factor=1.0)
#: Orchestra (Salamat et al., EuroSys'09): two diversified variants.
ORCHESTRA_PROFILE = MonitorProfile(name="orchestra", bookkeeping=350,
                                   copy_factor=0.45)
#: Tachyon (Maurer & Brumley, USENIX Sec'12): live patch testing.
TACHYON_PROFILE = MonitorProfile(name="tachyon", bookkeeping=450,
                                 copy_factor=1.1)


class LockstepSession(Session):
    """Run N versions under a ptrace-style centralized lockstep monitor.

    The public surface deliberately mirrors
    :class:`repro.core.coordinator.NvxSession` so experiments can swap
    monitors with one argument.  Its invariant checker sees every
    barrier rendezvous, so mixed-syscall rounds are caught even when
    the monitor's own divergence handling would tolerate them.
    """

    checks_invariants = True
    task_prefix = "ls"

    def __init__(self, world, specs: List,
                 config: Optional[SessionConfig] = None,
                 profile: MonitorProfile = MX_PROFILE) -> None:
        super().__init__(world, specs, config)
        self.profile = profile
        #: Versions off the monitor's machine pay a network round trip
        #: per ptrace stop — the classical architecture distributes
        #: *terribly*, which is part of the point of measuring it.
        self._remote_stop_ps = [
            (2 * world.costs.network.latency_ps
             if machine is not self.machine else 0)
            for machine in self.placement]
        #: The centralized monitor: a mutex every stop must pass through.
        self.monitor_lock = Mutex(world.sim)
        self.barrier = Barrier(world.sim, parties=len(specs))
        self._rendezvous: Dict[int, Syscall] = {}
        self._result_box: Dict[int, SysResult] = {}
        self.stats_stops = 0
        self.stats_syscalls = 0
        self.divergence: Optional[str] = None
        # Per-stop hot path: the ptrace mechanics and the profile's
        # bookkeeping are constants — price them once.
        self._stop_overhead = (self.costs.ptrace.stop_cost()
                               + profile.bookkeeping)
        self._copy_factor = profile.copy_factor

    # -- setup -------------------------------------------------------------

    def start(self) -> "LockstepSession":
        for index in range(len(self.specs)):
            self._install(self.spawn(index), index)
        self.ready = True
        return self

    def _install(self, task, index: int) -> None:
        session = self

        def ptrace_dispatch(inner_task, call):
            # vDSO calls are invisible to ptrace: they execute natively
            # in each version, unsynchronised (a correctness hazard the
            # paper calls out, §3.2.1).
            if call.name in VDSO_CALLS:
                return (yield from inner_task.kernel.native(inner_task,
                                                            call))
            return (yield from session._lockstep_call(inner_task, index,
                                                      call))

        task.gate.intercepting = True
        task.gate.table = {}
        task.gate.default_handler = ptrace_dispatch
        # ptrace has no per-site dispatch cost: the trap cost is charged
        # inside _lockstep_call.
        task.gate.charge_no_interception()

    # -- the hot path --------------------------------------------------------

    def _ptrace_stop(self, nbytes: int, remote_ps: int = 0):
        """Generator: one ptrace stop: tracee⇄monitor context switches,
        register access, and word-by-word copying by the monitor.
        ``remote_ps`` adds the network round trip when the tracee runs
        on a different machine than the centralized monitor."""
        self.stats_stops += 1
        stop = self._stop_overhead
        copy = self.costs.ptrace.copy_cost(nbytes) * self._copy_factor
        # The monitor is centralized: its work is serialised.
        yield from self.monitor_lock.acquire()
        try:
            if remote_ps:
                yield Compute(remote_ps)
            yield Compute(cycles(stop + copy))
        finally:
            self.monitor_lock.release()

    def _lockstep_call(self, task, index: int, call: Syscall):
        """Generator: the full lockstep protocol for one syscall.

        Note: like the systems it models, this monitor assumes
        deterministic, single-threaded versions — at each syscall all
        versions rendezvous on one barrier, so concurrent syscalls from
        multiple threads of one version would interleave rounds.
        """
        if self.divergence is not None:
            raise DivergenceError(self.divergence)
        nbytes = max(call.nbytes, len(call.data))
        self.stats_syscalls += 1
        remote_ps = self._remote_stop_ps[index]

        # Syscall-entry stop: monitor inspects the call.
        yield from self._ptrace_stop(nbytes if call.data else 0,
                                     remote_ps)

        # Rendezvous: wait for every version to reach this syscall.
        round_id = self.barrier.generation
        self._rendezvous[index] = call
        releaser = yield from self.barrier.arrive()
        if releaser:
            names = {c.name for c in self._rendezvous.values()}
            if len(names) > 1:
                self.divergence = (
                    f"{self.profile.name}: versions diverged: "
                    f"{sorted(names)}")
            if self.invariants is not None:
                self.invariants.on_lockstep_round(
                    self.profile.name, round_id, names,
                    caught=self.divergence is not None)
        if self.divergence is not None:
            raise DivergenceError(self.divergence)

        # Version 0 executes the call; everyone else gets its result.
        if index == 0:
            result = yield from task.kernel.native(task, call)
            self._result_box[round_id] = result
            stale = [r for r in self._result_box if r < round_id - 2]
            for r in stale:
                del self._result_box[r]
        # Exit stop: the monitor nullifies the call in versions != 0 and
        # copies the result buffers into them word by word.
        exit_bytes = 0
        if self.profile.copies_into_followers and index != 0:
            exit_bytes = nbytes
        yield from self._ptrace_stop(exit_bytes, remote_ps)

        # Second rendezvous so nobody races ahead with a stale result.
        yield from self.barrier.arrive()
        result = self._result_box.get(round_id)
        if result is None:
            raise NvxError("lockstep: executing version produced no result")
        return result

    # -- observability ------------------------------------------------------

    def count(self, reg) -> None:
        reg.inc("lockstep.stops", self.stats_stops)
        reg.inc("lockstep.syscalls", self.stats_syscalls)
        reg.inc("lockstep.divergences", 0 if self.divergence is None else 1)
