"""The replay-phase client: an artificial leader that publishes logged
events into a ring consumed by one or more replayed versions (§5.4).

Because Varan was designed to run multiple instances simultaneously,
several versions can be replayed against the same log in one pass —
e.g. to find which revisions of an application are susceptible to a
crash reported from production.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bpf.rules import RewriteRules
from repro.core.config import Session, SessionConfig
from repro.core.coordinator import (
    SessionStats,
    Variant,
    VersionSpec,
    count_rings,
)
from repro.core.events import Event
from repro.core.monitor import ReplicaMonitor, RingTuple
from repro.core.ringbuffer import RingBuffer
from repro.core.shm import SharedMemoryPool
from repro.core.tables import install_tables
from repro.costmodel import cycles
from repro.errors import RecordReplayError
from repro.recordreplay.logfile import decode_records
from repro.sim.core import Compute


class ReplaySession(Session):
    """Replay a recorded log against N candidate versions.

    Provides the parts of :class:`~repro.core.coordinator.NvxSession`
    the follower machinery relies on; options arrive through a shared
    :class:`SessionConfig` (``rules``, ``ring_capacity``, ``daemon``,
    ``placement``).  Single-process logs only: a FORK event in the log
    is a replay error.
    """

    #: Followers synthesise descriptors locally instead of collecting
    #: them from a data channel.
    replay_mode = True
    #: Metrics: NvxSession's session and ring counters.
    count = count_rings

    def __init__(self, world, specs: List[VersionSpec], log_bytes: bytes,
                 config: Optional[SessionConfig] = None) -> None:
        super().__init__(world, specs, config)
        self.rules = self.config.rules or RewriteRules()
        self.pool = SharedMemoryPool(world.sim, world.costs)
        self.stats = SessionStats()
        self.records = list(decode_records(log_bytes))
        self.variants = [Variant(i, spec, self.placement[i])
                         for i, spec in enumerate(specs)]
        ring = RingBuffer(world.sim, world.costs,
                          capacity=self.config.ring_capacity,
                          name="replay-ring")
        self.tuples = [RingTuple(0, ring, channels={})]
        self.events_replayed = 0

    @property
    def root_tuple(self) -> RingTuple:
        return self.tuples[0]

    @property
    def crashed(self) -> List[str]:
        """Names of the versions that crashed, in crash order."""
        return [name for name, _fault, _ps in self.stats.crashes]

    def start(self) -> "ReplaySession":
        ring = self.root_tuple.ring
        for variant in self.variants:
            ring.add_consumer(variant.vid)
        for variant in self.variants:
            task = self.spawn(variant.vid)
            variant.tasks.append(task)
            monitor = ReplicaMonitor(self, variant, task, self.root_tuple)
            install_tables(monitor)
            task.segv_hook = self._crash_hook(variant)
        self.machine.spawn(self._publisher(), name="varan.replay-leader",
                           daemon=True)
        self.ready = True
        return self

    # -- the artificial leader ------------------------------------------------

    def _publisher(self):
        ring = self.root_tuple.ring
        for event, payload in self.records:
            if event.etype == "fork":
                raise RecordReplayError(
                    "multi-process logs are not replayable")
            fresh = Event(event.etype, event.nr, event.name, event.tindex,
                          event.clock, retval=event.retval,
                          args=event.args, aux=event.aux,
                          fd_count=event.fd_count,
                          fd_numbers=event.fd_numbers)
            if payload:
                fresh.payload = yield from self.pool.alloc(
                    payload, readers=len(ring.cursors))
            yield Compute(cycles(
                self.costs.record_log_per_event
                + self.costs.record_log_per_byte * len(payload)))
            yield from ring.publish(fresh)
            self.events_replayed += 1

    # -- replica failures ---------------------------------------------------

    def report_divergence(self, monitor, call, event) -> None:
        self.stats.fatal_divergences.append(
            (monitor.variant.name, call.name, event.name))
        monitor.variant.alive = False
        self.root_tuple.ring.remove_consumer(monitor.vid)

    def _crash_hook(self, variant: Variant):
        def hook(task, fault):
            self.stats.crashes.append(
                (variant.name, str(fault), self.world.sim.now))
            variant.alive = False
            self.root_tuple.ring.remove_consumer(variant.vid)

        return hook
