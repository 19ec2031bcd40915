"""Per-replica monitor runtime — the injected ``varan`` library of Fig. 2.

Each task of each version gets a :class:`ReplicaMonitor` binding it to
its process-tuple's ring buffer and data channel.  Leader-side methods
publish events; follower-side methods await, match and replay them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.costmodel import cycles
from repro.core.datachannel import DataChannel
from repro.core.events import (
    EV_CLONE,
    EV_EXIT,
    EV_FORK,
    EV_SIGNAL,
    EV_SYSCALL,
    Event,
    syscall_event,
)
from repro.errors import DivergenceError, NvxError
from repro.kernel.uapi import SYSCALL_NUMBERS, Syscall, SysResult
from repro.sim.core import Compute

#: Sentinel returned by await_event when this variant was promoted to
#: leader while waiting (§5.1): the caller must restart the system call
#: through the leader path (-ERESTARTSYS).
PROMOTED = object()

#: Calls whose replay is expected to wait a long time for the leader
#: (the leader itself blocks in them) — the follower takes the waitlock
#: instead of busy-waiting (§3.3.1).
BLOCKING_CALLS = frozenset({
    "read", "recv", "recvfrom", "recvmsg", "accept", "accept4",
    "epoll_wait", "poll", "select", "wait4", "connect", "nanosleep",
    "clock_nanosleep",
})


class RingTuple:
    """The ring + channels of one process tuple (§3.3.3).

    ``ring`` is the shared-memory :class:`~repro.core.ringbuffer.RingBuffer`
    on a single host, or its :class:`~repro.core.netring.NetRing`
    subclass when followers are placed on remote machines.
    """

    def __init__(self, tuple_id: int, ring,
                 channels: Dict[int, DataChannel]) -> None:
        self.id = tuple_id
        self.ring = ring
        #: follower variant id → its data channel.
        self.channels = channels
        #: variant id → ReplicaMonitor attached to this tuple.
        self.replicas: Dict[int, "ReplicaMonitor"] = {}
        #: Highest event clock published by a *dead* leader regime.
        #: Transfers for events at or below it can never arrive late —
        #: a crashed leader completes no in-flight sends — so a missing
        #: one is lost and must be rescued from a mirror.  Maintained
        #: by the coordinator at each promotion; 0 under a born leader.
        self.regime_boundary = 0


class ReplicaMonitor:
    """Monitor state for one task of one variant."""

    def __init__(self, session, variant, task, tuple_: RingTuple) -> None:
        self.session = session
        self.variant = variant
        self.task = task
        self.tuple = tuple_
        #: Both fixed for the monitor's lifetime (a promotion swaps the
        #: table, never the variant id or the tuple's ring).
        self.vid: int = variant.vid
        self.ring = tuple_.ring
        #: Session-level tracer (None when observability is off).
        self.tracer = session.tracer
        self.clock = 0  # Lamport clock, shared by the task's threads
        #: Virtual time this replica spent *waiting* (for events, for
        #: ring space) as opposed to processing — lets measurements
        #: separate the monitor's processing cost from flow control.
        self.wait_ps = 0
        #: Session constants of the follower hot path, resolved once:
        #: the consume charge (a read-only command yielded by reference)
        #: and the wake predicate, bound once instead of per wait.
        self._cmd_consume = Compute(cycles(session.costs.stream.ring_consume))
        self._published_ready = self.published_ready
        tuple_.replicas[variant.vid] = self
        task.monitor_state = self

    # -- common -------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.variant.is_leader

    # =========================================================================
    # Leader side
    # =========================================================================

    def publish_result(self, call: Syscall, result: SysResult,
                       transfer_fds: Tuple = ()):
        """Generator: record one executed syscall into the ring.

        ``transfer_fds`` lists (fd_number, description) pairs to
        duplicate into every follower over the data channels.

        With no subscribed consumers (a 0-follower session — the paper's
        interception-only configuration — or every follower crashed)
        recording is skipped entirely.
        """
        if not self.ring.cursors:
            return None
        payload = None
        if result.data:
            payload = yield from self.session.pool.alloc(
                result.data, readers=len(self.ring.cursors))
        stall_before = self.ring.stats.stall_ps
        self.clock += 1
        event = syscall_event(
            call.name, self.task.thread_index(), self.clock, result.retval,
            args=self._by_value_args(call), aux=result.aux,
            payload=payload, fd_count=len(transfer_fds))
        event.fd_numbers = tuple(fd for fd, _ in transfer_fds)
        yield from self.ring.publish(event)
        self.wait_ps += self.ring.stats.stall_ps - stall_before
        for fd_number, description in transfer_fds:
            # Snapshot: a follower may crash (and its channel be removed
            # by the coordinator) while we are blocked mid-transfer.
            for follower_vid, channel in list(self.tuple.channels.items()):
                if follower_vid == self.vid:
                    continue
                # Tag with the *event's* clock, not the live one: a
                # sibling thread may publish (and bump the shared
                # clock) while this send is still paying its cost.
                yield from channel.send_fd(description, clock=event.clock)
        return event

    def publish_control(self, etype: str, retval: int = 0,
                        aux: Tuple = ()):
        """Generator: publish a fork/clone/exit/signal event."""
        if not self.ring.cursors:
            return None
        self.clock += 1
        event = Event(etype, -1, etype, self.task.thread_index(), self.clock,
                      retval=retval, aux=aux)
        yield from self.ring.publish(event)
        return event

    @staticmethod
    def _by_value_args(call: Syscall) -> Tuple:
        args = tuple(a for a in call.args if isinstance(a, int))[:6]
        return args

    # =========================================================================
    # Follower side
    # =========================================================================

    def published_ready(self) -> bool:
        """Wake predicate of a consumer parked on an empty ring.

        Ready predicates run in the *notifier's* context (often the
        leader publishing).  A corrupted slot must not unwind the
        publisher: report ready and let the woken consumer re-peek —
        and fail diagnostically — on its own stack.
        """
        try:
            return (self.ring.peek(self.vid) is not None
                    or self.variant.is_leader)
        except NvxError:
            return True

    def await_event(self, blocking_hint: bool):
        """Generator: the next event owed to the calling thread.

        Returns an :class:`Event`, or :data:`PROMOTED` if this variant
        became the leader while waiting.
        """
        my_tindex = self.task.thread_index()
        sim = self.session.world.sim
        while True:
            try:
                event = self.ring.peek(self.vid)
            except NvxError as exc:  # ring damage: the session drops us
                self.session.report_ring_fault(self, exc)
                raise
            if event is None:
                # Drained. If we were promoted meanwhile, the backlog of
                # the crashed leader has now been fully replayed and the
                # caller must restart through the leader path (§5.1).
                if self.is_leader:
                    return PROMOTED
                wait_started = sim.now
                yield from self.ring.wait_published(blocking_hint,
                                                    self._published_ready)
                self.wait_ps += sim.now - wait_started
                tracer = self.tracer
                if tracer is not None and sim.now > wait_started:
                    tracer.span_here(sim, wait_started, "wait",
                                     "await_event",
                                     (("variant", self.variant.name),
                                      ("kind", "published")))
                continue
            if event.tindex != my_tindex:
                # Happens-before: another thread of this variant must
                # consume first (Figure 3).
                snapshot = self.ring.cursors.get(self.vid)
                advanced_ready = (
                    lambda snap=snapshot:
                    self.ring.cursors.get(self.vid) != snap
                    or self.is_leader)
                wait_started = sim.now
                yield from self.ring.wait_advanced(blocking_hint,
                                                   advanced_ready)
                self.wait_ps += sim.now - wait_started
                tracer = self.tracer
                if tracer is not None and sim.now > wait_started:
                    tracer.span_here(sim, wait_started, "wait",
                                     "await_event",
                                     (("variant", self.variant.name),
                                      ("kind", "advanced")))
                continue
            if event.clock != self.clock + 1:
                raise NvxError(
                    f"{self.variant.name}: clock skew (event {event.clock}, "
                    f"local {self.clock})")
            return event

    def consume(self, event: Event):
        """Generator: copy the event out and advance the gating sequence.

        Returns the payload bytes (b'' if the event carried none).
        """
        yield self._cmd_consume
        data = b""
        if event.payload is not None:
            data = yield from self.session.pool.consume(event.payload)
        self.clock += 1
        try:
            self.ring.advance(self.vid)
        except NvxError as exc:  # torn-write seal mismatch
            self.session.report_ring_fault(self, exc)
            raise
        return data

    def skip_event(self, event: Event):
        """Generator: consume and discard (the SKIP rewrite action)."""
        yield from self.consume(event)
        self.session.stats.events_skipped += 1

    def receive_fds(self, event: Event, call: Optional[Syscall] = None):
        """Generator: collect the event's descriptors and install them at
        the leader's fd numbers, so follower tables mirror the leader.

        In replay mode (§5.4) there is no live leader to duplicate from:
        placeholder descriptions are installed instead so later calls on
        those numbers still resolve.
        """
        if self.session.replay_mode:
            from repro.kernel.uapi import O_RDWR
            from repro.kernel.vfs import DevNull, FileDesc

            for fd_number in event.fd_numbers:
                self.task.fdtable.install(
                    FileDesc(DevNull("replay-placeholder"), O_RDWR),
                    at=fd_number)
            return event.fd_numbers
        channel = self.tuple.channels.get(self.vid)
        installed = []
        for fd_number in event.fd_numbers:
            description = None
            if channel is not None:
                description = yield from channel.recv_fd(
                    event.clock,
                    lost=lambda: event.clock <= self.tuple.regime_boundary)
            if description is None:
                # The transfer was lost with a dead leader (or this
                # replica was promoted mid-drain and its channel is
                # gone).  Re-duplicate from a surviving replica's
                # mirrored table — any replica that reached this event
                # holds the identical description (§3.3.2).
                description = self._rescue_fd(event, fd_number)
                if description is None:
                    # Sole-survivor failover: no surviving replica
                    # reached the event, so the descriptor state exists
                    # nowhere except implicitly in this variant's own
                    # environment replica.  Re-execute the originating
                    # call natively and take its descriptors for the
                    # remaining slots.
                    if call is not None:
                        regenerated = yield from self._regenerate_fds(
                            call, event, event.fd_numbers[len(installed):])
                        installed.extend(regenerated)
                        return tuple(installed)
                    raise NvxError(
                        f"{self.variant.name}: descriptor for {event.name} "
                        f"fd {fd_number} lost in failover")
                description.incref()
            self.task.fdtable.install(description, at=fd_number)
            installed.append(fd_number)
        return tuple(installed)

    def _regenerate_fds(self, call: Syscall, event: Event, missing):
        """Generator: last-resort descriptor recovery (cross-machine
        failover with no rescue mirror).

        Runs the call natively against this replica's own machine state
        — every variant runs the full program, so the call is its own —
        and moves the fresh descriptors to the leader's fd numbers so
        the mirrored-table contract holds for later events.  Raises the
        lost-descriptor error when the native run cannot supply them
        (e.g. the call's environment was not replicated here).
        """
        kernel = self.session.world.kernel
        result = yield from kernel.native(self.task, call)
        fresh = list(result.new_fds or ())
        if result.retval < 0 or len(fresh) < len(event.fd_numbers):
            raise NvxError(
                f"{self.variant.name}: descriptor for {event.name} fd "
                f"{missing[0]} lost in failover and native re-execution "
                f"returned {result.retval}")
        table = self.task.fdtable
        filled = []
        for got, want in zip(fresh, event.fd_numbers):
            if want not in missing:
                # This slot was already filled from the channel or a
                # mirror before the loss was detected; drop the dup.
                table.close(got)
                continue
            if got != want:
                description = table.get(got)
                description.incref()
                table.install(description, at=want)
                table.close(got)
            filled.append(want)
        self.session.stats.fds_regenerated += len(filled)
        return tuple(filled)

    def _rescue_fd(self, event: Event, fd_number: int):
        """Find the event's descriptor in another replica's fd table.

        Candidates must have reached the event (``clock >= event.clock``,
        so their table includes this install); among them the *least*
        advanced is preferred — a far-ahead replica may already have
        closed and reused the number.
        """
        candidates = sorted(
            (replica for replica in self.tuple.replicas.values()
             if replica is not self and replica.clock >= event.clock),
            key=lambda replica: (replica.clock, replica.vid))
        for replica in candidates:
            description = replica.task.fdtable.get(fd_number)
            if description is not None:
                return description
        return None

    def divergence(self, call: Syscall, event: Event):
        """Consult the BPF rewrite rules about a mismatch (§3.4).

        Returns ``(action, cycles_spent)``.
        """
        rules = self.session.rules
        cost = rules.total_insns() * self.session.costs.stream.bpf_per_insn
        self.session.stats.divergences += 1
        action = rules.evaluate(
            SYSCALL_NUMBERS.get(call.name, -1),
            self._by_value_args(call), event.words())
        tracer = self.tracer
        if tracer is not None:
            tracer.instant_here(self.session.world.sim,
                                "divergence", "divergence",
                                (("variant", self.variant.name),
                                 ("call", call.name),
                                 ("expected", event.name),
                                 ("action", action)))
        return action, cost
