"""The shared ring buffer (§3.3.1).

A Disruptor-style single ring with one producer cursor and one gating
sequence per consuming variant.  The leader stalls when the slowest
follower is a full ring behind (backpressure); followers busy-wait for
new events, falling back to a futex-backed *waitlock* when the wait is
long or the call is known to block.

Wakeups are predicate-gated (see :meth:`WaitQueue.notify_ready`): a
publish wakes only sleepers that can actually read something, and an
advance wakes the producer only once a slot is really free — not every
queue on every event.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, List, Optional

from repro.costmodel import CostModel, US_PS, cycles
from repro.errors import NvxError
from repro.sim.core import TIMEOUT, Compute, Simulator
from repro.sim.sync import WaitQueue

from repro.core.events import Event, pack_event

#: Paper default: 256 events of 64 bytes.
DEFAULT_CAPACITY = 256

#: Busy-wait budget before degrading to the waitlock.
SPIN_BUDGET_PS = 2 * US_PS

#: Cap on retained log-distance samples (reservoir sampling).  Sampling
#: used to append one entry per publish forever; long sweeps leaked
#: memory linearly in event count.
DISTANCE_RESERVOIR_CAP = 4096

#: Fixed seed so reservoir decisions — and therefore
#: :meth:`RingStats.median_distance` — are deterministic run to run.
_RESERVOIR_SEED = 0x5A5A


def event_seal(event: Event) -> tuple:
    """The integrity seal of an event: every field of the 64-byte event
    line a torn write could damage.  Captured at publish time and
    re-derived at consume time; a mismatch means a consumer observed a
    half-written slot.  The payload is sealed by *pointer* identity only
    — its bytes live in the shared-memory pool, whose chunks are
    legitimately recycled once the last reader consumes them.

    The by-value fields seal as one :func:`~repro.core.events.pack_event`
    line (a single pre-compiled struct pack instead of an 11-field
    tuple build); events that do not fit the fixed slot layout — e.g.
    simulation-level string arguments — fall back to the field tuple.
    """
    try:
        line = pack_event(event)
    except (KeyError, TypeError, struct.error):
        line = (event.etype, event.nr, event.name, event.tindex,
                event.clock, event.retval, event.args)
    return (line, event.aux, event.fd_numbers, event.fd_count,
            id(event.payload))


class RingStats:
    """Counters a ring keeps for the experiments."""

    __slots__ = ("published", "consumed", "producer_stalls", "stall_ps",
                 "waitlock_sleeps", "spin_waits", "distance_samples",
                 "distances_seen", "_reservoir_rng")

    def __init__(self) -> None:
        self.published = 0
        self.consumed = 0
        self.producer_stalls = 0
        self.stall_ps = 0  # total producer backpressure time
        self.waitlock_sleeps = 0
        self.spin_waits = 0
        #: Log-distance samples (head - cursor) at publish time, used by
        #: the live-sanitization experiment (§5.3).  Bounded: once
        #: :data:`DISTANCE_RESERVOIR_CAP` samples are held, reservoir
        #: sampling (Algorithm R, seeded) keeps a uniform subset.
        self.distance_samples: List[int] = []
        self.distances_seen = 0
        self._reservoir_rng = random.Random(_RESERVOIR_SEED)

    def record_distance(self, distance: int) -> None:
        """Admit one log-distance observation into the bounded reservoir."""
        self.distances_seen += 1
        samples = self.distance_samples
        if len(samples) < DISTANCE_RESERVOIR_CAP:
            samples.append(distance)
            return
        slot = self._reservoir_rng.randrange(self.distances_seen)
        if slot < DISTANCE_RESERVOIR_CAP:
            samples[slot] = distance

    def median_distance(self) -> int:
        """Lower median of the sampled log distances.

        For even-length reservoirs this takes the lower of the two
        middle elements (the convention documented in EXPERIMENTS.md),
        keeping the statistic an actually-observed integer distance.
        """
        if not self.distance_samples:
            return 0
        ordered = sorted(self.distance_samples)
        return ordered[(len(ordered) - 1) // 2]


class RingBuffer:
    """One ring per process tuple (§3.3.3).

    Leader and followers share one machine's memory, so publishes are
    visible immediately.  ``repro.core.netring.NetRing`` subclasses
    this to mirror event lines to followers on other machines; a
    session builds one or the other per tuple from its placement.
    """

    __slots__ = ("sim", "costs", "capacity", "name", "slots", "head",
                 "cursors", "not_full", "published", "advanced", "stats",
                 "sample_distances", "tracer", "_sleepers",
                 "_not_full_ready", "_cmd_full_check", "_cmd_publish",
                 "_cmd_waitlock_wake", "_cmd_waitlock_sleep",
                 "_cmd_spin_check", "integrity", "observer", "_seals")

    def __init__(self, sim: Simulator, costs: CostModel,
                 capacity: int = DEFAULT_CAPACITY,
                 name: str = "ring", tracer=None) -> None:
        if capacity < 1:
            raise NvxError("ring capacity must be at least 1")
        self.sim = sim
        self.costs = costs
        self.capacity = capacity
        self.name = name
        #: Observability hook; inherits the simulator's tracer so rings
        #: built outside a session (ablations, bench probes) still show
        #: up under `python -m repro trace`.
        self.tracer = tracer if tracer is not None else sim.tracer
        self.slots: List[Optional[Event]] = [None] * capacity
        self.head = 0  # next sequence to publish
        self.cursors: Dict[int, int] = {}  # variant id → next seq to read
        self.not_full = WaitQueue(sim, name=f"{name}.not_full")
        self.published = WaitQueue(sim, name=f"{name}.published")
        # intra-variant thread gating
        self.advanced = WaitQueue(sim, name=f"{name}.advanced")
        self.stats = RingStats()
        self.sample_distances = False
        #: Slot integrity checking: sessions turn it on so injected ring
        #: corruption surfaces as a diagnostic NvxError in the consumer
        #: instead of a silent misreplay or a hang.  Off by default —
        #: raw rings (benchmark harnesses) pay only the flag test.
        self.integrity = False
        #: Optional conformance observer (``repro.faults``): called as
        #: ``on_publish(ring, event)`` / ``on_consume(ring, vid, event)``.
        self.observer = None
        #: seq % capacity → seal captured when the slot was published.
        self._seals: List[Optional[tuple]] = [None] * capacity
        #: Followers currently parked on the futex-backed waitlock (as
        #: opposed to busy-waiting): only these cost the leader a wake.
        self._sleepers = 0
        #: Pre-bound producer progress predicate (one closure per ring,
        #: not per stall).
        self._not_full_ready = self._has_space
        # The stream costs are frozen calibration constants: build the
        # hot-path charges once, as read-only commands yielded by
        # reference, instead of one Compute per event.
        stream = costs.stream
        self._cmd_full_check = Compute(cycles(stream.ring_full_check))
        self._cmd_publish = Compute(cycles(stream.ring_publish))
        self._cmd_waitlock_wake = Compute(cycles(stream.waitlock_wake))
        self._cmd_waitlock_sleep = Compute(cycles(stream.waitlock_sleep))
        self._cmd_spin_check = Compute(cycles(stream.spin_check))

    # -- consumer management ----------------------------------------------

    def add_consumer(self, vid: int) -> None:
        self.cursors[vid] = self.head

    def remove_consumer(self, vid: int) -> None:
        """Unsubscribe a variant (crash path), releasing its share of any
        pending payload chunks so the pool does not leak."""
        cursor = self.cursors.pop(vid, None)
        if cursor is None:
            return
        for seq in range(cursor, self.head):
            event = self.slots[seq % self.capacity]
            if event is None or event.payload is None:
                continue
            # Same bookkeeping as the consume-side release — shared
            # helper so the crash path and hot path cannot drift.  No
            # virtual-time charge: the coordinator reclaims these while
            # tearing the variant down.
            event.payload.release_reader()
        self.not_full.notify_ready()

    def min_cursor(self) -> int:
        if not self.cursors:
            return self.head
        return min(self.cursors.values())

    def lag_of(self, vid: int) -> int:
        return self.head - self.cursors.get(vid, self.head)

    # -- producer side -------------------------------------------------------

    def _full(self) -> bool:
        return bool(self.cursors) and (
            self.head - self.min_cursor() >= self.capacity)

    def _has_space(self) -> bool:
        """Producer progress predicate for :meth:`WaitQueue.notify_ready`."""
        return not self._full()

    def publish(self, event: Event):
        """Generator: leader-side publish with backpressure."""
        stall_started = self.sim.now
        while self._full():
            self.stats.producer_stalls += 1
            yield self._cmd_full_check
            # Re-check after charging: a consumer may have advanced while
            # we were computing, and its notify would be lost if we
            # blocked unconditionally (no yields between check and wait).
            if not self._full():
                break
            yield from self.not_full.wait(ready=self._not_full_ready)
        self.stats.stall_ps += self.sim.now - stall_started
        tracer = self.tracer
        if tracer is not None and self.sim.now > stall_started:
            tracer.span_here(self.sim, stall_started, "ring", "stall",
                             (("ring", self.name),))
        event.seq = self.head
        self.slots[self.head % self.capacity] = event
        self.head += 1
        self.stats.published += 1
        if self.integrity:
            self._seals[event.seq % self.capacity] = event_seal(event)
        if self.observer is not None:
            self.observer.on_publish(self, event)
        if self.sample_distances and self.cursors:
            self.stats.record_distance(self.head - self.min_cursor())
        if tracer is not None:
            tracer.instant_here(
                self.sim, "ring", "publish",
                (("ring", self.name), ("seq", event.seq),
                 ("occupancy", self.head - self.min_cursor()),
                 ("call", event.name)))
        yield self._cmd_publish
        if self._sleepers:
            # Futex wake for waitlocked followers; busy-waiting followers
            # see the cursor move for free (§3.3.1).
            yield self._cmd_waitlock_wake
        self.published.notify_ready()
        self.advanced.notify_ready()
        return event.seq

    # -- consumer side ---------------------------------------------------------

    def peek(self, vid: int) -> Optional[Event]:
        cursor = self.cursors.get(vid)
        if cursor is None or cursor >= self.head:
            return None
        event = self.slots[cursor % self.capacity]
        if self.integrity and event is not None and event.seq != cursor:
            # Backpressure guarantees a pending slot still holds the
            # event its consumers are gated on (the producer cannot lap
            # the slowest cursor), so a sequence mismatch is definitive
            # evidence of corruption — surface it instead of misreplaying
            # or hanging.
            raise NvxError(
                f"{self.name}: slot corruption at seq {cursor} "
                f"(consumer {vid} found seq {event.seq} in the slot)")
        return event

    def wait_published(self, blocking_hint: bool, ready) -> None:
        """Generator: wait until ``ready()`` turns true (new event, or a
        promotion this consumer must react to).

        ``blocking_hint=True`` (the follower is replaying a call known to
        block, e.g. epoll_wait) goes straight to the waitlock; otherwise
        we busy-wait briefly — the common case where the follower is
        just behind the leader — and degrade to the waitlock (§3.3.1).

        Every cost charge is followed by a fresh ``ready()`` check so a
        publish (or promotion wake) landing mid-charge cannot be lost:
        there is never a yield between the final check and parking on
        the wait queue.  ``ready`` also rides along as the parked
        waiter's progress predicate, so notifications that cannot help
        this consumer do not schedule it.
        """
        if blocking_hint:
            self.stats.waitlock_sleeps += 1
            yield self._cmd_waitlock_sleep
            if ready():
                return
            self._sleepers += 1
            try:
                yield from self.published.wait(ready=ready)
            finally:
                self._sleepers -= 1
            return
        self.stats.spin_waits += 1
        yield self._cmd_spin_check
        if ready():
            return
        value = yield from self.published.wait(spin=True,
                                               timeout_ps=SPIN_BUDGET_PS,
                                               ready=ready)
        if value is TIMEOUT:
            self.stats.waitlock_sleeps += 1
            yield self._cmd_waitlock_sleep
            if ready():
                return
            self._sleepers += 1
            try:
                yield from self.published.wait(ready=ready)
            finally:
                self._sleepers -= 1

    def wait_advanced(self, blocking_hint: bool, ready) -> None:
        """Generator: another thread of this variant must consume first."""
        value = yield from self.advanced.wait(
            spin=not blocking_hint,
            timeout_ps=None if blocking_hint else SPIN_BUDGET_PS,
            ready=ready)
        if value is TIMEOUT:
            if ready():
                return
            yield from self.advanced.wait(ready=ready)

    def advance(self, vid: int) -> None:
        """Move a variant's gating sequence past the current event."""
        cursor = self.cursors.get(vid)
        if cursor is None:
            raise NvxError(f"{self.name}: advance by unsubscribed {vid}")
        event = self.slots[cursor % self.capacity]
        if self.integrity and event is not None:
            if event.seq != cursor:
                raise NvxError(
                    f"{self.name}: slot corruption at seq {cursor} "
                    f"(consumer {vid} found seq {event.seq} in the slot)")
            if event_seal(event) != self._seals[cursor % self.capacity]:
                raise NvxError(
                    f"{self.name}: torn write at seq {cursor} (consumer "
                    f"{vid} observed fields differing from the publish)")
        self.cursors[vid] = cursor + 1
        self.stats.consumed += 1
        if self.observer is not None and event is not None:
            self.observer.on_consume(self, vid, event)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant_here(
                self.sim, "ring", "consume",
                (("ring", self.name), ("vid", vid),
                 ("lag", self.head - self.cursors[vid])))
        self.not_full.notify_ready()
        self.advanced.notify_ready()

    def wake_all(self) -> None:
        """Failover path: force every waiter to re-examine the world."""
        self.published.notify_all()
        self.advanced.notify_all()
        self.not_full.notify_all()

    def on_promote(self, vid: int, machine) -> None:
        """Failover hook: the producer role moved to variant ``vid`` on
        ``machine``.

        Nothing to do here: shared memory survives the old leader.
        ``NetRing`` re-anchors shipping at the new leader's machine.
        """
