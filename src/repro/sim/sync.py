"""Synchronisation primitives built on the DES engine.

All primitives expose *generator* methods intended to be driven with
``yield from`` inside a simulated process.

Wait queues support *predicate-gated* wakeups: a waiter may park
together with a ``ready`` callable, and :meth:`WaitQueue.notify_ready`
wakes only the waiters whose predicate holds — sleepers that could not
make progress are left parked instead of being scheduled, run, and
re-parked.  This is what keeps the ring buffer's publish/advance paths
from waking three whole queues per event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import TIMEOUT, Block, Process, Simulator


class _Waiter:
    """One parked process plus its (optional) progress predicate."""

    __slots__ = ("proc", "ready")

    def __init__(self, proc: Process,
                 ready: Optional[Callable[[], bool]]) -> None:
        self.proc = proc
        self.ready = ready


class WaitQueue:
    """FIFO queue of processes waiting for a notification.

    ``name`` is optional observability labelling: named queues emit a
    ``park`` instant (category ``wait``) to the simulator's tracer when
    a process parks on them, so ring/coordinator waits are attributable
    in exported timelines.  Unnamed queues never touch the tracer.
    """

    __slots__ = ("sim", "_waiters", "name")

    def __init__(self, sim: Simulator, name: Optional[str] = None) -> None:
        self.sim = sim
        self._waiters: Deque[_Waiter] = deque()
        self.name = name

    def __len__(self) -> int:
        return len(self._waiters)

    def wait(self, spin: bool = False, timeout_ps: Optional[int] = None,
             ready: Optional[Callable[[], bool]] = None):
        """Generator: park the calling process until notified.

        ``ready`` is the waiter's progress predicate, consulted by
        :meth:`notify_ready`; waiters parked without one are woken by
        every notification, as before.

        Returns the value passed to :meth:`notify`, or :data:`TIMEOUT`.
        """
        me = self.sim.current_process
        if me is None:
            raise SimulationError("wait() called outside a process")
        if self.name is not None:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.instant(self.sim.now, me.machine.name, me.name,
                               "wait", "park", (("queue", self.name),))
        entry = _Waiter(me, ready)
        self._waiters.append(entry)
        value = yield Block(spin=spin, timeout_ps=timeout_ps)
        if value is TIMEOUT:
            try:
                self._waiters.remove(entry)
            except ValueError:
                pass
        return value

    def notify(self) -> bool:
        """Wake the longest-waiting process. Returns True if one woke."""
        waiters = self._waiters
        while waiters:
            entry = waiters.popleft()
            if entry.proc.wake():
                return True
        return False

    def notify_all(self, value: Any = None) -> int:
        """Wake every *currently parked* waiter.

        Snapshot semantics: processes that enqueue themselves while the
        wakeups run (e.g. a spinner that re-parks immediately) are not
        woken again by this call — that would livelock.
        """
        waiters = list(self._waiters)
        self._waiters.clear()
        woken = 0
        for entry in waiters:
            if entry.proc.wake(value):
                woken += 1
        return woken

    def notify_ready(self) -> int:
        """Wake every parked waiter whose predicate currently holds.

        Waiters without a predicate are treated as always-ready.  The
        others stay parked — they are *not* scheduled at all, which is
        the point: a notification they cannot act on would only burn a
        wakeup, a core grant and a re-park.  Snapshot semantics match
        :meth:`notify_all`.
        """
        waiters = self._waiters
        if not waiters:
            return 0
        kept: Deque[_Waiter] = deque()
        woken = 0
        for entry in waiters:
            ready = entry.ready
            if ready is None or ready():
                if entry.proc.wake():
                    woken += 1
                # else: stale entry (already timed out) — drop it
            else:
                kept.append(entry)
        self._waiters = kept
        return woken


class Mutex:
    """FIFO mutual exclusion, the serialisation primitive for the
    centralized lockstep monitor baseline."""

    __slots__ = ("sim", "_locked", "_queue", "owner")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._locked = False
        self._queue = WaitQueue(sim)
        self.owner: Optional[Process] = None

    def acquire(self):
        """Generator: acquire the lock (FIFO order)."""
        me = self.sim.current_process
        if self._locked:
            yield from self._queue.wait()
        else:
            self._locked = True
        self.owner = me
        return None

    def release(self) -> None:
        if not self._locked:
            raise SimulationError("release of an unlocked Mutex")
        self.owner = None
        if not self._queue.notify():
            self._locked = False


class Barrier:
    """All-or-nothing rendezvous for ``parties`` processes.

    The lockstep monitor uses one to force every version to reach the
    same syscall before any proceeds.
    """

    __slots__ = ("sim", "parties", "_count", "_queue", "generation")

    def __init__(self, sim: Simulator, parties: int) -> None:
        if parties < 1:
            raise SimulationError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self._count = 0
        self._queue = WaitQueue(sim)
        self.generation = 0

    def arrive(self):
        """Generator: block until all parties have arrived."""
        self._count += 1
        if self._count >= self.parties:
            self._count = 0
            self.generation += 1
            self._queue.notify_all()
            return True  # the releasing party
        yield from self._queue.wait()
        return False
