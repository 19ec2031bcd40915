"""Sharded deterministic DES engine: per-machine-group event heaps.

The single-heap :class:`~repro.sim.core.Simulator` keeps every pending
event in one ``heapq``.  At load-generation scale — tens of thousands of
concurrent client processes, each with a long-lived request watchdog —
that heap holds hundreds of thousands of entries, most of them already
lazily cancelled, and every push/pop pays ``O(log n)`` over the whole
cold structure while stale entries linger until their (far-future)
expiry finally surfaces them.

:class:`ShardedSimulator` partitions the pending-event set by *machine
group*: every :class:`~repro.sim.machine.Machine` is assigned to a shard
at construction (round-robin in creation order by default, or via an
explicit ``group_of`` policy), and every event is filed in the shard of
the machine it belongs to.  Three structural wins follow:

* **Small hot heaps.**  Each shard's heap holds only its own machines'
  events, so push/pop touch a cache-resident structure.
* **An O(1) immediate lane.**  Delay-0 events (core grants, spin
  resumes) are appended to a per-shard deque instead of the heap.  The
  clock never runs backwards during a drain, so delay-0 entries arrive
  in nondecreasing ``(time, seq)`` order and the deque head is always
  the lane's minimum — a priority queue with O(1) push and pop.  (The
  one way time can rewind — ``run(until_ps=...)`` with an *earlier*
  deadline than a previous run — is detected per push and diverted to
  the heap.)
* **Amortised stale compaction.**  Wake tokens only ever increase, so a
  stale entry stays stale forever and removing it early is observably
  identical to the single-heap engine skipping it at pop time (the skip
  advances no clock and runs no callback).  Each shard counts heap
  pushes and, once they exceed the heap's size, filters stale entries
  out and re-heapifies in place — amortised O(1) per push, and the
  standing population of cancelled request watchdogs never bloats the
  heap the way it bloats the single global one.

Determinism — why results are bit-identical to the single heap
--------------------------------------------------------------

The coordinator never *speculates*.  Both engines dispatch pending
events in exactly ascending ``(time, seq)`` order, where ``seq`` is a
single global counter assigned at schedule time; the sharded engine
merely stores the pending set K ways and performs an exact K-way merge:

* **Selection.**  One pass over the shard heads finds the globally
  minimal key *and* the runner-up (the *frontier*).  Keys are unique
  (``seq`` is), so the minimum is unambiguous.
* **Drain ("runs independently up to the next cross-shard horizon").**
  The winning shard dispatches its own events, in local order, while its
  head key stays below the frontier — without rescanning the other
  shards.  Any event it schedules lands either in its own structures
  (picked up by the local peek) or in another shard, in which case
  ``_post`` tightens the frontier so the drain stops before the foreign
  event's turn.  The frontier is maintained conservatively (it may drop
  below the true second-minimum, never above), so the drain can stop
  early and reselect, but can never dispatch an event out of global
  order.
* **Identical side effects.**  Since the dispatch sequence is identical,
  the ``seq`` values assigned to newly scheduled events are identical,
  the clock visits the same instants, and every callback observes the
  same state — by induction the whole run, including traces, journals
  and ``reference_sweep.txt`` cells, is bit-identical to the single-heap
  engine for *any* shard assignment.

Because the merge is exact, correctness never depends on network
latency; the minimum-latency lookahead of classical conservative
parallel DES shows up here only as a *throughput* property (messages
between machines over :mod:`repro.sim.network` are the only cross-shard
edges, so co-locating chatty machines in one shard lengthens drains).
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.core import NEW, EventHandle, Simulator, _call0

__all__ = ["ShardedSimulator"]

#: Frontier sentinel meaning "no other shard holds anything": compares
#: greater than every real event key (entry[0] is always a finite int).
_INF = (float("inf"), 0)


class ShardedSimulator(Simulator):
    """Drop-in :class:`~repro.sim.core.Simulator` with a sharded event
    set.  Public behaviour (clock, dispatch order, errors, stats) is
    bit-identical; only wall-clock speed differs."""

    __slots__ = ("_nshards", "_heaps", "_imms", "_compact_at", "_active",
                 "_f", "_group_of", "_machine_count", "stale_dropped")

    def __init__(self, shards: int = 8, group_of=None) -> None:
        super().__init__()
        if shards < 1:
            raise SimulationError(f"shards must be >= 1: {shards}")
        self._nshards = shards
        self._heaps: List[List[tuple]] = [[] for _ in range(shards)]
        self._imms = [deque() for _ in range(shards)]
        #: Per-shard heap size that triggers the next stale compaction.
        self._compact_at = [0] * shards
        #: Shard currently draining (-1 outside run()).
        self._active = -1
        #: Conservative frontier: no *other* shard holds an event whose
        #: (time, seq) key compares below this.  Kept as a tuple so the
        #: hot-loop check is one C-level comparison; ``seq`` is globally
        #: unique, so comparing a 6-tuple entry against it never falls
        #: through to the (non-comparable) owner field.
        self._f: tuple = _INF
        self._group_of = group_of
        self._machine_count = 0
        #: Stale entries removed early by compaction (diagnostic).
        self.stale_dropped = 0

    @property
    def shards(self) -> int:
        return self._nshards

    # -- shard assignment ----------------------------------------------

    def _register_machine(self, machine) -> None:
        if self._group_of is not None:
            index = int(self._group_of(machine.name)) % self._nshards
        else:
            index = self._machine_count % self._nshards
        self._machine_count += 1
        machine._shard_index = index

    # -- event filing ---------------------------------------------------

    def _push(self, index: int, delay_ps: int, owner, token: int,
              fn, arg) -> None:
        self._seq += 1
        when = self.now + delay_ps
        entry = (when, self._seq, owner, token, fn, arg)
        if delay_ps == 0:
            imm = self._imms[index]
            # The immediate lane must stay sorted; a clock rewind (a
            # second run() with an earlier until_ps) is the only way a
            # new delay-0 key can undercut the tail.
            if imm and imm[-1][0] > when:
                self._push_heap(index, entry)
            else:
                imm.append(entry)
        else:
            self._push_heap(index, entry)
        if index != self._active and entry < self._f:
            # A cross-shard event below the frontier must stop the
            # active drain before its turn.  Tightening to the new key
            # is conservative: the true other-shard minimum may be even
            # lower, in which case the frontier just ends a drain early
            # and the reselect recomputes exactly.
            self._f = entry

    def _push_heap(self, index: int, entry: tuple) -> None:
        # Compact when the heap doubles past its last-known live size:
        # geometric triggering makes the O(n) scan amortised O(1) per
        # push whether the growth is live load (scan finds nothing,
        # threshold doubles away) or cancelled watchdogs (scan halves
        # the heap and resets the bar).
        heap = self._heaps[index]
        heappush(heap, entry)
        if len(heap) >= self._compact_at[index]:
            self._compact(index)
            self._compact_at[index] = 64 + 2 * len(heap)

    def _compact(self, index: int) -> None:
        """Drop lazily-cancelled entries and re-heapify, in place.

        Tokens are monotonic, so an entry stale now is stale at its pop
        time too; the single-heap engine would skip it there with no
        observable effect, so early removal preserves bit-identity.
        In place matters: run() holds a reference to the heap list.
        """
        heap = self._heaps[index]
        live = [e for e in heap
                if e[2] is None or e[2]._wake_token == e[3]]
        if len(live) != len(heap):
            self.stale_dropped += len(heap) - len(live)
            heap[:] = live
            heapq.heapify(heap)

    def schedule(self, delay_ps: int, fn: Callable[[], None]) -> EventHandle:
        # Hot alongside _post: load generators schedule (and cancel)
        # per-request retransmit timers by the thousand.  Same inlined
        # filing as _post, minus the impossible delay-0/rewind case.
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        handle = EventHandle()
        index = self._active
        if index < 0:
            index = 0
        handle._shard_index = index
        seq = self._seq + 1
        self._seq = seq
        when = self.now + delay_ps
        entry = (when, seq, handle, 0, _call0, fn)
        if delay_ps == 0:
            imm = self._imms[index]
            if imm and imm[-1][0] > when:  # clock rewind: keep lane sorted
                heappush(self._heaps[index], entry)
            else:
                imm.append(entry)
        else:
            heap = self._heaps[index]
            heappush(heap, entry)
            if len(heap) >= self._compact_at[index]:
                self._compact(index)
                self._compact_at[index] = 64 + 2 * len(heap)
        if index != self._active and entry < self._f:
            self._f = entry
        return handle

    def schedule_on(self, machine, delay_ps: int,
                    fn: Callable[[], None]) -> EventHandle:
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        handle = EventHandle()
        index = machine._shard_index
        handle._shard_index = index
        self._push(index, delay_ps, handle, 0, _call0, fn)
        return handle

    def _post(self, delay_ps: int, owner, token: int, fn, arg) -> None:
        # The engine-wide hot path: one call per compute/sleep/timeout/
        # grant.  The body of _push is inlined here (and only here) —
        # going through the helper costs more than the sharding saves.
        if owner is not None:
            # Process/EventHandle owners carry their shard.
            index = owner._shard_index
        else:
            # Core grants: owner-less; file them in the posting shard.
            # Shard assignment never affects dispatch order (the merge
            # is exact for any assignment), and a grant's poster is
            # almost always the granted process's own machine anyway.
            index = self._active
            if index < 0:
                index = 0
        seq = self._seq + 1
        self._seq = seq
        when = self.now + delay_ps
        entry = (when, seq, owner, token, fn, arg)
        if delay_ps == 0:
            imm = self._imms[index]
            if imm and imm[-1][0] > when:  # clock rewind: keep lane sorted
                heappush(self._heaps[index], entry)
            else:
                imm.append(entry)
        elif delay_ps > 0:
            heap = self._heaps[index]
            heappush(heap, entry)
            if len(heap) >= self._compact_at[index]:
                self._compact(index)
                self._compact_at[index] = 64 + 2 * len(heap)
        else:
            raise SimulationError(f"negative delay: {delay_ps}")
        if index != self._active and entry < self._f:
            self._f = entry

    # -- the coordinator ------------------------------------------------

    def run(self, until_ps: Optional[int] = None,
            max_events: int = 500_000_000) -> None:
        pairs = list(zip(self._imms, self._heaps))
        events = 0
        try:
            while True:
                # Exact K-way selection: one pass over the shard heads
                # finds the global minimum (the shard to drain) and the
                # runner-up (the frontier it may drain up to).  Entries
                # compare directly — one C tuple comparison each, never
                # reaching the owner field because seq is unique.
                best = -1
                best_e = second_e = None
                for i, (imm, heap) in enumerate(pairs):
                    if imm:
                        e = imm[0]
                        if heap and heap[0] < e:
                            e = heap[0]
                    elif heap:
                        e = heap[0]
                    else:
                        continue
                    if best_e is None or e < best_e:
                        second_e = best_e
                        best_e = e
                        best = i
                    elif second_e is None or e < second_e:
                        second_e = e
                if best < 0:
                    break  # every shard drained
                self._f = second_e if second_e is not None else _INF
                self._active = best
                imm, heap = pairs[best]
                # Drain the active shard while its head key stays below
                # the frontier.  _post() tightens self._f live when a
                # dispatch pushes into another shard.
                while True:
                    if imm:
                        e = imm[0]
                        use_imm = True
                        if heap:
                            h = heap[0]
                            if h < e:
                                e = h
                                use_imm = False
                    elif heap:
                        e = heap[0]
                        use_imm = False
                    else:
                        break  # shard empty: reselect
                    if e > self._f:
                        break  # next global event lives elsewhere
                    if use_imm:
                        imm.popleft()
                    else:
                        heappop(heap)
                    owner = e[2]
                    if owner is not None and owner._wake_token != e[3]:
                        continue  # lazily cancelled: clock frozen
                    when = e[0]
                    if until_ps is not None and when > until_ps:
                        self.now = until_ps
                        if use_imm:
                            imm.appendleft(e)
                        else:
                            heappush(heap, e)
                        return
                    self.now = when
                    e[4](e[5])
                    events += 1
                    if events >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}")
        finally:
            self._active = -1
            self._f = _INF
            self.events_processed += events
        stuck = [p for p in self.processes
                 if not p.done and not p.daemon and p.state != NEW]
        if stuck:
            names = ", ".join(p.name for p in stuck[:8])
            raise DeadlockError(
                f"no events left but processes blocked: {names}")

    def pending_events(self) -> int:
        """Total entries currently filed (incl. stale; diagnostic)."""
        return (sum(len(h) for h in self._heaps)
                + sum(len(d) for d in self._imms))
