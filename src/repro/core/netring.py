"""Networked event transport: remote followers over ``sim/network.py``.

DMON and dMVX showed VARAN's leader/follower event stream extends across
machines.  :class:`NetRing` keeps the leader's shared-memory ring
exactly as it is — local followers and the producer hot path are
untouched — and adds a shipping layer for followers placed on *other*
machines.  ``NvxSession`` builds one per process tuple whenever its
placement puts a follower on a second machine, and a plain
:class:`RingBuffer` otherwise:

* **frames** — newly published events are batched into coalesced frames
  (one 64-byte frame header plus one packed 64-byte
  :data:`~repro.core.events.SLOT_STRUCT` line per event, plus any
  by-reference payload bytes) and sent once per remote machine over the
  :class:`~repro.sim.network.Network`, paying its explicit latency and
  bandwidth cost.  A frame is cut when the batch fills, when a control
  event (fork/exit/signal) must not linger, or when the coalescing
  timer expires;
* **visibility** — a remote follower's :meth:`peek` sees an event only
  once its frame has *arrived* at that follower's machine; until then
  the follower parks exactly as if the leader had not published yet;
* **ack cursors** — remote followers return coalesced acknowledgements
  carrying their consumer cursor.  The producer's backpressure gates on
  the *acked* cursor, so a remote follower a full ring behind stalls
  the leader just like a local one — flow control with a window of one
  ring;
* **selective replication (dMVX)** — with
  ``replicate="selective"`` only payloads of externally-sourced syscall
  classes (socket reads, random bytes…) ship over the wire; payloads a
  replica can regenerate from its own copy of the filesystem (file
  reads, stat lines) are elided from the frame.  In this simulation the
  payload object itself is shared Python memory, so elision is purely a
  byte-accounting change — which is exactly the dMVX claim: the bytes
  never needed to cross the wire;
* **compression** — optional frame-body compression at a fixed ratio
  with a per-byte CPU charge on the leader.

Failover: :meth:`on_promote` re-anchors the transport at the new
leader's machine.  The event log is modelled as durable (the frames of
a dead leader were already mirrored or are recovered from the
coordinator's copy), so promotion reveals the full backlog to every
surviving follower — the "no event lost" invariant the checker enforces
across regimes.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.costmodel import CYCLE_PS, cycles
from repro.errors import NvxError
from repro.sim.core import Compute

from repro.core.events import EV_SYSCALL, EVENT_SIZE, Event
from repro.core.ringbuffer import DEFAULT_CAPACITY, RingBuffer

#: Frame header: magic, producer regime, base sequence, event count,
#: byte length, checksum — one cache line, like the event slots.
FRAME_HEADER_BYTES = 64

#: One acknowledgement message: follower id, cursor, checksum.
ACK_BYTES = 64

#: Modelled LZ4-class ratio on event-line + payload bodies.
COMPRESS_RATIO = 0.55

#: Replication policies (dMVX §4): ship everything, or only what a
#: replica cannot regenerate from its own resources.
REPLICATE_FULL = "full"
REPLICATE_SELECTIVE = "selective"

#: Syscall classes whose result payload a replica regenerates from its
#: local filesystem copy — under selective replication these bytes are
#: elided from the frame.  Everything else (socket input, random bytes,
#: peer names) is externally sourced and must ship.
LOCAL_REGENERABLE = frozenset({
    "pread", "stat", "fstat", "lstat", "getcwd", "getdents", "uname",
})


class NetStats:
    """Network-transport counters of one :class:`NetRing`, shaped like
    the translator's ``CacheStats``.  A session's metrics snapshot sums
    them over its rings (``repro.obs`` pads zero ``net.*`` keys for
    points without one); nothing is process-global, so parallel sweep
    workers and back-to-back sessions cannot bleed counters into each
    other."""

    __slots__ = ("frames", "bytes", "acks", "remote_lag",
                 "payload_elided", "bytes_saved")

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.acks = 0
        #: Sum over ack arrivals of (head - acked cursor): the producer's
        #: view of how far its remote followers trail.
        self.remote_lag = 0
        #: Payload bytes elided by selective replication.
        self.payload_elided = 0
        #: Frame bytes saved by compression.
        self.bytes_saved = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "net.frames": self.frames,
            "net.bytes": self.bytes,
            "net.acks": self.acks,
            "net.remote_lag": self.remote_lag,
            "net.payload_elided": self.payload_elided,
            "net.bytes_saved": self.bytes_saved,
        }


class NetRing(RingBuffer):
    """A :class:`RingBuffer` whose remote consumers see mirrored frames.

    Batching derives from the ring and the link: a frame is cut at
    half a ring (at most 16 events), a remote follower acks every
    quarter ring (at most 8 events), and an unfilled frame is cut after
    two thirds of the link latency (8 us on the calibrated 12 us rack),
    so coalescing never dominates a remote follower's lag.
    """

    __slots__ = ("network", "producer_machine", "_machines", "_remote",
                 "_visible", "_acked", "_ack_sent", "_ship_from",
                 "_flush_scheduled", "_send_floor", "_ack_floor",
                 "coalesce_ps", "max_batch", "ack_batch", "compress",
                 "replicate", "net", "_ps_net_pack",
                 "_ps_compress_per_byte")

    def __init__(self, sim, costs, network, producer_machine,
                 consumer_machines: Dict[int, object],
                 capacity: int = DEFAULT_CAPACITY, name: str = "netring",
                 tracer=None, compress: bool = False,
                 replicate: str = REPLICATE_FULL) -> None:
        super().__init__(sim, costs, capacity=capacity, name=name,
                         tracer=tracer)
        if network is None:
            raise NvxError(f"{name}: networked transport needs a world "
                           f"with a network")
        if replicate not in (REPLICATE_FULL, REPLICATE_SELECTIVE):
            raise NvxError(f"{name}: unknown replication policy "
                           f"{replicate!r}")
        self.network = network
        self.producer_machine = producer_machine
        #: vid → machine hosting that consumer (missing = producer's).
        self._machines = dict(consumer_machines)
        #: Subscribed vids on machines other than the producer's.
        self._remote: Set[int] = set()
        #: vid → head sequence whose frames have arrived at its machine.
        self._visible: Dict[int, int] = {}
        #: vid → last cursor the producer has seen acknowledged (flow
        #: control: backpressure gates on this, not the live cursor).
        self._acked: Dict[int, int] = {}
        #: vid → last cursor this follower put on the wire.
        self._ack_sent: Dict[int, int] = {}
        #: First sequence not yet shipped in any frame.
        self._ship_from = 0
        self._flush_scheduled = False
        #: Per-destination-machine in-order stream floor (frames).
        self._send_floor: Dict[str, int] = {}
        #: Per-vid in-order stream floor (acks).
        self._ack_floor: Dict[int, int] = {}
        self.coalesce_ps = costs.network.latency_ps * 2 // 3
        self.max_batch = min(16, max(1, capacity // 2))
        self.ack_batch = max(1, min(8, capacity // 4))
        self.compress = compress
        self.replicate = replicate
        self.net = NetStats()
        self._ps_net_pack = cycles(costs.stream.net_pack_event)
        self._ps_compress_per_byte = (
            costs.stream.net_compress_per_byte * CYCLE_PS)

    # -- consumer management ------------------------------------------------

    def _is_remote_machine(self, vid: int) -> bool:
        machine = self._machines.get(vid, self.producer_machine)
        return machine is not self.producer_machine

    def add_consumer(self, vid: int) -> None:
        super().add_consumer(vid)
        if self._is_remote_machine(vid):
            self._remote.add(vid)
            self._visible[vid] = self.head
            self._acked[vid] = self.head
            self._ack_sent[vid] = self.head

    def remove_consumer(self, vid: int) -> None:
        super().remove_consumer(vid)
        self._remote.discard(vid)
        self._visible.pop(vid, None)
        self._acked.pop(vid, None)
        self._ack_sent.pop(vid, None)
        self._ack_floor.pop(vid, None)

    def min_cursor(self) -> int:
        """Flow control: remote consumers gate on their *acked* cursor."""
        if not self.cursors:
            return self.head
        lowest = self.head
        acked = self._acked
        for vid, cursor in self.cursors.items():
            gate = acked.get(vid)
            if gate is not None and gate < cursor:
                cursor = gate
            if cursor < lowest:
                lowest = cursor
        return lowest

    # -- producer side ------------------------------------------------------

    def publish(self, event: Event):
        """Generator: publish locally, then feed the shipping layer."""
        seq = yield from super().publish(event)
        if self._remote:
            yield Compute(self._ps_net_pack)
            if self.compress:
                yield Compute(int(self._shipped_bytes(event)
                                  * self._ps_compress_per_byte))
            if (self.head - self._ship_from >= self.max_batch
                    or event.etype != EV_SYSCALL):
                # Control events (fork/exit/signal) must not linger in a
                # half-full frame: a remote follower would otherwise sit
                # parked for a whole coalescing window at process exit.
                self._flush()
            elif not self._flush_scheduled:
                self._flush_scheduled = True
                self.sim.schedule(self.coalesce_ps, self._timer_flush)
        return seq

    def _ships_payload(self, event: Event) -> bool:
        if self.replicate == REPLICATE_FULL:
            return True
        return event.name not in LOCAL_REGENERABLE

    def _shipped_bytes(self, event: Event) -> int:
        nbytes = EVENT_SIZE
        if event.payload is not None and self._ships_payload(event):
            nbytes += event.payload_len
        return nbytes

    def _timer_flush(self) -> None:
        self._flush_scheduled = False
        self._flush()

    def _flush(self) -> None:
        """Cut one frame per remote machine covering everything pending."""
        start, end = self._ship_from, self.head
        self._ship_from = end
        if start >= end or not self._remote:
            return
        by_machine: Dict[object, list] = {}
        for vid in self._remote:
            if vid in self.cursors:
                machine = self._machines[vid]
                by_machine.setdefault(machine, []).append(vid)
        if not by_machine:
            return
        body = 0
        for seq in range(start, end):
            event = self.slots[seq % self.capacity]
            if event is None:
                body += EVENT_SIZE
                continue
            shipped = self._shipped_bytes(event)
            body += shipped
            elided = (event.payload_len if event.payload is not None
                      else 0) - (shipped - EVENT_SIZE)
            if elided > 0:
                self.net.payload_elided += elided
        nbytes = FRAME_HEADER_BYTES + body
        if self.compress:
            compressed = FRAME_HEADER_BYTES + int(body * COMPRESS_RATIO)
            saved = nbytes - compressed
            self.net.bytes_saved += saved
            nbytes = compressed
        tracer = self.tracer
        for machine in sorted(by_machine, key=lambda m: m.name):
            vids = tuple(by_machine[machine])
            arrival = self.network.deliver(
                self.producer_machine, machine, nbytes,
                lambda vids=vids, upto=end: self._frame_arrived(vids, upto),
                floor_ps=self._send_floor.get(machine.name, 0))
            self._send_floor[machine.name] = arrival
            self.net.frames += 1
            self.net.bytes += nbytes
            if tracer is not None:
                tracer.instant_here(
                    self.sim, "net", "frame",
                    (("ring", self.name), ("dst", machine.name),
                     ("events", end - start), ("bytes", nbytes)))

    def _frame_arrived(self, vids, upto: int) -> None:
        """Delivery callback: the mirror at one machine advanced."""
        for vid in vids:
            if vid in self.cursors and vid in self._remote:
                if upto > self._visible.get(vid, 0):
                    self._visible[vid] = upto
        self.published.notify_ready()

    # -- consumer side ------------------------------------------------------

    def peek(self, vid: int) -> Optional[Event]:
        if vid in self._remote:
            cursor = self.cursors.get(vid)
            if cursor is None or cursor >= self._visible.get(vid, 0):
                return None
        return super().peek(vid)

    def advance(self, vid: int) -> None:
        super().advance(vid)
        if vid not in self._remote:
            return
        cursor = self.cursors.get(vid)
        if cursor is None:
            return
        # Ack when a batch's worth has been consumed, or on draining
        # everything visible — the drain ack is what guarantees the
        # producer's flow-control window always reopens (liveness).
        if (cursor >= self._visible.get(vid, 0)
                or cursor - self._ack_sent.get(vid, cursor)
                >= self.ack_batch):
            self._send_ack(vid, cursor)

    def _send_ack(self, vid: int, cursor: int) -> None:
        self._ack_sent[vid] = cursor
        src = self._machines[vid]
        arrival = self.network.deliver(
            src, self.producer_machine, ACK_BYTES,
            lambda vid=vid, c=cursor: self._ack_arrived(vid, c),
            floor_ps=self._ack_floor.get(vid, 0))
        self._ack_floor[vid] = arrival
        self.net.acks += 1

    def _ack_arrived(self, vid: int, cursor: int) -> None:
        if vid not in self.cursors or vid not in self._remote:
            return
        if cursor > self._acked.get(vid, 0):
            self._acked[vid] = cursor
            self.net.remote_lag += self.head - cursor
            self.not_full.notify_ready()

    # -- failover -----------------------------------------------------------

    def on_promote(self, vid: int, machine) -> None:
        """Re-anchor the transport at the new leader's machine.

        The event log is durable across the crash (frames already
        mirrored, or recovered from the coordinator's copy), so the
        entire backlog becomes visible to every surviving follower —
        nothing is lost.  Flow control restarts from the followers'
        *actual* cursors, and the per-stream floors reset: the new
        leader opens fresh connections.
        """
        self.producer_machine = machine
        if vid in self._machines:
            self._machines[vid] = machine
        self._remote = {v for v in self.cursors
                        if self._is_remote_machine(v)}
        self._send_floor.clear()
        self._ack_floor.clear()
        self._ship_from = self.head
        for v in list(self._visible):
            if v not in self.cursors:
                del self._visible[v]
        for v in self.cursors:
            self._visible[v] = self.head
            cursor = self.cursors[v]
            self._acked[v] = cursor
            self._ack_sent[v] = cursor
        self.published.notify_ready()
        self.not_full.notify_ready()

