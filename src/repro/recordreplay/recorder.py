"""The record-phase client: an artificial follower that drains the ring
buffer to persistent storage (§5.4).

Decoupling log writing from the application lets the leader run at
nearly full speed — the recorder is just one more ring consumer on its
own core.
"""

from __future__ import annotations

from repro.core.coordinator import NvxSession
from repro.costmodel import cycles
from repro.errors import NvxError, RecordReplayError
from repro.recordreplay.logfile import encode_event
from repro.sim.core import Compute

#: Variant-id space reserved for recorder consumers (one per tuple).
RECORDER_VID_BASE = 9000


class Recorder:
    """Attach to a session *before* ``start()`` to capture every tuple."""

    def __init__(self, session: NvxSession, path: str) -> None:
        self.session = session
        self.path = path
        self.world = session.world
        fs = self.world.kernel.fs(session.machine)
        self.inode = fs.lookup(path) or fs.create(path)
        self.events_recorded = 0
        self.bytes_written = 0
        #: Diagnostic set when a drain hit ring damage and stopped.
        self.corrupted = None
        session.tuple_hooks.append(self._on_tuple)

    def _on_tuple(self, tuple_) -> None:
        vid = RECORDER_VID_BASE + tuple_.id
        tuple_.ring.add_consumer(vid)
        self.session.machine.spawn(
            self._drain(tuple_.ring, vid),
            name=f"varan.recorder.{tuple_.id}", daemon=True)

    def _drain(self, ring, vid: int):
        costs = self.session.costs

        def has_event():
            # Runs in the publisher's notify context: report ready on
            # ring damage and let the drain loop fail diagnostically.
            try:
                return ring.peek(vid) is not None
            except NvxError:
                return True

        while True:
            try:
                event = ring.peek(vid)
                if event is None:
                    yield from ring.wait_published(True, has_event)
                    continue
                payload = b""
                if event.payload is not None:
                    payload = yield from self.session.pool.consume(
                        event.payload)
                record = encode_event(event, payload)
                yield Compute(cycles(
                    costs.record_log_per_event
                    + costs.record_log_per_byte * len(record)))
                self.inode.write_at(self.inode.size(), record)
                self.events_recorded += 1
                self.bytes_written += len(record)
                ring.advance(vid)
            except NvxError as exc:
                # Injected slot damage: the log is no longer trustworthy
                # past this point.  Stop recording and unsubscribe so the
                # dead cursor cannot backpressure the leader forever.
                self.corrupted = str(exc)
                ring.remove_consumer(vid)
                return

    @property
    def log_bytes(self) -> bytes:
        """The recorded log; :class:`RecordReplayError` if ring damage
        cut the recording short, so no truncated log passes as whole."""
        if self.corrupted is not None:
            raise RecordReplayError(
                f"recording truncated after {self.events_recorded} "
                f"events: {self.corrupted}")
        return bytes(self.inode.data)
