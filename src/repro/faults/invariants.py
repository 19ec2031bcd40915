"""The NVX conformance oracle: an always-on invariant checker.

One :class:`InvariantChecker` attaches to a session and continuously
asserts the contract Varan's robustness claims rest on:

* **ring sequence numbers are dense and monotonic** — every publish on a
  ring carries seq = previous + 1, no gaps, no reordering;
* **failover drops no external event** — the Lamport clocks stamped on
  published events form the dense sequence 1, 2, 3, … per ring *even
  across leader promotion*: a new leader that skipped part of the dead
  leader's backlog would publish with a too-small clock and be caught;
* **consumption matches publication** — every event a follower (or the
  record client) consumes is compared against what was published at that
  sequence number, in order, per consumer;
* **record → replay round-trips byte-identically** — published events
  are pushed through the §5.4 log codec (encode → decode → re-encode)
  and both byte strings and field values must survive the trip.

The checker is pure observation: it charges no virtual time and draws no
randomness, so enabling it cannot change any simulated result — which is
why every NvxSession and LockstepSession runs one (its own, or a
checker shared through ``SessionConfig.invariants``).  Violations are recorded, counted process-wide (so sweep
runners can fail loudly), and emitted as tracer instants when a tracer
is armed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.events import Event
from repro.recordreplay.logfile import decode_record, encode_event

#: Round-trip every N-th published event through the log codec in the
#: always-on configuration (1 = every event, used by chaos runs).
DEFAULT_ROUNDTRIP_EVERY = 8

#: Process-wide violation count, so a sweep worker can detect that *any*
#: session it ran broke the contract without holding session references.
_process_violations = 0


def process_violations() -> int:
    """Total invariant violations seen by any checker in this process."""
    return _process_violations


class _RingState:
    """Per-ring bookkeeping (keyed by ring name, which is unique within
    a session)."""

    __slots__ = ("next_seq", "next_clock", "consumed_seq")

    def __init__(self) -> None:
        self.next_seq: Optional[int] = None
        self.next_clock = 1
        #: consumer vid -> next sequence number it must consume.
        self.consumed_seq: Dict[int, int] = {}


class InvariantChecker:
    """Continuous conformance oracle for one (or more) sessions."""

    def __init__(self, roundtrip_every: int = DEFAULT_ROUNDTRIP_EVERY
                 ) -> None:
        self.roundtrip_every = max(1, roundtrip_every)
        self.violations: List[str] = []
        self.events_checked = 0
        self.consumes_checked = 0
        self.roundtrips_checked = 0
        self.lockstep_rounds = 0
        self._rings: Dict[str, _RingState] = {}
        self._sessions: List = []

    # -- wiring ------------------------------------------------------------

    def attach_session(self, session) -> None:
        """Register a session; its rings report through this checker."""
        self._sessions.append(session)

    def _state(self, ring) -> _RingState:
        state = self._rings.get(ring.name)
        if state is None:
            state = self._rings[ring.name] = _RingState()
        return state

    def violation(self, message: str, tracer=None, sim=None) -> None:
        global _process_violations
        self.violations.append(message)
        _process_violations += 1
        if tracer is not None and sim is not None:
            tracer.instant_here(sim, "invariant", "violation",
                                (("message", message),))

    # -- ring observer hooks (called by RingBuffer) ------------------------

    def on_publish(self, ring, event: Event) -> None:
        """Publish-side checks: dense seqs, dense clocks, log round-trip."""
        self.events_checked += 1
        state = self._state(ring)
        if state.next_seq is not None and event.seq != state.next_seq:
            self.violation(
                f"{ring.name}: non-monotonic publish: seq {event.seq} "
                f"after {state.next_seq - 1}", ring.tracer, ring.sim)
        state.next_seq = event.seq + 1
        if event.clock != state.next_clock:
            self.violation(
                f"{ring.name}: external event dropped or duplicated "
                f"across failover: published clock {event.clock}, "
                f"expected {state.next_clock}", ring.tracer, ring.sim)
        state.next_clock = event.clock + 1
        if self.events_checked % self.roundtrip_every == 0:
            self._check_roundtrip(ring, event)

    def on_consume(self, ring, vid: int, event: Event) -> None:
        """Consume-side checks: in-order, gap-free consumption per vid.

        Field integrity is already guarded by the ring's own seal (see
        ``RingBuffer.advance``); here we assert stream shape.
        """
        self.consumes_checked += 1
        state = self._state(ring)
        expected = state.consumed_seq.get(vid)
        if expected is not None and event.seq != expected:
            self.violation(
                f"{ring.name}: consumer {vid} consumed seq {event.seq}, "
                f"expected {expected}", ring.tracer, ring.sim)
        state.consumed_seq[vid] = event.seq + 1

    def _check_roundtrip(self, ring, event: Event) -> None:
        """Encode → decode → re-encode must be byte-identical (§5.4)."""
        self.roundtrips_checked += 1
        payload = b"" if event.payload is None else bytes(event.payload.data)
        try:
            first = encode_event(event, payload)
            decoded, decoded_payload, _end = decode_record(first)
            second = encode_event(decoded, decoded_payload)
        except Exception as exc:  # noqa: BLE001 - any codec failure is a finding
            self.violation(
                f"{ring.name}: record/replay codec failed on "
                f"{event.etype}:{event.name} seq {event.seq}: {exc!r}",
                ring.tracer, ring.sim)
            return
        if first != second or decoded_payload != payload:
            self.violation(
                f"{ring.name}: record/replay round-trip not "
                f"byte-identical for {event.etype}:{event.name} "
                f"seq {event.seq}", ring.tracer, ring.sim)

    # -- lockstep hook (called by LockstepSession) -------------------------

    def on_lockstep_round(self, profile_name: str, round_id: int,
                          names, caught: bool = False) -> None:
        """One barrier rendezvous completed; all versions must have
        arrived at the same system call.  A mixed round the monitor
        itself flagged (``caught=True``, the expected fatal-divergence
        path) is conformant — the violation is a mixed round that
        *escaped* the monitor."""
        self.lockstep_rounds += 1
        distinct = sorted(set(names))
        if len(distinct) > 1 and not caught:
            self.violation(
                f"lockstep[{profile_name}]: round {round_id} mixed "
                f"system calls {distinct} escaped the monitor")

    # -- end-of-run checks -------------------------------------------------

    def final_check(self) -> List[str]:
        """Post-run assertions over every attached session.

        Every live follower must have drained its ring completely (a
        parked, starved follower at end-of-run means an event it was
        owed never arrived), and a session that survived must still
        have a leader.
        """
        for session in self._sessions:
            leader = session.leader
            alive = [v for v in session.variants if v.alive]
            if alive and leader is None:
                self.violation(
                    "session ended with live variants but no leader")
            for tuple_ in session.tuples:
                ring = tuple_.ring
                for vid, cursor in sorted(ring.cursors.items()):
                    if cursor < ring.head:
                        self.violation(
                            f"{ring.name}: consumer {vid} ended "
                            f"{ring.head - cursor} events behind "
                            f"(published {ring.head}, consumed {cursor})")
        return self.violations

    def summary(self) -> str:
        return (f"invariants: {self.events_checked} publishes, "
                f"{self.consumes_checked} consumes, "
                f"{self.roundtrips_checked} roundtrips, "
                f"{len(self.violations)} violations")
