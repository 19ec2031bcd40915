"""Per-follower data channels for descriptor transfer (§3.3.2).

A UNIX-domain socket pair connects the leader with each follower.
Whenever the leader obtains a new file descriptor it duplicates the
description into every follower (``sendmsg`` with SCM_RIGHTS) — the
mechanism that makes transparent leader replacement possible.

Transfers are tagged with the publishing event's Lamport clock.  The
receiver claims the entry tagged with *its* event's clock wherever it
sits in the queue, so sibling threads receiving on the same channel
cannot steal each other's descriptors no matter how their replays
interleave.  After a leader crash the tag also decides lostness: an
event from the dead regime whose entry is absent will never get one
(a crashed leader cannot complete an in-flight send), and the caller
re-duplicates the descriptor from a surviving replica's mirror.
"""

from __future__ import annotations

from repro.costmodel import CostModel, cycles
from repro.kernel.net import PipeEnd
from repro.sim.core import Compute, Simulator


class _Tagged:
    """A descriptor in flight, tagged with its event's Lamport clock."""

    __slots__ = ("clock", "description")

    def __init__(self, clock, description) -> None:
        self.clock = clock
        self.description = description

    def incref(self):
        self.description.incref()
        return self


#: Wire size of one cross-machine descriptor-capability message.
FD_MSG_BYTES = 64


class DataChannel:
    """One leader↔follower descriptor-passing channel.

    Same-machine channels are the paper's UNIX-domain socket pair.
    When leader and follower sit on *different* machines the duplicated
    description travels as a capability message over the network,
    paying its latency/bandwidth cost and arriving in order (per-channel
    stream floor) — the transport-agnostic surface the sessions speak
    to does not change.
    """

    def __init__(self, sim: Simulator, costs: CostModel, network=None,
                 producer_machine=None, consumer_machine=None) -> None:
        self.sim = sim
        self.costs = costs
        self.leader_end, self.follower_end = PipeEnd.make_socketpair(sim)
        self.fds_sent = 0
        self.network = network
        self.producer_machine = producer_machine
        self.consumer_machine = consumer_machine
        self._floor = 0

    def _cross_machine(self) -> bool:
        return (self.network is not None
                and self.producer_machine is not None
                and self.consumer_machine is not None
                and self.producer_machine is not self.consumer_machine)

    def send_fd(self, description, clock=None):
        """Generator (leader side): duplicate one description across."""
        yield Compute(cycles(self.costs.stream.fd_send))
        item = _Tagged(clock, description)
        if self._cross_machine():
            self._floor = self.network.deliver(
                self.producer_machine, self.consumer_machine,
                FD_MSG_BYTES,
                lambda item=item: self.leader_end.push_fd(item),
                floor_ps=self._floor)
        else:
            self.leader_end.push_fd(item)
        self.fds_sent += 1

    def rebind_producer(self, machine) -> None:
        """Failover: the sending side moved to the new leader's machine."""
        self.producer_machine = machine
        self._floor = 0

    def notify_failover(self) -> None:
        """Coordinator side: wake receivers parked on a dead leader.

        A parked receiver re-evaluates its ``lost`` predicate against
        the new regime and falls back to mirror rescue if its transfer
        died with the old leader.  The wake is unconditional: an empty
        channel is neither readable nor hung up, so ``poke`` would not
        wake it.
        """
        self.follower_end.read_waiters.notify_all()

    def _take(self, expected_clock):
        """Claim this event's entry, wherever it sits in the queue."""
        queue = self.follower_end.fd_queue
        for index, item in enumerate(queue):
            if (expected_clock is None or item.clock is None
                    or item.clock == expected_clock):
                del queue[index]
                return item
        return None

    def recv_fd(self, expected_clock=None, lost=None):
        """Generator (follower side): collect one duplicated description.

        Returns the description, or ``None`` when it can never arrive —
        channel EOF, or ``lost()`` says the sender died mid-transfer.
        """
        yield Compute(cycles(self.costs.stream.fd_recv))
        end = self.follower_end
        while True:
            item = self._take(expected_clock)
            if item is not None:
                return item.description
            if end.peer is None or end.peer.closed:
                return None
            if lost is not None and lost():
                return None
            yield from end.read_waiters.wait()

    def close(self) -> None:
        self.leader_end.decref()
        self.follower_end.decref()
