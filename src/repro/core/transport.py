"""The event-transport interface: what a session needs from the stream.

VARAN's single-host design speaks to one concrete object — the shared
ring buffer.  The distributed extension (DMON/dMVX-style remote
followers) needs a second implementation that ships the same packed
64-byte event lines over the simulated network, so the session layers
(:mod:`repro.core.coordinator`, :mod:`repro.core.monitor`,
:mod:`repro.nvx.lockstep`, :mod:`repro.nvx.scribe`) now program against
the :class:`EventTransport` contract and receive the concrete transport
from a *factory*:

* :func:`local_transport` — the shared-memory :class:`RingBuffer`
  (the default; byte-for-byte the single-host hot path);
* :func:`repro.core.netring.net_transport` — the networked ring that
  mirrors event lines to remote machines in coalesced frames.

The contract (all methods the local ring already had, plus two hooks):

=====================  ====================================================
``add_consumer(vid)``   subscribe a variant; its cursor starts at ``head``
``remove_consumer``     unsubscribe (crash path); releases payload readers
``min_cursor()``        the gating sequence producer backpressure uses
``lag_of(vid)``         ``head`` minus the variant's cursor
``publish(event)``      generator: backpressure-stall, write, seal, wake
``peek(vid)``           next *visible* event for a variant, else None
``advance(vid)``        consume: seal check, cursor bump, producer wake
``wait_published``      generator: spin-then-waitlock park until ready()
``wait_advanced``       generator: sibling-thread happens-before gating
``wake_all()``          failover: force every waiter to re-examine
``on_promote(...)``     failover hook: the producer role moved machines
=====================  ====================================================

Attributes the sessions rely on: ``head``, ``cursors``, ``slots``,
``stats``, ``name``, ``capacity``, ``integrity``, ``observer``,
``sample_distances`` and the seal/torn-write surface (``peek`` and
``advance`` raise ``NvxError`` on slot corruption, which the monitor
routes to ``report_ring_fault``).

:class:`EventTransport` is deliberately a plain base class with
``__slots__ = ()`` and no state — the local ring inherits it for free
and the packed hot path stays exactly as fast as before the interface
existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import NvxError
from repro.sim.machine import Machine


class EventTransport:
    """Abstract leader→followers event stream (see module docstring).

    Concrete transports implement every method below;
    :meth:`on_promote` has a no-op default so purely local transports
    pay nothing for the distributed surface.
    """

    __slots__ = ()

    # -- consumer management ------------------------------------------------

    def add_consumer(self, vid: int) -> None:
        raise NotImplementedError

    def remove_consumer(self, vid: int) -> None:
        raise NotImplementedError

    def min_cursor(self) -> int:
        raise NotImplementedError

    def lag_of(self, vid: int) -> int:
        raise NotImplementedError

    # -- producer side ------------------------------------------------------

    def publish(self, event):
        """Generator: publish with backpressure; returns the sequence."""
        raise NotImplementedError

    # -- consumer side ------------------------------------------------------

    def peek(self, vid: int):
        raise NotImplementedError

    def advance(self, vid: int) -> None:
        raise NotImplementedError

    def wait_published(self, blocking_hint: bool, ready):
        raise NotImplementedError

    def wait_advanced(self, blocking_hint: bool, ready):
        raise NotImplementedError

    def wake_all(self) -> None:
        raise NotImplementedError

    # -- distributed hooks (no-ops for local transports) --------------------

    def on_promote(self, vid: int, machine=None) -> None:
        """The producer role moved to variant ``vid`` on ``machine``.

        Local transports need nothing: shared memory survives the old
        leader.  Networked transports re-anchor shipping and flow
        control at the new producer machine.
        """


@dataclass
class TransportContext:
    """Everything a transport factory may need to build one ring.

    The coordinator fills one per process tuple; factories read the
    fields they care about (a local ring ignores the network and the
    machine map entirely).
    """

    sim: object
    costs: object
    capacity: int
    name: str
    tracer: object = None
    #: The world's network (None for worlds without one).
    network: object = None
    #: Machine currently producing events (the leader's machine).
    producer_machine: object = None
    #: vid → machine for every consumer that will subscribe.
    consumer_machines: Dict[int, object] = field(default_factory=dict)
    #: The world's :class:`~repro.core.netring.NetStats` sink: network
    #: transports aggregate their counters here so ``repro.obs`` can
    #: report per-world totals without process-global state.
    net_stats: object = None


#: Factory signature: ``factory(ctx: TransportContext) -> EventTransport``.
TransportFactory = Callable[[TransportContext], EventTransport]


def local_transport() -> TransportFactory:
    """The default factory: a shared-memory :class:`RingBuffer`."""
    from repro.core.ringbuffer import RingBuffer

    def build(ctx: TransportContext) -> EventTransport:
        return RingBuffer(ctx.sim, ctx.costs, capacity=ctx.capacity,
                          name=ctx.name, tracer=ctx.tracer)

    return build


def resolve_transport(transport, has_remote: bool) -> TransportFactory:
    """Normalise a ``transport=`` argument into a factory.

    ``None`` selects the local ring — unless the placement puts some
    follower on a different machine, in which case the networked
    transport is the only one that makes sense and becomes the default.
    A transport *class* is not a factory and is rejected.
    """
    if transport is None:
        if has_remote:
            from repro.core.netring import net_transport
            return net_transport()
        return local_transport()
    if callable(transport) and not isinstance(transport, type):
        return transport
    raise NvxError(f"transport must be a factory such as "
                   f"local_transport() or net_transport(), got "
                   f"{transport!r}")


def resolve_placement(placement, specs, world, default_machine) -> List:
    """Resolve a ``placement=`` mapping into one machine per variant.

    ``placement`` maps variant index *or* spec name to a machine of
    ``world`` (a :class:`~repro.sim.machine.Machine` or its name).
    Variants absent from the map stay on ``default_machine``.  Anything
    else raises, so a typo never silently runs everything locally or
    leaves a variant with no machine to start on.
    """
    machines = [default_machine for _ in specs]
    if placement is None:
        return machines
    if not isinstance(placement, Mapping):
        raise NvxError(f"placement: expected a mapping, got "
                       f"{type(placement).__name__}")
    by_name = {spec.name: index for index, spec in enumerate(specs)}
    for key, value in placement.items():
        if isinstance(key, bool) or not isinstance(key, (int, str)):
            raise NvxError(f"placement: key {key!r} is neither a variant "
                           f"index nor a version name")
        if isinstance(key, int):
            if not 0 <= key < len(specs):
                raise NvxError(
                    f"placement: variant index {key} out of range "
                    f"(session has {len(specs)} versions)")
            index = key
        else:
            index = by_name.get(key)
            if index is None:
                raise NvxError(
                    f"placement: no version named {key!r} "
                    f"(versions: {sorted(by_name)})")
        machine = value
        if isinstance(machine, str):
            machine = world.machine(machine)
        elif (not isinstance(machine, Machine)
              or world.machines.get(machine.name) is not machine):
            raise NvxError(f"placement: {key!r} -> {value!r} is not a "
                           f"machine of this world")
        machines[index] = machine
    return machines
