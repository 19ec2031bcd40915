"""Point-to-point network between simulated machines.

Models the paper's testbed: two machines in the same rack joined by a
1 Gb Ethernet link.  Each direction of the link serialises transmissions
(bandwidth) and adds a fixed propagation latency.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.costmodel import NetworkSpec
from repro.sim.core import Simulator
from repro.sim.machine import Machine


class Network:
    """Latency/bandwidth model used by cross-machine sockets."""

    def __init__(self, sim: Simulator, spec: NetworkSpec = None) -> None:
        self.sim = sim
        self.spec = spec or NetworkSpec()
        self._busy_until: Dict[Tuple[str, str], int] = {}
        self.bytes_sent = 0
        #: Optional fault hook (``repro.faults.NetworkFaults``): may
        #: delay a delivery (partition hold, loss retransmission) but
        #: never drop it, so injected network faults preserve liveness.
        self.faults = None

    #: When True, each link direction is a single serialising resource
    #: (strict store-and-forward).  Off by default: with TSO, full-duplex
    #: switching and per-flow pacing, modelling the rack link as a
    #: per-message latency+transmission delay keeps the *server* the
    #: bottleneck — which is what the paper's client-side throughput
    #: measurements require (see DESIGN.md, network model).
    serialize: bool = False

    def deliver(self, src: Machine, dst: Machine, nbytes: int,
                fn: Callable[[], None], floor_ps: int = 0) -> int:
        """Schedule ``fn`` when ``nbytes`` sent from src arrive at dst.

        ``floor_ps`` enforces in-order delivery within one stream: the
        arrival never precedes it (TCP segments of a connection do not
        overtake each other — nor does the FIN).  Returns the arrival
        time, which the caller threads through as the next floor.
        """
        if src is dst:
            # Loopback: negligible latency, no bandwidth cap.
            arrival = max(self.sim.now + 1000, floor_ps)
            self.sim.schedule(arrival - self.sim.now, fn)
            return arrival
        tx = nbytes * self.spec.ps_per_byte
        if self.serialize:
            key = (src.name, dst.name)
            start = max(self.sim.now, self._busy_until.get(key, 0))
            self._busy_until[key] = start + tx
            arrival = start + tx + self.spec.latency_ps
        else:
            arrival = self.sim.now + tx + self.spec.latency_ps
        if self.faults is not None:
            arrival = self.faults.adjust(self.sim.now, arrival)
        arrival = max(arrival, floor_ps)
        self.bytes_sent += nbytes
        self.sim.schedule(arrival - self.sim.now, fn)
        return arrival
