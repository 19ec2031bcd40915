"""Convenience wrapper tying simulator, machines, network and kernel
into one testbed mirroring the paper's setup: two Xeon E3-1280 machines
in the same rack joined by a 1 Gb link.

The world is also the session facade: :meth:`World.nvx`,
:meth:`World.lockstep` and :meth:`World.scribe` construct the matching
session kind from a shared :class:`SessionConfig`, so experiments do
not import session classes directly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import SessionConfig
from repro.costmodel import DEFAULT_COSTS
from repro.errors import NvxError
from repro.kernel.kernel import Kernel
from repro.sim.core import Simulator
from repro.sim.machine import Machine
from repro.sim.network import Network

__all__ = ["World", "SessionConfig"]


class World:
    """A complete simulated testbed."""

    def __init__(self, machine_names=("server", "client")) -> None:
        self.costs = costs = DEFAULT_COSTS
        self.sim = Simulator()
        self.tracer = self.sim.tracer
        if self.tracer is not None:
            # Distinguish this world's machines in merged traces; worlds
            # created while no tracer is active cost nothing here.
            self.tracer.new_world()
        self.network = Network(self.sim, costs.network)
        self.machines: Dict[str, Machine] = {
            name: Machine(self.sim, costs.machine, name=name)
            for name in machine_names
        }
        self.kernel = Kernel(self.sim, self.network, costs)

    def machine(self, name: str) -> Machine:
        """The named machine, with a diagnosable error when absent."""
        try:
            return self.machines[name]
        except KeyError:
            configured = ", ".join(sorted(self.machines)) or "none"
            raise NvxError(
                f"world has no machine named {name!r} "
                f"(configured: {configured})") from None

    @property
    def server(self) -> Machine:
        return self.machine("server")

    @property
    def client(self) -> Machine:
        return self.machine("client")

    def spawn(self, main, name: str = "proc", daemon: bool = False):
        """Spawn a native (un-monitored) task running ``main(ctx)`` on
        the server."""
        return self.kernel.spawn_task(self.server, main, name=name,
                                      daemon=daemon)

    # -- session facade ----------------------------------------------------

    def nvx(self, specs, config: Optional[SessionConfig] = None):
        """Build a Varan :class:`NvxSession` over this world."""
        from repro.core.coordinator import NvxSession

        return NvxSession(self, specs, config=config)

    def lockstep(self, specs, config: Optional[SessionConfig] = None,
                 profile=None):
        """Build a centralized lockstep-monitor baseline session
        (``profile`` defaults to the mx monitor)."""
        from repro.nvx.lockstep import MX_PROFILE, LockstepSession

        return LockstepSession(self, specs, config=config,
                               profile=profile or MX_PROFILE)

    def scribe(self, specs, config: Optional[SessionConfig] = None):
        """Build a Scribe-style record/replay baseline session."""
        from repro.nvx.scribe import ScribeSession

        return ScribeSession(self, specs, config=config)

    def run(self, **kwargs) -> None:
        self.sim.run(**kwargs)

    @property
    def now(self) -> int:
        return self.sim.now
