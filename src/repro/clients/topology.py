"""Placement of pooled load-generator actors over client machines.

A load-generation run wants *thousands* of client actors, far more than
one simulated machine would realistically host.  A
:class:`LoadTopology` describes a pool of load-generator machines and
deterministically spreads the actor pool across them round-robin, so
the actor → machine map is a pure function of the topology (no
registration order dependence).

The topology only *names* machines; the caller builds the
:class:`~repro.world.World` from :meth:`machine_names` and spawns each
actor on :meth:`machine_of` its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import NvxError

__all__ = ["LoadTopology"]


@dataclass(frozen=True)
class LoadTopology:
    """A pool of ``clients`` actors spread over ``machines`` hosts.

    ``extra_machines`` names hosts the experiment needs besides the
    server and the load generators (remote-follower replicas, say);
    they are folded into :meth:`machine_names` so one topology fully
    determines the world.
    """

    clients: int = 1000
    machines: int = 4
    server: str = "server"
    prefix: str = "lg"
    extra_machines: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise NvxError(f"topology needs >= 1 client: {self.clients}")
        if self.machines < 1:
            raise NvxError(f"topology needs >= 1 machine: {self.machines}")

    def machine_names(self) -> Tuple[str, ...]:
        """Every machine the world must have, server first."""
        return ((self.server,) + self.extra_machines
                + tuple(f"{self.prefix}{i}" for i in range(self.machines)))

    def machine_of(self, index: int) -> str:
        """The load-generator machine hosting actor ``index``."""
        return f"{self.prefix}{index % self.machines}"

    def placements(self) -> Iterator[Tuple[int, str]]:
        """(actor index, machine name) for the whole pool."""
        for index in range(self.clients):
            yield index, self.machine_of(index)
