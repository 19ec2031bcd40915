"""Shared session configuration (the unified Session API).

One :class:`SessionConfig` dataclass carries every option the three
session kinds (:class:`~repro.core.coordinator.NvxSession`,
:class:`~repro.nvx.lockstep.LockstepSession`,
:class:`~repro.nvx.scribe.ScribeSession`) understand, replacing their
previously-divergent keyword soups.  Each session consumes the fields it
cares about and ignores the rest, so one config can be reused across
monitor kinds when an experiment swaps them.  :func:`resolve_placement`
turns the config's ``placement`` into one machine per variant for all
three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.core.netring import REPLICATE_FULL, REPLICATE_SELECTIVE
from repro.core.ringbuffer import DEFAULT_CAPACITY
from repro.errors import NvxError
from repro.sim.machine import Machine


@dataclass(frozen=True)
class SessionConfig:
    """Options shared by every monitored-session kind.

    ``machine``/``daemon`` apply to all sessions; ``rules``,
    ``ring_capacity`` and ``sample_distances`` only matter to
    :class:`NvxSession`.  Variant 0 is the born leader, and every
    session traces into its world's tracer.
    """

    machine: Optional[object] = None
    #: Variant placement: maps variant index or version name to a
    #: machine (a Machine or its name in the world).  Variants absent
    #: from the map run on ``machine`` (default: the world's server).
    #: A placement naming a second machine makes the session
    #: *distributed*: each process tuple streams over a
    #: ``repro.core.netring.NetRing`` instead of the shared-memory
    #: ``RingBuffer``, and whole-machine faults become survivable.
    placement: Optional[dict] = None
    #: dMVX replication policy of a distributed session's rings:
    #: ``"full"`` ships every payload, ``"selective"`` only the ones a
    #: replica cannot regenerate from its own files.
    replicate: str = REPLICATE_FULL
    #: Compress a distributed session's frames (leader CPU for bytes).
    compress: bool = False
    rules: Optional[object] = None
    ring_capacity: int = DEFAULT_CAPACITY
    daemon: bool = False
    sample_distances: bool = False
    #: Scheduled fault injection (``repro.faults.FaultPlan``); None runs
    #: fault-free.  Only :class:`NvxSession` executes plans.
    fault_plan: Optional[object] = None
    #: NVX conformance oracle: None (the default) lets the session build
    #: its own always-on ``repro.faults.InvariantChecker``; pass an
    #: explicit checker to share one across sessions, or False to
    #: disable checking entirely.
    invariants: Optional[object] = None

    def __post_init__(self) -> None:
        # A ring the coordinator cannot build fails inside the
        # simulation, where no caller would see it: refuse it here.
        capacity = self.ring_capacity
        if (not isinstance(capacity, int) or isinstance(capacity, bool)
                or capacity < 1):
            raise NvxError(f"SessionConfig.ring_capacity must be an int "
                           f">= 1, got {capacity!r}")
        if self.replicate not in (REPLICATE_FULL, REPLICATE_SELECTIVE):
            raise NvxError(f"SessionConfig.replicate must be "
                           f"{REPLICATE_FULL!r} or {REPLICATE_SELECTIVE!r}, "
                           f"got {self.replicate!r}")
        if not isinstance(self.compress, bool):
            raise NvxError(f"SessionConfig.compress must be a bool, got "
                           f"{self.compress!r}")


def resolve_session_config(session_cls: str,
                           config: Optional[SessionConfig]) -> SessionConfig:
    """The session's config: ``config`` itself, or the defaults when
    None; anything else is rejected with an error naming the session."""
    if config is None:
        return SessionConfig()
    if not isinstance(config, SessionConfig):
        raise NvxError(f"{session_cls}: config must be a SessionConfig, "
                       f"got {type(config).__name__}")
    return config


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
