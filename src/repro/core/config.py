"""Shared session configuration (the unified Session API).

One :class:`SessionConfig` dataclass carries every option the three
session kinds (:class:`~repro.core.coordinator.NvxSession`,
:class:`~repro.nvx.lockstep.LockstepSession`,
:class:`~repro.nvx.scribe.ScribeSession`) understand, replacing their
previously-divergent keyword soups.  Each session consumes the fields it
cares about and ignores the rest, so one config can be reused across
monitor kinds when an experiment swaps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import NvxError

#: Paper default ring size (mirrors ringbuffer.DEFAULT_CAPACITY, stated
#: literally to keep this module import-light).
_DEFAULT_RING_CAPACITY = 256


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
    #: *distributed*: its event stream defaults to the networked
    #: transport and whole-machine faults become survivable.
    placement: Optional[dict] = None
    #: Event-transport factory (``repro.core.transport``): None selects
    #: the shared-memory ring, or — when ``placement`` names a remote
    #: machine — ``repro.core.netring.net_transport()``.  Pass an
    #: explicit factory to tune coalescing/replication/compression.
    transport: Optional[object] = None
    rules: Optional[object] = None
    ring_capacity: int = _DEFAULT_RING_CAPACITY
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
