"""Varan core: event streaming, ring buffer, monitors, coordinator."""

from repro.core.coordinator import (
    NvxSession,
    SessionStats,
    Variant,
    VersionSpec,
)
from repro.core.datachannel import DataChannel
from repro.core.events import (
    EV_CLONE,
    EV_EXIT,
    EV_FORK,
    EV_SIGNAL,
    EV_SYSCALL,
    EVENT_SIZE,
    Event,
    syscall_event,
)
from repro.core.monitor import (
    BLOCKING_CALLS,
    PROMOTED,
    ReplicaMonitor,
    RingTuple,
)
from repro.core.netring import (
    REPLICATE_FULL,
    REPLICATE_SELECTIVE,
    NetRing,
    NetStats,
)
from repro.core.ringbuffer import DEFAULT_CAPACITY, RingBuffer, RingStats
from repro.core.shm import (
    BUCKET_SIZES,
    Bucket,
    SharedChunk,
    SharedMemoryPool,
)
from repro.core.tables import (
    EXEC_LOCAL_AFTER_CONSUME,
    LOCAL_CALLS,
    install_tables,
    make_follower_table,
    make_leader_table,
)

__all__ = [
    "NvxSession",
    "SessionStats",
    "Variant",
    "VersionSpec",
    "DataChannel",
    "EV_CLONE",
    "EV_EXIT",
    "EV_FORK",
    "EV_SIGNAL",
    "EV_SYSCALL",
    "EVENT_SIZE",
    "Event",
    "syscall_event",
    "BLOCKING_CALLS",
    "PROMOTED",
    "ReplicaMonitor",
    "RingTuple",
    "DEFAULT_CAPACITY",
    "RingBuffer",
    "RingStats",
    "NetRing",
    "NetStats",
    "REPLICATE_FULL",
    "REPLICATE_SELECTIVE",
    "BUCKET_SIZES",
    "Bucket",
    "SharedChunk",
    "SharedMemoryPool",
    "EXEC_LOCAL_AFTER_CONSUME",
    "LOCAL_CALLS",
    "install_tables",
    "make_follower_table",
    "make_leader_table",
]
