"""Events streamed from the leader to its followers (§3.3).

Each event is conceptually one 64-byte cache line: type, syscall number,
issuing thread, Lamport timestamp, up to six by-value arguments and the
return value.  Larger payloads (read buffers, path strings) do not fit:
they travel through the shared-memory pool allocator and the event
carries only the *shared pointer* (§3.3.1).

The fixed slot layout is realised by :data:`SLOT_STRUCT`, one
pre-compiled ``struct.Struct`` covering the whole line::

    <u8 etype|nargs<<4> <u8 tindex> <u16 nr> <u32 clock>
    <u64 retval> <6 × u64 args>                       (64 bytes total)

:func:`pack_event`/:func:`unpack_event` are single pack/unpack calls
against that layout — the ring's publish-side integrity seal and the
event micro-benchmarks go through them instead of touching fields one
at a time.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.errors import NvxError
from repro.kernel.uapi import SYSCALL_NAMES, SYSCALL_NUMBERS

EV_SYSCALL = "syscall"
EV_SIGNAL = "signal"
EV_FORK = "fork"
EV_CLONE = "clone"
EV_EXIT = "exit"

#: Wire codes for the event types — shared by the packed slot layout
#: below and the record-replay log format (repro.recordreplay.logfile).
ETYPE_CODES = {EV_SYSCALL: 0, EV_SIGNAL: 1, EV_FORK: 2, EV_CLONE: 3,
               EV_EXIT: 4}
ETYPE_NAMES = {code: name for name, code in ETYPE_CODES.items()}

#: Conceptual event size (bytes): one x86 cache line.
EVENT_SIZE = 64

#: Maximum by-value arguments (x86-64 syscall ABI).
MAX_ARGS = 6

#: The whole 64-byte slot as one pre-compiled packer (see module
#: docstring for the field layout).
SLOT_STRUCT = struct.Struct("<BBHIQ6Q")
assert SLOT_STRUCT.size == EVENT_SIZE

_MASK64 = 2 ** 64 - 1
_ZEROS = (0, 0, 0, 0, 0, 0)


class Event:
    """One entry in the shared ring buffer."""

    __slots__ = ("etype", "nr", "name", "tindex", "clock", "retval",
                 "args", "aux", "payload", "fd_count", "fd_numbers",
                 "seq")

    def __init__(self, etype: str, nr: int, name: str, tindex: int,
                 clock: int, retval: int = 0, args: Tuple = (),
                 aux: Tuple = (), payload: Optional["object"] = None,
                 fd_count: int = 0, fd_numbers: Tuple[int, ...] = ()) -> None:
        if len(args) > MAX_ARGS:
            raise NvxError(
                f"event for {name}: {len(args)} by-value args "
                f"exceed the {MAX_ARGS}-slot event layout")
        self.etype = etype
        self.nr = nr
        self.name = name
        self.tindex = tindex  # issuing thread's creation index
        self.clock = clock  # Lamport timestamp (§3.3.3)
        self.retval = retval
        self.args = args
        self.aux = aux
        #: Shared-memory chunk holding a by-reference payload, or None.
        self.payload = payload
        #: Number of descriptors transferred over the data channel for
        #: this event (§3.3.2). Followers must collect exactly this many.
        self.fd_count = fd_count
        #: The leader-side fd numbers of the transferred descriptors, so
        #: followers install the duplicates at matching numbers.
        self.fd_numbers = fd_numbers
        self.seq = -1  # assigned by the ring at publish time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event({self.etype!r}, nr={self.nr}, name={self.name!r}, "
                f"tindex={self.tindex}, clock={self.clock}, "
                f"retval={self.retval}, args={self.args!r}, seq={self.seq})")

    @property
    def payload_len(self) -> int:
        return len(self.payload.data) if self.payload is not None else 0

    def words(self) -> Tuple[int, ...]:
        """The 32-bit view exposed to BPF rewrite rules (``event[k]``).

        Word 0 is the syscall number — the view Listing 1 relies on —
        followed by the low words of the by-value arguments.
        """
        words = [self.nr & 0xFFFF_FFFF]
        for arg in self.args:
            if isinstance(arg, int):
                words.append(arg & 0xFFFF_FFFF)
        return tuple(words)


def pack_event(event: Event) -> bytes:
    """Serialise the by-value fields into the fixed 64-byte slot line.

    One :data:`SLOT_STRUCT` pack — no per-field writes.  Raises
    ``KeyError``/``TypeError``/``struct.error`` for events whose fields
    do not fit the line (non-integer args, unknown type): callers that
    must handle every event shape fall back to a field tuple.
    """
    args = event.args
    n = len(args)
    return SLOT_STRUCT.pack(
        ETYPE_CODES[event.etype] | n << 4,
        event.tindex & 0xFF,
        event.nr & 0xFFFF,
        event.clock & 0xFFFF_FFFF,
        event.retval & _MASK64,
        *[a & _MASK64 for a in args],
        *_ZEROS[n:])


def unpack_event(data: bytes) -> Event:
    """Rebuild an :class:`Event` from one packed 64-byte slot line."""
    fields = SLOT_STRUCT.unpack(data)
    tag, tindex, nr, clock, retval = fields[:5]
    etype = ETYPE_NAMES[tag & 0xF]
    nargs = tag >> 4
    # nr travels as u16 but is conceptually i16 (-1 marks "no number");
    # retval as u64 but is conceptually i64 (negative errnos).
    if nr >= 0x8000:
        nr -= 0x10000
    if retval >= 2 ** 63:
        retval -= 2 ** 64
    name = SYSCALL_NAMES.get(nr, etype) if etype == EV_SYSCALL else etype
    return Event(etype, nr, name, tindex, clock, retval=retval,
                 args=fields[5:5 + nargs])


def syscall_event(name: str, tindex: int, clock: int, retval: int,
                  args: Tuple = (), aux: Tuple = (),
                  payload=None, fd_count: int = 0) -> Event:
    return Event(EV_SYSCALL, SYSCALL_NUMBERS.get(name, -1), name, tindex,
                 clock, retval=retval, args=args, aux=aux, payload=payload,
                 fd_count=fd_count)
