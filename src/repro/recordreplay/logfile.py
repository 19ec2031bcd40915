"""Binary log format for Varan's record-replay clients (§5.4).

Each record is a fixed header followed by the variable payload::

    <u32 magic> <u32 total_len>
    <u8 etype> <i32 nr> <i64 clock> <u16 tindex> <i64 retval>
    <u8 nargs> <nargs × i64> <u8 aux_kind> <u8 naux> <aux × i64>
    <u8 nfds> <nfds × i32> <u32 payload_len> <payload bytes>

(``aux_kind`` 1: ``naux`` pairs, 2 × ``naux`` values; else flat ints.)
The format is self-delimiting so a reader can stream records out of an
append-only file, and the four count bytes fix a record's *shape*, so
one ``struct.Struct`` per shape serves both directions.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, Tuple

from repro.core.events import ETYPE_CODES, ETYPE_NAMES, MAX_ARGS, Event
from repro.errors import RecordReplayError
from repro.kernel.uapi import SYSCALL_NAMES

MAGIC = 0x5641_5241  # "VARA"

# Wire codes live with the event definition so the log format and the
# packed ring-slot layout cannot drift apart.
_ETYPE_CODES = ETYPE_CODES
_ETYPE_NAMES = ETYPE_NAMES

_HEADER = struct.Struct("<II")

#: Body offset of the ``nargs`` count byte (after the fixed prefix).
_NARGS_AT = struct.calcsize("<BiqHq")

#: Per-shape body Structs, keyed by (nargs, aux_kind, naux, nfds), for
#: encoder and decoder alike.  The format is little-endian and
#: unpadded, so one Struct covering the whole body emits bytes identical
#: to the original field-at-a-time encoder ("<Biq"+"<Hq"+...
#: concatenated) — checked by the byte-identity CI step.
_BODY_PACKERS: Dict[Tuple[int, int, int, int], struct.Struct] = {}


def _body_packer(nargs: int, aux_kind: int, naux: int,
                 nfds: int) -> struct.Struct:
    key = (nargs, aux_kind, naux, nfds)
    packer = _BODY_PACKERS.get(key)
    if packer is None:
        aux_q = 2 * naux if aux_kind else naux
        packer = _BODY_PACKERS[key] = struct.Struct(
            f"<BiqHqB{nargs}qBB{aux_q}qB{nfds}iI")
    return packer


def encode_event(event: Event, payload: bytes = b"") -> bytes:
    """Serialise one event (with its already-extracted payload).

    One pre-compiled Struct pack per record (cached by shape) instead of
    per-field packs; the byte stream is unchanged.
    """
    int_args = [a for a in event.args if isinstance(a, int)]
    # aux is either flat ints or (fd, mask)-style int pairs (epoll_wait);
    # a kind byte distinguishes the two shapes.
    if event.aux and all(isinstance(a, tuple) and len(a) == 2
                         for a in event.aux):
        aux_kind = 1
        naux = len(event.aux)
        aux_values = [value for pair in event.aux for value in pair]
    else:
        aux_kind = 0
        aux_values = [a for a in event.aux if isinstance(a, int)]
        naux = len(aux_values)
    fds = event.fd_numbers
    nargs = len(int_args)
    nfds = len(fds)
    payload_len = len(payload)
    packer = _body_packer(nargs, aux_kind, naux, nfds)
    body = packer.pack(
        _ETYPE_CODES[event.etype], event.nr, event.clock,
        event.tindex, event.retval,
        nargs, *int_args,
        aux_kind, naux, *aux_values,
        nfds, *fds,
        payload_len)
    return _HEADER.pack(MAGIC, packer.size + payload_len) + body + payload


def decode_record(data: bytes, offset: int = 0
                  ) -> Tuple[Event, bytes, int]:
    """Decode the record at ``offset``; returns ``(event, payload,
    next_offset)``.

    Reads the four count bytes that fix the shape, then unpacks the
    body in one call with the Struct :func:`encode_event` packed it
    with.  Any damage raises :class:`RecordReplayError`.
    """
    size = len(data)
    body = offset + _HEADER.size
    if body > size:
        raise RecordReplayError("truncated record header")
    magic, length = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        raise RecordReplayError(f"bad magic {magic:#x} at {offset}")
    end = body + length
    if end > size:
        raise RecordReplayError("truncated record body")
    try:
        nargs = data[body + _NARGS_AT]
        at = body + _NARGS_AT + 1 + 8 * nargs
        # Any kind byte other than 1 is flat ints, as the encoder's
        # kind 0 — the re-encode then differs, which the oracle reports.
        aux_kind = 1 if data[at] == 1 else 0
        naux = data[at + 1]
        aux_q = 2 * naux if aux_kind else naux
        at += 2 + 8 * aux_q
        nfds = data[at]
    except IndexError:
        raise RecordReplayError("truncated record body") from None
    # Bounds first: only shapes that fit their record reach the cache.
    payload_at = at + 1 + 4 * nfds + 4
    if payload_at > end:
        raise RecordReplayError("truncated record body")
    if nargs > MAX_ARGS:
        raise RecordReplayError(f"bad arg count {nargs}")
    fields = _body_packer(nargs, aux_kind, naux, nfds).unpack_from(
        data, body)
    payload_end = payload_at + fields[-1]
    if payload_end > end:
        raise RecordReplayError("truncated payload")
    etype = _ETYPE_NAMES.get(fields[0])
    if etype is None:
        raise RecordReplayError(f"unknown event type {fields[0]}")
    nr = fields[1]
    aux_at = 8 + nargs
    aux = fields[aux_at:aux_at + aux_q]
    if aux_kind:
        aux = tuple(zip(aux[0::2], aux[1::2]))
    fd_numbers = fields[aux_at + aux_q + 1:-1]
    event = Event(etype, nr, SYSCALL_NAMES.get(nr, etype), fields[3],
                  fields[2], retval=fields[4], args=fields[6:6 + nargs],
                  aux=aux, fd_count=nfds, fd_numbers=fd_numbers)
    return event, bytes(data[payload_at:payload_end]), end


def decode_records(data: bytes) -> Iterator[Tuple[Event, bytes]]:
    """Stream (event, payload) pairs out of a log buffer."""
    offset = 0
    while offset < len(data):
        event, payload, offset = decode_record(data, offset)
        yield event, payload
