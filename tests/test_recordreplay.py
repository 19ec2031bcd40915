"""Tests for the record-replay clients (§5.4) and the log format."""

import struct

import pytest

from repro.core import NvxSession, VersionSpec
from repro.core.config import SessionConfig
from repro.core.events import (
    ETYPE_NAMES,
    EV_EXIT,
    EV_FORK,
    Event,
    syscall_event,
)
from repro.errors import RecordReplayError
from repro.faults import CORRUPT_SLOT, Fault, FaultPlan
from repro.kernel.uapi import O_RDWR, SYSCALL_NAMES, Segfault
from repro.recordreplay import (
    Recorder,
    ReplaySession,
    decode_records,
    encode_event,
    logfile,
)
from repro.recordreplay.logfile import decode_record
from repro.world import World


class TestLogFormat:
    def test_roundtrip_syscall_event(self):
        event = syscall_event("read", 1, 7, 512, args=(3, 512),
                              aux=(9,))
        event.fd_numbers = (4, 5)
        event.fd_count = 2
        blob = encode_event(event, b"payload-bytes")
        [(decoded, payload)] = list(decode_records(blob))
        assert decoded.name == "read" and decoded.nr == event.nr
        assert decoded.clock == 7 and decoded.tindex == 1
        assert decoded.retval == 512
        assert decoded.args == (3, 512)
        assert decoded.aux == (9,)
        assert decoded.fd_numbers == (4, 5)
        assert payload == b"payload-bytes"

    def test_roundtrip_control_event(self):
        event = Event(EV_EXIT, -1, "exit", 0, 3, retval=7)
        [(decoded, payload)] = list(decode_records(encode_event(event)))
        assert decoded.etype == EV_EXIT and decoded.retval == 7
        assert payload == b""

    def test_stream_of_records(self):
        blob = b"".join(
            encode_event(syscall_event("close", 0, i + 1, 0))
            for i in range(5))
        decoded = list(decode_records(blob))
        assert [e.clock for e, _ in decoded] == [1, 2, 3, 4, 5]

    def test_truncated_log_rejected(self):
        blob = encode_event(syscall_event("close", 0, 1, 0))
        with pytest.raises(RecordReplayError):
            list(decode_records(blob[:-3]))

    def test_bad_magic_rejected(self):
        with pytest.raises(RecordReplayError):
            list(decode_records(b"\x00" * 16))


def decode_body_reference(body: bytes):
    """The original field-at-a-time decoder, kept as the oracle for the
    one-Struct-per-shape decoder (the encoder's twin lives in
    ``benchmarks/check_encoding.py``)."""
    etype_code, nr, clock, tindex, retval = struct.unpack_from("<BiqHq",
                                                               body, 0)
    offset = struct.calcsize("<BiqHq")
    (nargs,) = struct.unpack_from("<B", body, offset)
    offset += 1
    args = struct.unpack_from(f"<{nargs}q", body, offset)
    offset += 8 * nargs
    aux_kind, naux = struct.unpack_from("<BB", body, offset)
    offset += 2
    if aux_kind == 1:
        flat = struct.unpack_from(f"<{2 * naux}q", body, offset)
        offset += 16 * naux
        aux = tuple(tuple(flat[i:i + 2]) for i in range(0, len(flat), 2))
    else:
        aux = struct.unpack_from(f"<{naux}q", body, offset)
        offset += 8 * naux
    (nfds,) = struct.unpack_from("<B", body, offset)
    offset += 1
    fd_numbers = struct.unpack_from(f"<{nfds}i", body, offset)
    offset += 4 * nfds
    (payload_len,) = struct.unpack_from("<I", body, offset)
    offset += 4
    payload = body[offset:offset + payload_len]
    return (ETYPE_NAMES[etype_code], nr, SYSCALL_NAMES.get(
        nr, ETYPE_NAMES[etype_code]), tindex, clock, retval, args, aux,
        len(fd_numbers), fd_numbers), payload


def event_fields(event: Event):
    return (event.etype, event.nr, event.name, event.tindex, event.clock,
            event.retval, event.args, event.aux, event.fd_count,
            event.fd_numbers)


def with_fds(event: Event, fds) -> Event:
    event.fd_numbers = tuple(fds)
    event.fd_count = len(fds)
    return event


def check_encoding_shapes():
    """The five shapes ``benchmarks/check_encoding.py`` pins."""
    return [
        (with_fds(syscall_event("read", 1, 7, 512, args=(3, 512),
                                aux=(9,)), (4, 5)), b"the-payload"),
        (syscall_event("epoll_wait", 0, 11, 2, args=(5, 0, 8, -1),
                       aux=((6, 1), (7, 4))), b""),
        (syscall_event("open", 2, 19, -2, args=(0, O_RDWR)), b""),
        (with_fds(Event(EV_FORK, -1, "fork", 0, 23, retval=41), (3,)),
         b""),
        (Event(EV_EXIT, -1, "exit", 3, 29, retval=-7), b""),
    ]


def shape_grid():
    """nargs × aux (none / flat / pairs) × fds × payload size."""
    shapes = check_encoding_shapes()
    auxes = ((), (9,), (-1, 2 ** 40, 3), ((6, 1),), ((6, 1), (7, -4)))
    clock = 100
    for nargs in range(7):
        for aux in auxes:
            for fds in ((), (4,), (4, 5, -1)):
                for size in (0, 1, 4096):
                    clock += 1
                    event = syscall_event(
                        "pread", nargs % 3, clock, size,
                        args=tuple(range(-1, nargs - 1)), aux=aux)
                    shapes.append((with_fds(event, fds),
                                   bytes([clock & 0xFF]) * size))
    return shapes


class TestOneStructPerShape:
    def test_every_shape_roundtrips_and_matches_the_reference(self):
        shapes = shape_grid()
        assert len(shapes) == 5 + 7 * 5 * 3 * 3
        for event, payload in shapes:
            blob = encode_event(event, payload)
            decoded, back, end = decode_record(blob, 0)
            assert end == len(blob)
            assert back == payload and type(back) is bytes
            assert event_fields(decoded) == event_fields(event)
            assert (event_fields(decoded), back) \
                == decode_body_reference(blob[8:])
            for field in (decoded.args, decoded.aux, decoded.fd_numbers):
                assert type(field) is tuple  # ReplaySession relies on it
            assert decoded.fd_count == len(decoded.fd_numbers)
            assert encode_event(decoded, back) == blob

    def test_walks_a_concatenation_to_exactly_its_end(self):
        shapes = shape_grid()
        records = [shapes[i % len(shapes)] for i in range(1000)]
        blob = b"".join(encode_event(e, p) for e, p in records)
        offset = 0
        for event, payload in records:
            decoded, back, offset = decode_record(blob, offset)
            assert event_fields(decoded) == event_fields(event)
            assert back == payload
        assert offset == len(blob)
        assert len(list(decode_records(blob))) == 1000

    def test_encoder_and_decoder_fetch_the_same_struct(self, monkeypatch):
        fetched = []
        real = logfile._body_packer

        def spy(*shape):
            fetched.append((shape, real(*shape)))
            return fetched[-1][1]

        monkeypatch.setattr(logfile, "_body_packer", spy)
        for event, payload in check_encoding_shapes():
            del fetched[:]
            decode_record(encode_event(event, payload))
            (enc_shape, enc_struct), (dec_shape, dec_struct) = fetched
            assert enc_shape == dec_shape
            assert enc_struct is dec_struct
            assert enc_struct is logfile._BODY_PACKERS[enc_shape]

    def test_unknown_aux_kind_decodes_flat_and_reencodes_differently(self):
        event = syscall_event("read", 0, 5, 3, args=(3,), aux=(9, 8))
        blob = bytearray(encode_event(event))
        kind_at = 8 + 23 + 1 + 8 * 1
        assert blob[kind_at] == 0
        blob[kind_at] = 2
        decoded, payload, _end = decode_record(bytes(blob))
        assert decoded.aux == (9, 8)
        assert encode_event(decoded, payload) != bytes(blob)

    def test_accepts_bytearray_and_memoryview(self):
        event, payload = check_encoding_shapes()[0]
        blob = encode_event(event, payload)
        for view in (bytearray(blob), memoryview(blob)):
            decoded, back, end = decode_record(view)
            assert event_fields(decoded) == event_fields(event)
            assert back == payload and type(back) is bytes


def decodes_or_raises_typed(blob: bytes):
    """Decode ``blob``; the only failure allowed is RecordReplayError.
    Whatever decodes must re-encode without crashing the oracle."""
    try:
        records = list(decode_records(blob))
    except RecordReplayError:
        return None
    for event, payload in records:
        assert type(encode_event(event, payload)) is bytes
    return records


class TestDamagedLogIsATypedFailure:
    RECORDS = [encode_event(event, payload)
               for event, payload in check_encoding_shapes()] + [
        encode_event(syscall_event("pread", 0, 3, 3, args=(3, 100)),
                     b"abc")]

    @pytest.mark.parametrize("record", RECORDS,
                             ids=lambda r: f"{len(r)}B")
    def test_every_truncation_prefix(self, record):
        assert decodes_or_raises_typed(record) is not None
        assert decodes_or_raises_typed(b"") == []
        for cut in range(1, len(record)):
            with pytest.raises(RecordReplayError):
                list(decode_records(record[:cut]))
            # ... and the same prefix behind an intact record.
            with pytest.raises(RecordReplayError):
                list(decode_records(record + record[:cut]))

    @pytest.mark.parametrize("record", RECORDS,
                             ids=lambda r: f"{len(r)}B")
    def test_every_single_byte_substitution(self, record):
        outcomes = set()
        for offset in range(len(record)):
            for value in (0, 1, 7, 255):
                damaged = bytearray(record)
                damaged[offset] = value
                for blob in (bytes(damaged), bytes(damaged) + record):
                    result = decodes_or_raises_typed(blob)
                    outcomes.add(result is None)
        assert outcomes == {True, False}  # both paths were exercised

    def test_count_byte_overrunning_the_body(self):
        record = bytearray(self.RECORDS[-1])
        nargs_at = 8 + 23
        assert record[nargs_at] == 2
        for nargs in (7, 200, 255):
            record[nargs_at] = nargs
            with pytest.raises(RecordReplayError, match="truncated"):
                list(decode_records(bytes(record)))
            # Bytes of a following record must not be read as this one's.
            with pytest.raises(RecordReplayError, match="truncated"):
                list(decode_records(bytes(record) + self.RECORDS[0]))

    def test_wellformed_record_with_seven_args(self):
        body = struct.pack("<BiqHqB7qBBBI", 0, 17, 1, 0, 0, 7,
                           *range(7), 0, 0, 0, 0)
        blob = struct.pack("<II", logfile.MAGIC, len(body)) + body
        with pytest.raises(RecordReplayError, match="bad arg count 7"):
            list(decode_records(blob))

    def test_payload_length_past_the_record(self):
        record = bytearray(self.RECORDS[-1])
        len_at = len(record) - 3 - 4
        assert struct.unpack_from("<I", record, len_at) == (3,)
        struct.pack_into("<I", record, len_at, 4)
        with pytest.raises(RecordReplayError, match="truncated payload"):
            list(decode_records(bytes(record)))
        with pytest.raises(RecordReplayError, match="truncated payload"):
            list(decode_records(bytes(record) + self.RECORDS[0]))

    def test_unknown_event_type(self):
        record = bytearray(self.RECORDS[-1])
        record[8] = 0xEE
        with pytest.raises(RecordReplayError, match="unknown event type"):
            list(decode_records(bytes(record)))


def app(ctx):
    fd = yield from ctx.open("/tmp/input")
    data = yield from ctx.read(fd, 32)
    t = yield from ctx.time()
    out = yield from ctx.open("/dev/null", O_RDWR)
    yield from ctx.write(out, data)
    yield from ctx.close(out)
    yield from ctx.close(fd)
    return (data, t)


def record_run(plan=None, main=app):
    world = World()
    world.kernel.fs(world.server).create("/tmp/input", b"the-input")
    session = NvxSession(world, [VersionSpec("prod", main)],
                         config=SessionConfig(fault_plan=plan))
    recorder = Recorder(session, "/var/log.bin")
    session.start()
    world.run()
    return recorder, session


class TestRecorder:
    def test_records_every_event(self):
        recorder, session = record_run()
        published = session.root_tuple.ring.stats.published
        assert recorder.events_recorded == published
        assert recorder.bytes_written > 0

    def test_payloads_in_log(self):
        recorder, _ = record_run()
        payloads = [p for _, p in decode_records(recorder.log_bytes) if p]
        assert b"the-input" in payloads

    def test_leader_unobstructed(self):
        recorder, session = record_run()
        leader = session.variants[0].root_task.threads[0]
        assert leader.exception is None
        assert leader.result[0] == b"the-input"

    def test_truncated_recording_is_refused(self):
        # Aim a corrupt-slot fault between the app's first call and the
        # end of the clean run, so it lands on a slot the recorder has
        # yet to drain: the recorder stops there, and handing its log
        # out as complete would replay a silently shortened run.
        starts = []

        def marked(ctx):
            starts.append(ctx.sim.now)
            return (yield from app(ctx))

        clean, session = record_run(main=marked)
        at_ps = (starts[0] + session.world.sim.now) // 2
        recorder, session = record_run(
            FaultPlan((Fault(CORRUPT_SLOT, at_ps=at_ps, ring=0),)))
        assert any("poisoned" in line for line in session.injector.log)
        assert 0 < recorder.events_recorded < clean.events_recorded
        with pytest.raises(
                RecordReplayError,
                match=f"truncated after {recorder.events_recorded} events: "
                      f"ring0: slot corruption"):
            recorder.log_bytes


class TestReplay:
    def test_replay_reproduces_results(self):
        recorder, _ = record_run()
        world = World()
        replay = ReplaySession(world, [VersionSpec("candidate", app)],
                               recorder.log_bytes)
        replay.start()
        world.run()
        thread = replay.variants[0].root_task.threads[0]
        assert thread.result[0] == b"the-input"

    def test_multi_version_replay_triages_crash(self):
        def crasher(ctx):
            fd = yield from ctx.open("/tmp/input")
            yield from ctx.read(fd, 32)
            raise Segfault("regression")
            yield  # pragma: no cover

        recorder, _ = record_run()
        world = World()
        replay = ReplaySession(world,
                               [VersionSpec("good", app),
                                VersionSpec("bad", crasher)],
                               recorder.log_bytes)
        replay.start()
        world.run()
        assert replay.crashed == ["v1:bad"]
        assert replay.variants[0].root_task.threads[0].result[0] == \
            b"the-input"

    def test_replayed_time_matches_recording(self):
        recorder, session = record_run()
        recorded_time = session.variants[0].root_task.threads[0].result[1]
        world = World()
        replay = ReplaySession(world, [VersionSpec("candidate", app)],
                               recorder.log_bytes)
        replay.start()
        world.run()
        assert replay.variants[0].root_task.threads[0].result[1] == \
            recorded_time

    def test_divergent_candidate_dropped(self):
        def divergent(ctx):
            yield from ctx.getuid()
            return "divergent"

        recorder, _ = record_run()
        world = World()
        replay = ReplaySession(world, [VersionSpec("odd", divergent)],
                               recorder.log_bytes)
        replay.start()
        world.run()
        assert replay.stats.fatal_divergences
        assert not replay.variants[0].alive
