"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings, strategies as st

from repro.bpf import assemble_bpf, pack_seccomp_data
from repro.core.events import Event, syscall_event
from repro.core.ringbuffer import RingBuffer
from repro.core.shm import BUCKET_SIZES, SharedMemoryPool
from repro.costmodel import DEFAULT_COSTS
from repro.isa import CodeImage, assemble
from repro.errors import RecordReplayError
from repro.recordreplay.logfile import (
    decode_record,
    decode_records,
    encode_event,
)
from repro.sim import Machine, Simulator


# -- VX86 assembler/disassembler roundtrip -----------------------------------

_REGS = st.sampled_from(["rax", "rbx", "rcx", "rdx", "rsi", "rdi",
                         "r8", "r9", "r10", "r11"])
_IMM32 = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
_IMM64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)


@st.composite
def _instruction(draw):
    choice = draw(st.integers(0, 6))
    if choice == 0:
        return f"movi {draw(_REGS)}, {draw(_IMM64)}"
    if choice == 1:
        return f"addi {draw(_REGS)}, {draw(_IMM32)}"
    if choice == 2:
        return f"mov {draw(_REGS)}, {draw(_REGS)}"
    if choice == 3:
        return "nop"
    if choice == 4:
        return "syscall"
    if choice == 5:
        return f"cmpi {draw(_REGS)}, {draw(_IMM32)}"
    return f"push {draw(_REGS)}"


class TestIsaRoundtrip:
    @given(st.lists(_instruction(), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_assemble_disassemble_identity(self, lines):
        source = "\n".join(lines)
        code = assemble(source)
        insns = CodeImage(0, code).sweep()
        assert len(insns) == len(lines)
        assert sum(i.length for i in insns) == len(code)

    @given(st.lists(_instruction(), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_reassembling_disassembly_is_stable(self, lines):
        code = assemble("\n".join(lines))
        rendered = []
        for insn in CodeImage(0, code).sweep():
            text = str(insn).split(": ", 1)[1]
            rendered.append(text)
        assert assemble("\n".join(rendered)) == code


# -- shared-memory pool invariants ---------------------------------------------


class TestPoolInvariants:
    @given(st.lists(st.integers(min_value=1, max_value=65536),
                    min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_alloc_consume_conserves_chunks(self, sizes):
        sim = Simulator()
        machine = Machine(sim, name="m")
        pool = SharedMemoryPool(sim, DEFAULT_COSTS)

        def main():
            for size in sizes:
                chunk = yield from pool.alloc(b"x" * size, readers=1)
                data = yield from pool.consume(chunk)
                assert len(data) == size

        machine.spawn(main(), name="p")
        sim.run()
        assert pool.allocs == pool.frees == len(sizes)
        assert all(b.live_chunks == 0 for b in pool.buckets.values())

    @given(st.integers(min_value=1, max_value=65536))
    @settings(max_examples=60, deadline=None)
    def test_bucket_always_fits(self, size):
        sim = Simulator()
        pool = SharedMemoryPool(sim, DEFAULT_COSTS)
        bucket = pool.bucket_for(size)
        assert bucket.chunk_size >= size
        assert bucket.chunk_size in BUCKET_SIZES


# -- ring buffer FIFO invariant ---------------------------------------------------


class TestRingInvariants:
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=100),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_every_consumer_sees_fifo_order(self, capacity, count,
                                            consumers):
        sim = Simulator()
        machine = Machine(sim, name="m")
        ring = RingBuffer(sim, DEFAULT_COSTS, capacity=capacity)
        seen = {vid: [] for vid in range(1, consumers + 1)}
        for vid in seen:
            ring.add_consumer(vid)

        def producer():
            for i in range(count):
                yield from ring.publish(
                    syscall_event("close", 0, i + 1, i))

        def consumer(vid):
            for _ in range(count):
                while ring.peek(vid) is None:
                    yield from ring.wait_published(
                        False, lambda: ring.peek(vid) is not None)
                seen[vid].append(ring.peek(vid).retval)
                ring.advance(vid)

        machine.spawn(producer(), name="prod")
        for vid in seen:
            machine.spawn(consumer(vid), name=f"c{vid}")
        sim.run()
        for vid in seen:
            assert seen[vid] == list(range(count))


# -- record-replay log roundtrip ---------------------------------------------------

_EVENT = st.builds(
    syscall_event,
    name=st.sampled_from(["read", "write", "open", "close", "accept"]),
    tindex=st.integers(0, 5),
    clock=st.integers(1, 2 ** 32),
    retval=st.integers(-4096, 2 ** 31 - 1),
    args=st.lists(st.integers(0, 2 ** 40), max_size=6).map(tuple),
)


class TestLogRoundtrip:
    @given(st.lists(st.tuples(_EVENT, st.binary(max_size=600)),
                    min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_encode_decode_identity(self, items):
        blob = b"".join(encode_event(e, p) for e, p in items)
        decoded = list(decode_records(blob))
        assert len(decoded) == len(items)
        for (orig, payload), (back, back_payload) in zip(items, decoded):
            assert back.name == orig.name
            assert back.clock == orig.clock
            assert back.retval == orig.retval
            assert back.args == orig.args
            assert back_payload == payload


_I64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
_AUX = st.one_of(
    st.lists(_I64, max_size=4).map(tuple),
    st.lists(st.tuples(_I64, _I64), min_size=1, max_size=3).map(tuple))
_FDS = st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1), max_size=3).map(tuple)


@st.composite
def _shaped_record(draw):
    """An event of any (nargs, aux kind, naux, nfds) shape + payload."""
    event = draw(_EVENT)
    event.aux = draw(_AUX)
    event.fd_numbers = draw(_FDS)
    event.fd_count = len(event.fd_numbers)
    return event, draw(st.binary(max_size=80))


class TestLogShapesAndDamage:
    @given(st.lists(_shaped_record(), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_every_shape_is_a_fixed_point(self, items):
        blob = b"".join(encode_event(e, p) for e, p in items)
        offset = 0
        for event, payload in items:
            start = offset
            back, back_payload, offset = decode_record(blob, offset)
            assert (back.args, back.aux, back.fd_numbers, back_payload) \
                == (event.args, event.aux, event.fd_numbers, payload)
            assert back.fd_count == len(event.fd_numbers)
            assert encode_event(back, back_payload) == blob[start:offset]
        assert offset == len(blob)

    @given(st.lists(_shaped_record(), min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                    max_size=4),
           st.integers(0, 10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_damage_is_a_typed_failure_or_a_decode(self, items, pokes, cut):
        blob = bytearray(b"".join(encode_event(e, p) for e, p in items))
        for offset, value in pokes:
            blob[offset % len(blob)] = value
        damaged = bytes(blob[:len(blob) - cut % len(blob)])
        try:
            records = list(decode_records(damaged))
        except RecordReplayError:
            return
        for event, payload in records:
            encode_event(event, payload)  # the oracle's re-encode


# -- BPF: the verifier accepts whatever the assembler emits -------------------------


class TestBpfProperties:
    @given(st.integers(0, 400), st.integers(0, 400))
    @settings(max_examples=50, deadline=None)
    def test_listing1_style_filter_total(self, follower_nr, leader_nr):
        source = """
        ld event[0]
        jeq #108, getegid
        jeq #2, open
        jmp bad
        getegid:
        ld [0]
        jeq #102, good
        open:
        ld [0]
        jeq #104, good
        bad: ret #0
        good: ret #0x7fff0000
        """
        program = assemble_bpf(source)
        verdict = program.run(pack_seccomp_data(follower_nr),
                              [leader_nr])
        assert verdict in (0, 0x7FFF0000)
        expected_allow = (leader_nr == 108 and follower_nr == 102) or (
            leader_nr == 2 and follower_nr == 104)
        assert (verdict == 0x7FFF0000) == expected_allow
