"""Unit tests for the ring buffer, pool allocator and event layout."""

import pytest

from repro.core import (
    BUCKET_SIZES,
    DEFAULT_CAPACITY,
    Event,
    RingBuffer,
    SharedMemoryPool,
    syscall_event,
)
from repro.costmodel import DEFAULT_COSTS
from repro.errors import NvxError
from repro.sim import Machine, Simulator


def world():
    sim = Simulator()
    machine = Machine(sim, name="m")
    return sim, machine


def drive(machine, gen, name="driver"):
    return machine.spawn(gen, name=name)


class TestEventLayout:
    def test_event_rejects_too_many_args(self):
        with pytest.raises(NvxError):
            Event("syscall", 1, "write", 0, 1, args=tuple(range(7)))

    def test_six_args_fit_one_cache_line(self):
        event = syscall_event("write", 0, 1, 512, args=(1, 2, 3, 4, 5, 6))
        assert event.args == (1, 2, 3, 4, 5, 6)

    def test_words_view_starts_with_nr(self):
        event = syscall_event("open", 0, 1, 3, args=(7,))
        assert event.words()[0] == 2  # __NR_open
        assert event.words()[1] == 7

    def test_default_ring_capacity_is_paper_value(self):
        assert DEFAULT_CAPACITY == 256

    def test_packed_slot_is_one_cache_line(self):
        from repro.core.events import EVENT_SIZE, pack_event
        event = syscall_event("write", 1, 9, 512, args=(1, 2, 3, 4, 5, 6))
        assert len(pack_event(event)) == EVENT_SIZE

    def test_pack_unpack_roundtrip(self):
        from repro.core.events import pack_event, unpack_event
        event = syscall_event("read", 2, 41, -9, args=(3, 512))
        back = unpack_event(pack_event(event))
        assert back.etype == event.etype
        assert back.nr == event.nr and back.name == "read"
        assert back.tindex == 2 and back.clock == 41
        assert back.retval == -9
        # args travel as raw u64 slots
        assert back.args == (3, 512)

    def test_seal_packs_by_value_fields(self):
        from repro.core.events import pack_event
        from repro.core.ringbuffer import event_seal
        event = syscall_event("close", 0, 7, 0, args=(4,))
        seal = event_seal(event)
        assert seal[0] == pack_event(event)
        event.retval ^= 0x5A5A  # the injector's slot-corruption flip
        assert event_seal(event) != seal

    def test_seal_falls_back_for_non_slot_args(self):
        # Simulation-level events may carry string args (paths); those
        # cannot ride the fixed slot layout and seal as a field tuple.
        from repro.core.ringbuffer import event_seal
        event = syscall_event("open", 0, 3, 4, args=("/tmp/f", 0))
        seal = event_seal(event)
        assert isinstance(seal[0], tuple) and "/tmp/f" in seal[0][-1]
        event.retval = 5
        assert event_seal(event) != seal


class TestRingBuffer:
    def test_publish_then_consume(self):
        sim, machine = world()
        ring = RingBuffer(sim, DEFAULT_COSTS, capacity=8)
        ring.add_consumer(1)
        got = {}

        def producer():
            for i in range(5):
                yield from ring.publish(
                    syscall_event("close", 0, i + 1, 0))

        def consumer():
            events = []
            for _ in range(5):
                while ring.peek(1) is None:
                    yield from ring.wait_published(
                        False, lambda: ring.peek(1) is not None)
                events.append(ring.peek(1))
                ring.advance(1)
            got["events"] = events

        drive(machine, producer())
        drive(machine, consumer())
        sim.run()
        assert [e.clock for e in got["events"]] == [1, 2, 3, 4, 5]
        assert ring.stats.published == 5 and ring.stats.consumed == 5

    def test_backpressure_stalls_producer(self):
        sim, machine = world()
        ring = RingBuffer(sim, DEFAULT_COSTS, capacity=4)
        ring.add_consumer(1)
        progress = {}

        def producer():
            for i in range(10):
                yield from ring.publish(syscall_event("close", 0, i + 1, 0))
            progress["done_at"] = sim.now

        def slow_consumer():
            from repro.sim.core import Sleep

            for _ in range(10):
                yield Sleep(1_000_000)  # 1 µs per event
                while ring.peek(1) is None:
                    yield from ring.wait_published(
                        False, lambda: ring.peek(1) is not None)
                ring.advance(1)

        drive(machine, producer())
        drive(machine, slow_consumer())
        sim.run()
        assert ring.stats.producer_stalls > 0
        # Producer cannot finish before the consumer frees slots.
        assert progress["done_at"] >= 5 * 1_000_000

    def test_multiple_consumers_each_see_every_event(self):
        sim, machine = world()
        ring = RingBuffer(sim, DEFAULT_COSTS, capacity=8)
        seen = {1: [], 2: [], 3: []}
        for vid in seen:
            ring.add_consumer(vid)

        def producer():
            for i in range(6):
                yield from ring.publish(syscall_event("write", 0, i + 1, i))

        def consumer(vid):
            for _ in range(6):
                while ring.peek(vid) is None:
                    yield from ring.wait_published(
                        False, lambda: ring.peek(vid) is not None)
                seen[vid].append(ring.peek(vid).retval)
                ring.advance(vid)

        drive(machine, producer())
        for vid in seen:
            drive(machine, consumer(vid), name=f"c{vid}")
        sim.run()
        assert seen[1] == seen[2] == seen[3] == list(range(6))

    def test_remove_consumer_unblocks_producer(self):
        sim, machine = world()
        ring = RingBuffer(sim, DEFAULT_COSTS, capacity=2)
        ring.add_consumer(1)
        done = {}

        def producer():
            for i in range(6):
                yield from ring.publish(syscall_event("close", 0, i + 1, 0))
            done["ok"] = True

        def dropper():
            from repro.sim.core import Sleep

            yield Sleep(10_000_000)
            ring.remove_consumer(1)

        drive(machine, producer())
        drive(machine, dropper())
        sim.run()
        assert done.get("ok")

    def test_lag_accounting(self):
        sim, machine = world()
        ring = RingBuffer(sim, DEFAULT_COSTS, capacity=16)
        ring.add_consumer(1)

        def producer():
            for i in range(4):
                yield from ring.publish(syscall_event("close", 0, i + 1, 0))

        drive(machine, producer())
        sim.run()
        assert ring.lag_of(1) == 4
        ring.advance(1)
        assert ring.lag_of(1) == 3

    def test_zero_capacity_rejected(self):
        sim, _ = world()
        with pytest.raises(NvxError):
            RingBuffer(sim, DEFAULT_COSTS, capacity=0)

    def test_advance_by_stranger_rejected(self):
        sim, _ = world()
        ring = RingBuffer(sim, DEFAULT_COSTS)
        with pytest.raises(NvxError):
            ring.advance(99)


class TestSharedMemoryPool:
    def test_bucket_selection(self):
        sim, _ = world()
        pool = SharedMemoryPool(sim, DEFAULT_COSTS)
        assert pool.bucket_for(1).chunk_size == 64
        assert pool.bucket_for(64).chunk_size == 64
        assert pool.bucket_for(65).chunk_size == 128
        assert pool.bucket_for(65536).chunk_size == 65536

    def test_oversized_allocation_rejected(self):
        sim, _ = world()
        pool = SharedMemoryPool(sim, DEFAULT_COSTS)
        with pytest.raises(NvxError):
            pool.bucket_for(65537)

    def test_alloc_copy_consume_roundtrip(self):
        sim, machine = world()
        pool = SharedMemoryPool(sim, DEFAULT_COSTS)
        out = {}

        def main():
            chunk = yield from pool.alloc(b"payload", readers=2)
            first = yield from pool.consume(chunk)
            second = yield from pool.consume(chunk)
            out["reads"] = (first, second)

        drive(machine, main())
        sim.run()
        assert out["reads"] == (b"payload", b"payload")
        assert pool.allocs == 1 and pool.frees == 1

    def test_chunks_recycled_through_free_list(self):
        sim, machine = world()
        pool = SharedMemoryPool(sim, DEFAULT_COSTS)

        def main():
            for _ in range(40):
                chunk = yield from pool.alloc(b"x" * 100, readers=1)
                yield from pool.consume(chunk)

        drive(machine, main())
        sim.run()
        bucket = pool.bucket_for(100)
        # 40 allocations but only one segment's worth of chunks needed.
        assert bucket.segments_allocated == 1
        assert bucket.live_chunks == 0

    def test_live_bytes_tracks_outstanding(self):
        sim, machine = world()
        pool = SharedMemoryPool(sim, DEFAULT_COSTS)
        holder = {}

        def main():
            holder["chunk"] = yield from pool.alloc(b"y" * 1000, readers=1)

        drive(machine, main())
        sim.run()
        bucket = pool.bucket_for(1000)
        assert bucket.live_chunks * bucket.chunk_size == 1024

    def test_bucket_sizes_cover_cache_line_to_64k(self):
        assert BUCKET_SIZES[0] == 64
        assert BUCKET_SIZES[-1] == 65536


class TestRingStatsMedian:
    def test_lower_median_on_even_reservoir(self):
        from repro.core.ringbuffer import RingStats

        stats = RingStats()
        for value in (9, 1, 7, 3):
            stats.record_distance(value)
        # Even-length reservoir: the lower of the two middle elements
        # (3, not the 5.0 midpoint) — the EXPERIMENTS.md convention, and
        # always an actually-observed distance.
        assert stats.median_distance() == 3

    def test_odd_reservoir_is_plain_median(self):
        from repro.core.ringbuffer import RingStats

        stats = RingStats()
        for value in (10, 2, 6):
            stats.record_distance(value)
        assert stats.median_distance() == 6

    def test_empty_reservoir(self):
        from repro.core.ringbuffer import RingStats

        assert RingStats().median_distance() == 0
