"""Shared-memory pool allocator (§3.3.4).

Buckets for size classes, each holding segments carved into equal-size
chunks on a free list; a per-bucket lock is taken only around allocation
and deallocation, exactly as the paper describes.  Payload bytes are
really stored, so followers replay *actual data*, not placeholders.
"""

from __future__ import annotations

from typing import Dict, List

from repro.costmodel import CostModel, cycles
from repro.errors import NvxError
from repro.sim.core import Compute, Simulator
from repro.sim.sync import Mutex

#: Size classes, from one cache line up to 64 KiB.
BUCKET_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192,
                16384, 32768, 65536)

#: Chunks carved out of each new segment.
CHUNKS_PER_SEGMENT = 16


class SharedChunk:
    """One allocation; carries real payload bytes and a consumer count."""

    __slots__ = ("bucket", "size_class", "data", "remaining_readers")

    def __init__(self, bucket: "Bucket") -> None:
        self.bucket = bucket
        self.size_class = bucket.chunk_size
        self.data = b""
        self.remaining_readers = 0

    def fill(self, data: bytes, readers: int) -> None:
        if len(data) > self.size_class:
            raise NvxError(
                f"payload of {len(data)} bytes in a {self.size_class} chunk")
        self.data = bytes(data)
        self.remaining_readers = readers

    def release_reader(self) -> bool:
        """Drop one reader's claim; recycle the chunk when the last one
        goes.  This is the single release path shared by the consume
        hot path (:meth:`SharedMemoryPool.consume`) and the crash path
        (``RingBuffer.remove_consumer``), so the two cannot drift.
        Returns True when the chunk went back on its bucket's free list.
        """
        self.remaining_readers -= 1
        if self.remaining_readers > 0:
            return False
        bucket = self.bucket
        self.data = b""
        bucket.free.append(self)
        bucket.live_chunks -= 1
        return True


class Bucket:
    """All chunks of one size class."""

    def __init__(self, sim: Simulator, chunk_size: int) -> None:
        self.chunk_size = chunk_size
        self.free: List[SharedChunk] = []
        self.lock = Mutex(sim)
        self.segments_allocated = 0
        self.live_chunks = 0

    def grow(self) -> None:
        """Request a new segment from the pool; divide into chunks."""
        self.segments_allocated += 1
        for _ in range(CHUNKS_PER_SEGMENT):
            self.free.append(SharedChunk(self))


class SharedMemoryPool:
    """The 'shm' segment of Figure 2: ring buffers plus this allocator."""

    def __init__(self, sim: Simulator, costs: CostModel) -> None:
        self.sim = sim
        self.costs = costs
        self.buckets: Dict[int, Bucket] = {
            size: Bucket(sim, size) for size in BUCKET_SIZES}
        self.allocs = 0
        self.frees = 0

    def bucket_for(self, size: int) -> Bucket:
        for bucket_size in BUCKET_SIZES:
            if size <= bucket_size:
                return self.buckets[bucket_size]
        raise NvxError(f"allocation of {size} bytes exceeds largest bucket")

    def alloc(self, data: bytes, readers: int):
        """Generator: allocate a chunk and copy ``data`` into it.

        Charges the allocator cost plus the per-byte copy; takes the
        per-bucket lock for the free-list manipulation only.
        """
        bucket = self.bucket_for(max(1, len(data)))
        yield from bucket.lock.acquire()
        try:
            if not bucket.free:
                bucket.grow()
            chunk = bucket.free.pop()
            bucket.live_chunks += 1
        finally:
            bucket.lock.release()
        self.allocs += 1
        yield Compute(cycles(self.costs.stream.shm_alloc
                             + self.costs.stream.copy_per_byte * len(data)))
        chunk.fill(data, readers)
        return chunk

    def consume(self, chunk: SharedChunk):
        """Generator: one reader copies the payload out; the last reader
        returns the chunk to its bucket."""
        yield Compute(cycles(
            self.costs.stream.copy_per_byte * len(chunk.data)))
        data = chunk.data
        if chunk.release_reader():
            yield from self._charge_free(chunk.bucket)
        return data

    def _charge_free(self, bucket: Bucket):
        """Generator: charge the lock round-trip and allocator cost for
        one recycle (the bookkeeping itself lives in
        :meth:`SharedChunk.release_reader`)."""
        yield from bucket.lock.acquire()
        bucket.lock.release()
        self.frees += 1
        yield Compute(cycles(self.costs.stream.shm_free))
