"""Shared machinery for the client-side load generators.

All measurements are client-side, like the paper's: the client machine
sits in the same rack as the server, the worst case for monitor
overhead since network latency hides nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.costmodel import SEC_PS, US_PS
from repro.kernel.uapi import ECONNREFUSED, SysError
from repro.obs.metrics import Histogram

#: Latency samples a :class:`LatencyDigest` retains.
DIGEST_LIMIT = 4096


class LatencyDigest:
    """Bounded latency accumulator: a power-of-two histogram plus a
    fixed-size reservoir sample.

    A 10k-client open-loop run observes millions of latencies; keeping
    them all in a list (the old ``ClientReport.latencies_ps``) holds
    megabytes of ints per report.  The digest is O(``DIGEST_LIMIT``):
    averages come from the histogram's exact count/total, and
    percentiles come from the reservoir — *exact* while ``count <=
    DIGEST_LIMIT`` (every sample is retained, which is what the tests
    rely on), and interpolated within the matching power-of-two bucket
    beyond that.

    Reservoir replacement draws from a digest-local seeded RNG, so a
    deterministic observation sequence yields a deterministic digest —
    runs stay byte-for-byte reproducible.
    """

    __slots__ = ("hist", "reservoir", "_rng")

    def __init__(self) -> None:
        self.hist = Histogram()
        self.reservoir: list = []
        self._rng = random.Random(0x1A7E)

    def observe(self, value: int) -> None:
        self.hist.observe(value)
        if len(self.reservoir) < DIGEST_LIMIT:
            self.reservoir.append(value)
        else:
            # Algorithm R: each of the count samples ends up retained
            # with probability DIGEST_LIMIT/count.
            slot = self._rng.randrange(self.hist.count)
            if slot < DIGEST_LIMIT:
                self.reservoir[slot] = value

    def avg_ps(self) -> float:
        if not self.hist.count:
            return 0.0
        return self.hist.total / self.hist.count

    def percentile_ps(self, pct: float) -> float:
        count = self.hist.count
        if not count:
            return 0.0
        if count <= DIGEST_LIMIT:
            ordered = sorted(self.reservoir)
            index = min(count - 1, int(pct / 100.0 * count))
            return float(ordered[index])
        # Walk the histogram to the bucket holding the requested rank
        # and interpolate linearly inside its value range.
        rank = min(count - 1, int(pct / 100.0 * count))
        cumulative = 0
        for bucket, bucket_count in sorted(self.hist.buckets.items()):
            if cumulative + bucket_count > rank:
                low = 1 << (bucket - 1) if bucket > 0 else 0
                high = (1 << bucket) - 1 if bucket > 0 else 0
                if bucket_count == 1 or high <= low:
                    return float(low)
                fraction = (rank - cumulative) / (bucket_count - 1)
                return low + fraction * (high - low)
            cumulative += bucket_count
        return float(self.hist.max or 0)


@dataclass
class ClientReport:
    """What a load generator measured.

    Latency samples live in bounded :class:`LatencyDigest`s (overall
    and per command), not unbounded lists — see the digest docstring.
    """

    name: str
    requests: int = 0
    errors: int = 0
    started_ps: Optional[int] = None
    finished_ps: Optional[int] = None
    latency: LatencyDigest = field(default_factory=LatencyDigest)
    #: Per-command latency digests (redis-benchmark style).
    per_command: Dict[str, LatencyDigest] = field(default_factory=dict)

    @property
    def duration_ps(self) -> int:
        if self.started_ps is None or self.finished_ps is None:
            return 0
        return max(1, self.finished_ps - self.started_ps)

    @property
    def throughput_rps(self) -> float:
        return self.requests * SEC_PS / self.duration_ps

    def latency_avg_us(self) -> float:
        return self.latency.avg_ps() / US_PS

    def latency_percentile_us(self, pct: float) -> float:
        return self.latency.percentile_ps(pct) / US_PS

    def command_avg_us(self, command: str) -> float:
        digest = self.per_command.get(command)
        return digest.avg_ps() / US_PS if digest is not None else 0.0

    def observe(self, latency_ps: int, command: Optional[str] = None,
                now: Optional[int] = None) -> None:
        self.requests += 1
        self.latency.observe(latency_ps)
        if command is not None:
            digest = self.per_command.get(command)
            if digest is None:
                digest = self.per_command[command] = LatencyDigest()
            digest.observe(latency_ps)
        if now is not None:
            if self.started_ps is None:
                self.started_ps = now - latency_ps
            self.finished_ps = now


def connect_with_retry(ctx, addr, attempts: int = 200):
    """Generator: connect, retrying while the server is still booting."""
    for _ in range(attempts):
        fd = yield from ctx.socket()
        result = yield from ctx.syscall("connect", fd, addr)
        if result.retval == 0:
            return fd
        yield from ctx.close(fd)
        if result.retval != -ECONNREFUSED:
            raise SysError(-result.retval, "connect")
        yield from ctx.nanosleep(200 * US_PS)
    raise SysError(ECONNREFUSED, "connect")


def recv_until(ctx, fd, terminator: bytes):
    """Generator: read until ``terminator`` appears, EOF or 64 KiB."""
    buffer = b""
    while terminator not in buffer and len(buffer) < 1 << 16:
        data = yield from ctx.recv(fd, 4096)
        if not data:
            break
        buffer += data
    return buffer
