"""Simulated Redis: in-memory key-value store.

Implements the command mix redis-benchmark exercises (PING, SET, GET,
INCR, LPUSH, LPOP, SADD, HSET, HMGET) over the simulated heap so
sanitized builds have something real to check (§5.3).

Revision lineage for the failover experiment (§5.1): eight consecutive
revisions 9a22de8..7fb16ba, where the *last* one introduces a bug that
segfaults the server on a particular ``HMGET`` — the bug of
code.google.com/p/redis issue 344 used by the paper and by Mx.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.apps.base import EpollServer, ServerStats, parse_line_request
from repro.kernel.uapi import Segfault
from repro.runtime.image import SiteSpec, build_image
from repro.sanitizers.heap import SimHeap

PARSE_CYCLES = 6000
COMMAND_CYCLES = {
    b"PING": 1500,
    b"SET": 8500,
    b"GET": 7000,
    b"INCR": 7500,
    b"LPUSH": 9000,
    b"LPOP": 8500,
    b"SADD": 9000,
    b"HSET": 9500,
    b"HMGET": 10000,
    b"MSET": 12500,
}

#: The eight consecutive revisions of the §5.1 experiment.
REVISIONS = ("9a22de8", "1b2c3d4", "2c3d4e5", "3d4e5f6",
             "4e5f607", "5f60718", "6071829", "7fb16ba")

#: The revision whose HMGET handler crashes.
BUGGY_REVISION = "7fb16ba"

REDIS_SITES = [
    SiteSpec("srv_socket", "socket"),
    SiteSpec("srv_setsockopt", "setsockopt"),
    SiteSpec("srv_bind", "bind"),
    SiteSpec("srv_listen", "listen"),
    SiteSpec("srv_epoll_create", "epoll_create"),
    SiteSpec("srv_epoll_ctl", "epoll_ctl"),
    SiteSpec("srv_epoll_wait", "epoll_wait"),
    SiteSpec("srv_accept", "accept"),
    SiteSpec("srv_read", "read"),
    SiteSpec("srv_write", "write"),
    SiteSpec("srv_close", "close"),
    SiteSpec("srv_time", "gettimeofday", vdso="gettimeofday"),
    SiteSpec("bg_nanosleep", "nanosleep"),
]


def redis_image():
    return build_image("redis", REDIS_SITES)


@dataclass
class Db:
    strings: Dict[bytes, bytes] = field(default_factory=dict)
    lists: Dict[bytes, List[bytes]] = field(default_factory=dict)
    sets: Dict[bytes, set] = field(default_factory=dict)
    hashes: Dict[bytes, Dict[bytes, bytes]] = field(default_factory=dict)


def make_redis(stats: ServerStats = None, revision: str = REVISIONS[0],
               background_thread: bool = True):
    """Build the redis server generator for one revision."""
    stats = stats if stats is not None else ServerStats()
    buggy = revision == BUGGY_REVISION
    db = Db()

    def main(ctx):
        heap = SimHeap(ctx)

        if background_thread:
            def background(bctx):
                # serverCron-style housekeeping: periodic time checks.
                for _ in range(1_000_000):
                    yield from bctx.nanosleep(100 * 1_000_000_000,
                                              site="bg_nanosleep")
                    yield from bctx.gettimeofday(site="srv_time")
                return None

            yield from ctx.spawn_thread(background)

        def handle(hctx, conn, request):
            yield from hctx.compute(PARSE_CYCLES)
            parts = request.split(b" ")
            command = parts[0].upper()
            yield from hctx.compute(COMMAND_CYCLES.get(command, 2000))
            if command in (b"SET", b"HSET", b"LPUSH", b"SADD"):
                addr = yield from heap.malloc(
                    len(parts[-1]) if parts else 16)
                yield from heap.store(addr, 8)
            if command == b"PING":
                return b"+PONG\r\n"
            if command == b"SET" and len(parts) >= 3:
                db.strings[parts[1]] = parts[2]
                return b"+OK\r\n"
            if command == b"GET" and len(parts) >= 2:
                value = db.strings.get(parts[1])
                if value is None:
                    return b"$-1\r\n"
                return b"$%d\r\n%s\r\n" % (len(value), value)
            if command == b"INCR" and len(parts) >= 2:
                raw = db.strings.get(parts[1], b"0")
                try:
                    value = int(raw) + 1
                except ValueError:
                    return (b"-ERR value is not an integer or out of "
                            b"range\r\n")
                db.strings[parts[1]] = str(value).encode()
                return b":%d\r\n" % value
            if command == b"LPUSH" and len(parts) >= 3:
                db.lists.setdefault(parts[1], []).insert(0, parts[2])
                return b":%d\r\n" % len(db.lists[parts[1]])
            if command == b"LPOP" and len(parts) >= 2:
                items = db.lists.get(parts[1], [])
                if not items:
                    return b"$-1\r\n"
                value = items.pop(0)
                return b"$%d\r\n%s\r\n" % (len(value), value)
            if command == b"SADD" and len(parts) >= 3:
                bucket = db.sets.setdefault(parts[1], set())
                added = int(parts[2] not in bucket)
                bucket.add(parts[2])
                return b":%d\r\n" % added
            if command == b"HSET" and len(parts) >= 4:
                db.hashes.setdefault(parts[1], {})[parts[2]] = parts[3]
                return b":1\r\n"
            if command == b"HMGET" and len(parts) >= 3:
                if buggy:
                    # Issue 344: dereference through a stale pointer when
                    # the hash is missing — a real use-after-free under
                    # ASan, a plain segfault otherwise.
                    addr = yield from heap.malloc(16)
                    yield from heap.free(addr)
                    yield from heap.load(addr)
                    raise Segfault(
                        f"redis {revision}: HMGET on missing hash")
                entry = db.hashes.get(parts[1], {})
                values = [entry.get(f) for f in parts[2:]]
                out = b"*%d\r\n" % len(values)
                for value in values:
                    out += (b"$-1\r\n" if value is None
                            else b"$%d\r\n%s\r\n" % (len(value), value))
                return out
            stats.errors += 1
            return b"-ERR unknown command\r\n"

        server = EpollServer(ctx, 6379, handle, parse_line_request,
                             stats=stats)
        return (yield from server.serve())

    return main
