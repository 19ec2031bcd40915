"""Simulated Beanstalkd: a simple, fast work queue.

The paper's worst performer under NVX: tiny per-operation compute makes
the syscall path dominate.  Its hot read site is deliberately
unpatchable (a branch target lands in the patch window), so it pays the
INT0 fallback — which is why Beanstalkd alone shows a ~10% interception
overhead at zero followers (Figure 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.apps.base import EpollServer, ServerStats, parse_line_request
from repro.runtime.image import SiteSpec, build_image

#: Per-operation compute (cycles): parsing + queue manipulation.
PARSE_CYCLES = 1000
ENQUEUE_CYCLES = 2500
RESERVE_CYCLES = 2800

BEANSTALKD_SITES = [
    SiteSpec("srv_socket", "socket"),
    SiteSpec("srv_setsockopt", "setsockopt"),
    SiteSpec("srv_bind", "bind"),
    SiteSpec("srv_listen", "listen"),
    SiteSpec("srv_epoll_create", "epoll_create"),
    SiteSpec("srv_epoll_ctl", "epoll_ctl"),
    SiteSpec("srv_epoll_wait", "epoll_wait"),
    SiteSpec("srv_accept", "accept"),
    # The hot receive path sits in a dispatch loop whose jump table
    # targets the instruction right after the syscall: INT0 fallback.
    SiteSpec("srv_read", "read", force_int=True),
    SiteSpec("srv_write", "write"),
    SiteSpec("srv_close", "close"),
    SiteSpec("bin_write", "write"),
    SiteSpec("srv_gtod", "gettimeofday", vdso="gettimeofday"),
]


def beanstalkd_image():
    return build_image("beanstalkd", BEANSTALKD_SITES)


@dataclass
class JobStore:
    """Tube state: ready jobs plus a monotonically growing id."""

    next_id: int = 1
    ready: Deque = field(default_factory=deque)
    reserved: Dict[int, bytes] = field(default_factory=dict)


def make_beanstalkd(stats: ServerStats = None, binlog_path: str = None):
    """Build the beanstalkd server generator.

    Protocol (line-oriented, binary-safe bodies are elided):
    ``put <bytes>`` / ``reserve`` / ``delete <id>`` / ``stats``.
    """
    stats = stats if stats is not None else ServerStats()
    store = JobStore()

    def main(ctx):
        binlog_fd = None
        if binlog_path is not None:
            from repro.kernel.uapi import O_CREAT, O_WRONLY

            binlog_fd = yield from ctx.open(binlog_path,
                                            O_CREAT | O_WRONLY,
                                            site="srv_open")

        def handle(hctx, conn, request):
            yield from hctx.compute(PARSE_CYCLES)
            # Job timestamps: beanstalkd reads the clock per operation.
            yield from hctx.gettimeofday(site="srv_gtod")
            parts = request.split(b" ", 1)
            command = parts[0]
            if command == b"put":
                body = parts[1] if len(parts) > 1 else b""
                yield from hctx.compute(ENQUEUE_CYCLES)
                job_id = store.next_id
                store.next_id += 1
                store.ready.append((job_id, body))
                if binlog_fd is not None:
                    yield from hctx.write(binlog_fd, body,
                                          site="bin_write")
                return b"INSERTED %d\r\n" % job_id
            if command == b"reserve":
                yield from hctx.compute(RESERVE_CYCLES)
                if not store.ready:
                    return b"TIMED_OUT\r\n"
                job_id, body = store.ready.popleft()
                store.reserved[job_id] = body
                return b"RESERVED %d %d\r\n%s\r\n" % (job_id, len(body),
                                                      body)
            if command == b"delete":
                yield from hctx.compute(ENQUEUE_CYCLES // 2)
                job_id = int(parts[1]) if len(parts) > 1 else 0
                found = store.reserved.pop(job_id, None)
                return b"DELETED\r\n" if found is not None \
                    else b"NOT_FOUND\r\n"
            if command == b"stats":
                yield from hctx.compute(PARSE_CYCLES)
                return (b"OK\r\ncurrent-jobs-ready: %d\r\n"
                        % len(store.ready))
            stats.errors += 1
            return b"UNKNOWN_COMMAND\r\n"

        server = EpollServer(ctx, 11300, handle, parse_line_request,
                             stats=stats)
        return (yield from server.serve())

    return main
