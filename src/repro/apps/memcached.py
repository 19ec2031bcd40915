"""Simulated Memcached: multi-threaded in-memory object cache.

Faithful to the real architecture: the main thread accepts connections
and hands them to worker threads round-robin, kicking each worker
through its notify pipe; every worker runs its own epoll loop.  Under
Varan this exercises the multi-threaded event ordering of §3.3.3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.apps.base import ServerStats, parse_line_request
from repro.kernel.uapi import (
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLLIN,
    SysError,
)
from repro.runtime.image import SiteSpec, build_image

PARSE_CYCLES = 6000
GET_CYCLES = 12000
SET_CYCLES = 15000
#: Worker threads the main thread hands connections to, round robin.
WORKERS = 2

MEMCACHED_SITES = [
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
    SiteSpec("srv_pipe", "pipe"),
    SiteSpec("srv_clone", "clone"),
]


def memcached_image():
    return build_image("memcached", MEMCACHED_SITES)


def make_memcached(stats: ServerStats = None):
    """Build the memcached server generator (main + worker threads)."""
    stats = stats if stats is not None else ServerStats()
    cache: Dict[bytes, bytes] = {}

    def main(ctx):
        worker_queues: list = []
        notify_write_fds: list = []

        def make_worker(queue: Deque, notify_read_fd: int):
            def worker(wctx):
                epfd = yield from wctx.epoll_create(
                    site="srv_epoll_create")
                yield from wctx.epoll_ctl(epfd, EPOLL_CTL_ADD,
                                          notify_read_fd, EPOLLIN,
                                          site="srv_epoll_ctl")
                buffers: Dict[int, bytes] = {}
                while True:
                    events = yield from wctx.epoll_wait(
                        epfd, site="srv_epoll_wait")
                    for fd, _mask in events:
                        if fd == notify_read_fd:
                            # Exactly one connection per notify byte:
                            # draining the whole queue would make the
                            # epoll_ctl count depend on thread timing —
                            # user-space communication the NVX monitor
                            # cannot see (§6), and a replay divergence.
                            yield from wctx.read(fd, 1, site="srv_read")
                            if queue:
                                conn_fd = queue.popleft()
                                buffers[conn_fd] = b""
                                yield from wctx.epoll_ctl(
                                    epfd, EPOLL_CTL_ADD, conn_fd,
                                    EPOLLIN, site="srv_epoll_ctl")
                            continue
                        if fd not in buffers:
                            continue
                        data = yield from wctx.recv(fd, 4096,
                                                    site="srv_read")
                        if not data:
                            try:
                                yield from wctx.epoll_ctl(
                                    epfd, EPOLL_CTL_DEL, fd, 0,
                                    site="srv_epoll_ctl")
                            except SysError:
                                pass
                            yield from wctx.close(fd, site="srv_close")
                            buffers.pop(fd, None)
                            continue
                        buffers[fd] += data
                        while True:
                            request, rest = parse_line_request(
                                buffers[fd])
                            if request is None:
                                break
                            buffers[fd] = rest
                            response = yield from _handle(wctx, request)
                            stats.requests += 1
                            sent = yield from wctx.send(
                                fd, response, site="srv_write")
                            stats.bytes_out += max(0, sent)

            return worker

        def _handle(hctx, request: bytes):
            yield from hctx.compute(PARSE_CYCLES)
            parts = request.split(b" ")
            command = parts[0]
            if command == b"set" and len(parts) >= 3:
                yield from hctx.compute(SET_CYCLES)
                cache[parts[1]] = parts[2]
                return b"STORED\r\n"
            if command == b"get" and len(parts) >= 2:
                yield from hctx.compute(GET_CYCLES)
                value = cache.get(parts[1])
                if value is None:
                    return b"END\r\n"
                return (b"VALUE %s 0 %d\r\n%s\r\nEND\r\n"
                        % (parts[1], len(value), value))
            if command == b"delete" and len(parts) >= 2:
                yield from hctx.compute(GET_CYCLES)
                existed = cache.pop(parts[1], None) is not None
                return b"DELETED\r\n" if existed else b"NOT_FOUND\r\n"
            stats.errors += 1
            return b"ERROR\r\n"

        # Spawn workers, each with a notify pipe.
        for _ in range(WORKERS):
            read_fd, write_fd = yield from ctx.pipe(site="srv_pipe")
            queue: Deque = deque()
            worker_queues.append(queue)
            notify_write_fds.append(write_fd)
            yield from ctx.spawn_thread(make_worker(queue, read_fd),
                                        site="srv_clone")

        # Main thread: accept and dispatch round-robin.
        listen_fd = yield from ctx.socket(site="srv_socket")
        yield from ctx.setsockopt(listen_fd, site="srv_setsockopt")
        yield from ctx.bind(listen_fd, (ctx.machine.name, 11211),
                            site="srv_bind")
        yield from ctx.listen(listen_fd, site="srv_listen")
        next_worker = 0
        while True:
            result = yield from ctx.syscall("accept", listen_fd,
                                            site="srv_accept")
            if result.retval < 0:
                continue
            stats.connections += 1
            worker_queues[next_worker].append(result.retval)
            yield from ctx.write(notify_write_fds[next_worker], b"!",
                                 site="srv_write")
            next_worker = (next_worker + 1) % WORKERS

    return main
