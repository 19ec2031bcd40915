"""Simulated Nginx: multi-process HTTP server / reverse proxy.

A master process forks worker processes that share the listening socket
(non-blocking accept, so losing the thundering-herd race is harmless).
Under Varan each worker becomes its own process tuple with its own ring
buffer (§3.3.3).
"""

from __future__ import annotations

from repro.apps.base import (
    Connection,
    ServerStats,
    http_response,
    parse_http_request,
)
from repro.kernel.uapi import (
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLLIN,
    O_NONBLOCK,
    SysError,
)
from repro.runtime.image import SiteSpec, build_image

PARSE_CYCLES = 5000
RESPOND_CYCLES = 7000
#: Forked worker processes sharing the listening socket.
WORKERS = 4

NGINX_SITES = [
    SiteSpec("srv_socket", "socket"),
    SiteSpec("srv_setsockopt", "setsockopt"),
    SiteSpec("srv_bind", "bind"),
    SiteSpec("srv_listen", "listen"),
    SiteSpec("srv_fork", "fork"),
    SiteSpec("srv_wait4", "wait4"),
    SiteSpec("srv_epoll_create", "epoll_create"),
    SiteSpec("srv_epoll_ctl", "epoll_ctl"),
    SiteSpec("srv_epoll_wait", "epoll_wait"),
    # Workers inherit a hot accept loop with a computed-goto dispatch:
    # the accept site cannot be detoured.
    SiteSpec("srv_accept", "accept", force_int=True),
    SiteSpec("srv_read", "read"),
    SiteSpec("srv_write", "write"),
    SiteSpec("srv_close", "close"),
    SiteSpec("srv_time", "gettimeofday", vdso="gettimeofday"),
]


def nginx_image():
    return build_image("nginx", NGINX_SITES)


def make_nginx(port: int = 8080, stats: ServerStats = None):
    """Build the nginx master generator; it forks ``WORKERS`` children."""
    stats = stats if stats is not None else ServerStats()
    page = b"n" * 4096

    def worker_main(listen_fd: int):
        def worker(ctx):
            epfd = yield from ctx.epoll_create(site="srv_epoll_create")
            yield from ctx.epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd,
                                     EPOLLIN, site="srv_epoll_ctl")
            conns = {}
            while True:
                events = yield from ctx.epoll_wait(
                    epfd, site="srv_epoll_wait")
                for fd, _mask in events:
                    if fd == listen_fd:
                        result = yield from ctx.syscall(
                            "accept", listen_fd, site="srv_accept")
                        if result.retval < 0:
                            continue  # another worker won the race
                        conn_fd = result.retval
                        stats.connections += 1
                        conns[conn_fd] = Connection(fd=conn_fd)
                        yield from ctx.epoll_ctl(
                            epfd, EPOLL_CTL_ADD, conn_fd, EPOLLIN,
                            site="srv_epoll_ctl")
                        continue
                    conn = conns.get(fd)
                    if conn is None:
                        continue
                    data = yield from ctx.recv(fd, 4096, site="srv_read")
                    if not data:
                        yield from _drop(ctx, epfd, fd, conns)
                        continue
                    conn.buffer += data
                    while True:
                        request, rest = parse_http_request(conn.buffer)
                        if request is None:
                            break
                        conn.buffer = rest
                        stats.requests += 1
                        yield from ctx.compute(PARSE_CYCLES)
                        yield from ctx.gettimeofday(site="srv_time")
                        yield from ctx.compute(RESPOND_CYCLES)
                        keepalive = b"Connection: close" not in request
                        response = http_response(page, keepalive=keepalive)
                        sent = yield from ctx.send(fd, response,
                                                   site="srv_write")
                        stats.bytes_out += max(0, sent)
                        if not keepalive:
                            yield from _drop(ctx, epfd, fd, conns)
                            break

        return worker

    def _drop(ctx, epfd, fd, conns):
        try:
            yield from ctx.epoll_ctl(epfd, EPOLL_CTL_DEL, fd, 0,
                                     site="srv_epoll_ctl")
        except SysError:
            pass
        yield from ctx.close(fd, site="srv_close")
        conns.pop(fd, None)

    def master(ctx):
        listen_fd = yield from ctx.socket(flags=O_NONBLOCK,
                                          site="srv_socket")
        yield from ctx.setsockopt(listen_fd, site="srv_setsockopt")
        yield from ctx.bind(listen_fd, (ctx.machine.name, port),
                            site="srv_bind")
        yield from ctx.listen(listen_fd, site="srv_listen")
        pids = []
        for _ in range(WORKERS):
            pid = yield from ctx.fork(worker_main(listen_fd),
                                      site="srv_fork")
            pids.append(pid)
        # The master parks reaping children (they never exit normally).
        for pid in pids:
            yield from ctx.wait4(pid, site="srv_wait4")

    return master
