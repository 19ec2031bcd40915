"""Shared infrastructure for the simulated server applications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.kernel.uapi import (
    EPOLL_CTL_ADD,
    EPOLL_CTL_DEL,
    EPOLLHUP,
    EPOLLIN,
    SysError,
)

#: Bytes one ``recv`` of a connection asks for.
RECV_SIZE = 4096


@dataclass
class ServerStats:
    """Counters every simulated server maintains."""

    requests: int = 0
    connections: int = 0
    bytes_out: int = 0
    errors: int = 0


@dataclass
class Connection:
    """Per-connection parse state for line/length-oriented protocols."""

    fd: int
    buffer: bytes = b""
    keepalive: bool = True


class EpollServer:
    """The classic single-threaded epoll accept/read/respond loop.

    Subclass-free by design: behaviour is injected through the
    ``handle_request`` coroutine so each server module stays a flat,
    readable description of its protocol.
    """

    def __init__(self, ctx, port: int, handle_request,
                 parse_request, stats: Optional[ServerStats] = None,
                 conn_setup_cycles: int = 0) -> None:
        self.ctx = ctx
        self.port = port
        self.handle_request = handle_request
        self.parse_request = parse_request
        self.stats = stats or ServerStats()
        #: Per-connection server work (allocating the connection object,
        #: TLS-less handshake bookkeeping, prefork hand-off...) — the
        #: dominant cost of one-request-per-connection workloads.
        self.conn_setup_cycles = conn_setup_cycles
        self.connections: Dict[int, Connection] = {}
        self.running = True

    def serve(self):
        """Generator: run the accept loop forever (or until stopped)."""
        ctx = self.ctx
        listen_fd = yield from ctx.socket(site="srv_socket")
        yield from ctx.setsockopt(listen_fd, site="srv_setsockopt")
        yield from ctx.bind(listen_fd, (ctx.machine.name, self.port),
                            site="srv_bind")
        yield from ctx.listen(listen_fd, site="srv_listen")
        epfd = yield from ctx.epoll_create(site="srv_epoll_create")
        yield from ctx.epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd, EPOLLIN,
                                 site="srv_epoll_ctl")
        while self.running:
            events = yield from ctx.epoll_wait(epfd, site="srv_epoll_wait")
            for fd, mask in events:
                if fd == listen_fd:
                    yield from self._accept(epfd, listen_fd)
                elif mask & EPOLLHUP and fd not in self.connections:
                    continue
                else:
                    yield from self._serve_fd(epfd, fd)
        return self.stats

    def _accept(self, epfd: int, listen_fd: int):
        # One accept per readiness wake: level-triggered epoll re-reports
        # the listener while connections remain queued.
        ctx = self.ctx
        result = yield from ctx.syscall("accept", listen_fd,
                                        site="srv_accept")
        if result.retval < 0:
            return
        fd = result.retval
        self.connections[fd] = Connection(fd=fd)
        self.stats.connections += 1
        if self.conn_setup_cycles:
            yield from ctx.compute(self.conn_setup_cycles)
        yield from ctx.epoll_ctl(epfd, EPOLL_CTL_ADD, fd, EPOLLIN,
                                 site="srv_epoll_ctl")

    def _serve_fd(self, epfd: int, fd: int):
        ctx = self.ctx
        conn = self.connections.get(fd)
        if conn is None:
            return
        data = yield from ctx.recv(fd, RECV_SIZE, site="srv_read")
        if not data:
            yield from self._close(epfd, fd)
            return
        conn.buffer += data
        while True:
            request, rest = self.parse_request(conn.buffer)
            if request is None:
                break
            conn.buffer = rest
            self.stats.requests += 1
            response = yield from self.handle_request(ctx, conn, request)
            if response:
                sent = yield from ctx.send(fd, response, site="srv_write")
                self.stats.bytes_out += max(0, sent)
            if not conn.keepalive:
                yield from self._close(epfd, fd)
                return

    def _close(self, epfd: int, fd: int):
        ctx = self.ctx
        try:
            yield from ctx.epoll_ctl(epfd, EPOLL_CTL_DEL, fd, 0,
                                     site="srv_epoll_ctl")
        except SysError:
            pass
        yield from ctx.close(fd, site="srv_close")
        self.connections.pop(fd, None)


def parse_line_request(buffer: bytes):
    """Protocol helper: one CRLF-terminated line per request."""
    idx = buffer.find(b"\r\n")
    if idx < 0:
        return None, buffer
    return buffer[:idx], buffer[idx + 2:]


def parse_http_request(buffer: bytes):
    """Protocol helper: a blank-line-terminated HTTP request head."""
    idx = buffer.find(b"\r\n\r\n")
    if idx < 0:
        return None, buffer
    return buffer[:idx], buffer[idx + 4:]


def http_response(body: bytes, keepalive: bool = True) -> bytes:
    head = ("HTTP/1.1 200 OK\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keepalive else 'close'}\r\n"
            "\r\n").encode()
    return head + body
